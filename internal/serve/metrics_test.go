package serve

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/memo"
)

func TestMetricsRender(t *testing.T) {
	m := newMetrics()
	m.observe("experiment", 10*time.Millisecond, http.StatusOK)
	m.observe("experiment", 5*time.Millisecond, http.StatusNotFound)
	m.observe("batch", 20*time.Millisecond, http.StatusOK)

	engine := memo.Stats{Hits: 30, Misses: 10, Evictions: 3, Entries: 7}
	render := memo.Stats{Hits: 4, Misses: 2, Evictions: 1, Entries: 5}
	out := m.render(engine, render, true, nil)
	for _, want := range []string{
		`sg2042d_requests_total{endpoint="batch"} 1`,
		`sg2042d_requests_total{endpoint="experiment"} 2`,
		`sg2042d_request_errors_total{endpoint="experiment"} 1`,
		`sg2042d_request_errors_total{endpoint="batch"} 0`,
		"sg2042d_engine_cache_hits_total 30",
		"sg2042d_engine_cache_misses_total 10",
		"sg2042d_engine_cache_hit_rate 0.750000",
		"sg2042d_engine_cache_evictions_total 3",
		"sg2042d_engine_cache_entries 7",
		"sg2042d_render_cache_hits_total 4",
		"sg2042d_render_cache_misses_total 2",
		"sg2042d_render_cache_evictions_total 1",
		"sg2042d_render_cache_entries 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q\n%s", want, out)
		}
	}
	// Endpoint order is sorted, so repeated renders are stable.
	if out2 := m.render(engine, render, true, nil); out2 != out {
		t.Error("render is not deterministic")
	}
	// batch sorts before experiment.
	if strings.Index(out, `{endpoint="batch"}`) > strings.Index(out, `{endpoint="experiment"}`) {
		t.Error("endpoints not sorted")
	}
}

func TestMetricsZeroTraffic(t *testing.T) {
	m := newMetrics()
	out := m.render(memo.Stats{}, memo.Stats{}, true, nil)
	if !strings.Contains(out, "sg2042d_engine_cache_hit_rate 0.000000") {
		t.Errorf("zero-traffic hit rate should render 0, got\n%s", out)
	}
}

func TestStatusWriterDefaultsToOK(t *testing.T) {
	m := newMetrics()
	h := m.instrument("probe", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("hi")) // implicit 200, no WriteHeader call
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/probe", nil))
	out := m.render(memo.Stats{}, memo.Stats{}, true, nil)
	if !strings.Contains(out, `sg2042d_request_errors_total{endpoint="probe"} 0`) {
		t.Errorf("implicit 200 counted as error:\n%s", out)
	}
}

// parseMetrics reads the sample lines of a Prometheus text exposition
// into name{labels} -> value.
func parseMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// A live server's /metrics carries the uniform cache stats for both
// caches, and they agree with the caches themselves.
func TestMetricsExposeCacheEvictionsAndEntries(t *testing.T) {
	s := New(Options{Parallel: 1})
	for _, path := range []string{"/v1/experiments/table4", "/v1/experiments/table4", "/v1/experiments/figure1?format=csv"} {
		if w := doGet(t, s, path, nil); w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, w.Code)
		}
	}
	got := parseMetrics(t, doGet(t, s, "/metrics", nil).Body.String())
	eng := s.eng.SuiteCacheStats()
	for name, want := range map[string]float64{
		"sg2042d_render_cache_hits_total":      1,
		"sg2042d_render_cache_misses_total":    2,
		"sg2042d_render_cache_evictions_total": 0,
		"sg2042d_render_cache_entries":         2,
		"sg2042d_engine_cache_hits_total":      float64(eng.Hits),
		"sg2042d_engine_cache_misses_total":    float64(eng.Misses),
		"sg2042d_engine_cache_evictions_total": 0,
		"sg2042d_engine_cache_entries":         float64(eng.Entries),
	} {
		v, ok := got[name]
		if !ok {
			t.Errorf("/metrics lacks %s", name)
			continue
		}
		if v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	if eng.Entries == 0 || eng.Entries != eng.Misses {
		t.Errorf("engine cache stats %+v: every miss should have left one entry", eng)
	}
}

// TestSuiteCacheBoundedUnderSpecStorm: distinct inline-spec campaigns,
// POSTed until more distinct suite evaluations have run than the
// suite cache may hold, leave a live /metrics showing the cache at or
// under its cap and evicting.
func TestSuiteCacheBoundedUnderSpecStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs more than 65,536 suite evaluations")
	}
	const suiteCacheCap = 1 << 16
	s := New(Options{Parallel: 2})
	spec := doGet(t, s, "/v1/machines/SG2042", nil).Body.String()
	cores := make([]string, 16)
	for i := range cores {
		cores[i] = strconv.Itoa(4 * (i + 1))
	}
	campaigns := 0
	for s.eng.SuiteCacheStats().Misses <= suiteCacheCap {
		// 128 clocks x 16 core counts x 2 placements x 2 precisions is
		// 8192 points; every campaign's clocks are new, so every point
		// is a new suite evaluation.
		clocks := make([]string, 128)
		for i := range clocks {
			clocks[i] = strconv.FormatFloat(1+float64(campaigns*len(clocks)+i)/1000, 'f', -1, 64)
		}
		inline := strings.Replace(spec, `"label": "SG2042"`, `"label": "storm`+strconv.Itoa(campaigns)+`"`, 1)
		body := `{"specs": [` + inline + `], "axes": [` +
			`{"axis": "clock", "values": [` + strings.Join(clocks, ",") + `]}, ` +
			`{"axis": "cores", "values": [` + strings.Join(cores, ",") + `]}], ` +
			`"placements": ["block", "cyclic"], "precisions": ["f32", "f64"]}`
		req := httptest.NewRequest(http.MethodPost, "/v1/campaign?format=csv", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("campaign %d: status %d: %.300s", campaigns, rec.Code, rec.Body.String())
		}
		campaigns++
	}
	got := parseMetrics(t, doGet(t, s, "/metrics", nil).Body.String())
	entries, evictions := got["sg2042d_engine_cache_entries"], got["sg2042d_engine_cache_evictions_total"]
	if entries > suiteCacheCap {
		t.Errorf("after %d campaigns the suite cache holds %v entries, cap %d", campaigns, entries, suiteCacheCap)
	}
	if evictions <= 0 {
		t.Errorf("after %d campaigns the suite cache evicted %v entries, want some", campaigns, evictions)
	}
	t.Logf("%d campaigns: %+v", campaigns, s.eng.SuiteCacheStats())
}
