package serve

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func doGet(t *testing.T, s *Server, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// A repeat GET must be served from the render cache with a strong ETag,
// and revalidation with that ETag must answer 304 with no body.
func TestExperimentETagAndConditionalGet(t *testing.T) {
	s := New(Options{Parallel: 1})
	first := doGet(t, s, "/v1/experiments/table4", nil)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d", first.Code)
	}
	etag := first.Header().Get("ETag")
	if etag == "" || strings.HasPrefix(etag, "W/") {
		t.Fatalf("want a strong ETag, got %q", etag)
	}
	second := doGet(t, s, "/v1/experiments/table4", nil)
	if second.Header().Get("ETag") != etag {
		t.Errorf("ETag changed between identical requests: %q vs %q", etag, second.Header().Get("ETag"))
	}
	if second.Body.String() != first.Body.String() {
		t.Error("cached body differs from first rendering")
	}

	cond := doGet(t, s, "/v1/experiments/table4", map[string]string{"If-None-Match": etag})
	if cond.Code != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", cond.Code)
	}
	if cond.Body.Len() != 0 {
		t.Errorf("304 carried a %d-byte body", cond.Body.Len())
	}
	// A stale or foreign tag must get the full body again.
	miss := doGet(t, s, "/v1/experiments/table4", map[string]string{"If-None-Match": `"nope"`})
	if miss.Code != http.StatusOK || miss.Body.Len() == 0 {
		t.Errorf("stale tag: status %d body %d bytes", miss.Code, miss.Body.Len())
	}

	hits, misses := s.rc.stats()
	if misses != 1 {
		t.Errorf("render cache misses = %d, want 1", misses)
	}
	if hits != 3 {
		t.Errorf("render cache hits = %d, want 3", hits)
	}
}

// Distinct formats are distinct cache entries with distinct ETags.
func TestRenderCacheKeyedByFormat(t *testing.T) {
	s := New(Options{Parallel: 1})
	text := doGet(t, s, "/v1/experiments/figure1", nil)
	csv := doGet(t, s, "/v1/experiments/figure1?format=csv", nil)
	jsn := doGet(t, s, "/v1/experiments/figure1?format=json", nil)
	tags := map[string]bool{}
	for _, w := range []*httptest.ResponseRecorder{text, csv, jsn} {
		if w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
		tags[w.Header().Get("ETag")] = true
	}
	if len(tags) != 3 {
		t.Errorf("3 formats produced %d distinct ETags", len(tags))
	}
	if _, misses := s.rc.stats(); misses != 3 {
		t.Errorf("misses = %d, want 3", misses)
	}
}

// Clients that accept gzip get the stored compressed bytes (with a
// gzip-specific ETag) and they must inflate to the identity body.
func TestGzipFromRenderCache(t *testing.T) {
	s := New(Options{Parallel: 1})
	plain := doGet(t, s, "/v1/experiments/figure1", nil)
	gz := doGet(t, s, "/v1/experiments/figure1", map[string]string{"Accept-Encoding": "gzip"})
	if gz.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("want gzip response, got encoding %q", gz.Header().Get("Content-Encoding"))
	}
	vary := strings.Join(gz.Header().Values("Vary"), ", ")
	if !strings.Contains(vary, "Accept-Encoding") || !strings.Contains(vary, "Accept") {
		t.Errorf("Vary = %q, want Accept and Accept-Encoding", vary)
	}
	if !strings.HasSuffix(gz.Header().Get("ETag"), `-gzip"`) {
		t.Errorf("gzip representation should carry its own ETag, got %q", gz.Header().Get("ETag"))
	}
	zr, err := gzip.NewReader(gz.Body)
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(inflated) != plain.Body.String() {
		t.Error("gzip body does not inflate to the identity body")
	}
	// Conditional gzip revalidation against the gzip ETag.
	cond := doGet(t, s, "/v1/experiments/figure1", map[string]string{
		"Accept-Encoding": "gzip", "If-None-Match": gz.Header().Get("ETag")})
	if cond.Code != http.StatusNotModified {
		t.Errorf("gzip revalidation status %d, want 304", cond.Code)
	}
	// An explicit q=0 opts out of compression.
	ident := doGet(t, s, "/v1/experiments/figure1", map[string]string{"Accept-Encoding": "gzip;q=0"})
	if ident.Header().Get("Content-Encoding") == "gzip" {
		t.Error("gzip served despite q=0")
	}
}

// Small bodies are not worth compressing and must be served identity.
func TestSmallBodiesNotGzipped(t *testing.T) {
	s := New(Options{Parallel: 1})
	w := doGet(t, s, "/v1/experiments/table4?format=csv", nil) // Table 4 is ~300B of text
	if w.Body.Len() >= gzipMinSize {
		t.Skipf("table4 body grew to %dB; pick a smaller fixture", w.Body.Len())
	}
	gz := doGet(t, s, "/v1/experiments/table4?format=csv", map[string]string{"Accept-Encoding": "gzip"})
	if gz.Header().Get("Content-Encoding") != "" {
		t.Errorf("sub-threshold body compressed (%dB)", w.Body.Len())
	}
}

// postNDJSON posts campaignBody for the NDJSON stream, in process.
func postNDJSON(s *Server, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/campaign?format=ndjson", strings.NewReader(campaignBody))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// inflate gunzips a response body.
func inflate(t *testing.T, body io.Reader) []byte {
	t.Helper()
	zr, err := gzip.NewReader(body)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A streamed cold campaign fills the cache with the body alone: no
// ETag and no gzip form are built until a replay asks for them. The
// first gzip replay then compresses exactly the streamed bytes, under
// the identity tag's -gzip form, and that tag revalidates.
func TestRenderEntryBuiltOnFirstReplay(t *testing.T) {
	s := New(Options{Parallel: 1})
	live := postNDJSON(s, map[string]string{"Accept-Encoding": "gzip"})
	if live.Code != http.StatusOK {
		t.Fatalf("status %d: %s", live.Code, live.Body)
	}
	if enc := live.Header().Get("Content-Encoding"); enc != "" {
		t.Errorf("streamed response encoded %q", enc)
	}
	if tag := live.Header().Get("ETag"); tag != "" {
		t.Errorf("streamed response carries ETag %q", tag)
	}
	var ents []*renderEntry
	s.rc.m.Range(func(k renderKey, e *renderEntry) {
		if k.format == formatNDJSON {
			ents = append(ents, e)
		}
	})
	if len(ents) != 1 {
		t.Fatalf("%d NDJSON cache entries, want 1", len(ents))
	}
	ent := ents[0]
	if !bytes.Equal(ent.body, live.Body.Bytes()) {
		t.Fatal("cached body differs from the streamed bytes")
	}
	if ent.gzipped != nil || ent.etagGzip != "" || ent.etag != "" {
		t.Fatal("the fill built an ETag or gzip form")
	}

	gz := postNDJSON(s, map[string]string{"Accept-Encoding": "gzip"})
	if gz.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("first gzip replay encoded %q, want gzip", gz.Header().Get("Content-Encoding"))
	}
	tag := gz.Header().Get("ETag")
	if want := strings.TrimSuffix(ent.identityETag(), `"`) + `-gzip"`; tag != want {
		t.Errorf("gzip replay ETag %q, want %q", tag, want)
	}
	if !bytes.Equal(inflate(t, gz.Body), live.Body.Bytes()) {
		t.Error("gzip replay does not inflate to the streamed bytes")
	}

	// Conditional POSTs always get the body (RFC 9110), so revalidate
	// the entry the way a GET endpoint does.
	req := httptest.NewRequest(http.MethodGet, "/v1/campaign", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	req.Header.Set("If-None-Match", tag)
	w := httptest.NewRecorder()
	serveRendered(w, req, ent)
	if w.Code != http.StatusNotModified || w.Body.Len() != 0 {
		t.Errorf("gzip revalidation: status %d with %dB, want a bodyless 304", w.Code, w.Body.Len())
	}
}

// Concurrent first gzip replays share one compression: every caller
// gets the same backing slice and tag.
func TestConcurrentGzipReplaysShareOneForm(t *testing.T) {
	ent := &renderEntry{body: []byte(strings.Repeat("figure1,SG2042,1.25\n", 200)), ctype: "text/csv"}
	const n = 16
	forms := make([][]byte, n)
	tags := make([]string, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			forms[i], tags[i] = ent.gzipForm()
		}()
	}
	close(start)
	wg.Wait()
	if forms[0] == nil {
		t.Fatal("compressible body got no gzip form")
	}
	for i := 1; i < n; i++ {
		if &forms[i][0] != &forms[0][0] || len(forms[i]) != len(forms[0]) || tags[i] != tags[0] {
			t.Fatalf("replay %d got its own gzip form", i)
		}
	}
}

// Bodies under gzipMinSize and bodies gzip does not shrink are served
// as identity, with the identity ETag, to gzip-accepting clients.
func TestUncompressedBodiesStayIdentity(t *testing.T) {
	noise := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(noise)
	for name, body := range map[string][]byte{
		"small":          bytes.Repeat([]byte("a"), gzipMinSize-1),
		"incompressible": noise,
	} {
		ent := &renderEntry{body: body, ctype: "application/octet-stream"}
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Header.Set("Accept-Encoding", "gzip")
		w := httptest.NewRecorder()
		serveRendered(w, req, ent)
		if enc := w.Header().Get("Content-Encoding"); enc != "" {
			t.Errorf("%s: encoded %q", name, enc)
		}
		if tag := w.Header().Get("ETag"); tag != ent.identityETag() || strings.HasSuffix(tag, `-gzip"`) {
			t.Errorf("%s: ETag %q, want the identity tag %q", name, tag, ent.identityETag())
		}
		if !bytes.Equal(w.Body.Bytes(), body) {
			t.Errorf("%s: body differs", name)
		}
		if gz, _ := ent.gzipForm(); gz != nil {
			t.Errorf("%s: entry kept a gzip form", name)
		}
	}
}

// Reports and sweeps ride the same cache: repeated roofline GETs and
// identical sweep POSTs hit, and sweep ETags revalidate.
func TestReportsAndSweepsCached(t *testing.T) {
	s := New(Options{Parallel: 1})
	a := doGet(t, s, "/v1/roofline/SG2042", nil)
	b := doGet(t, s, "/v1/roofline/SG2042", nil)
	if a.Body.String() != b.Body.String() || b.Header().Get("ETag") == "" {
		t.Error("roofline repeat not served coherently from cache")
	}
	// Different precision is a different entry.
	c := doGet(t, s, "/v1/roofline/SG2042?prec=f32", nil)
	if c.Header().Get("ETag") == a.Header().Get("ETag") {
		t.Error("f32 roofline shares the f64 ETag")
	}

	body := `{"machine":"SG2042","axis":"cores","values":[32,64]}`
	post := func(hdr map[string]string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		return w
	}
	s1 := post(nil)
	if s1.Code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", s1.Code, s1.Body.String())
	}
	etag := s1.Header().Get("ETag")
	if etag == "" {
		t.Fatal("sweep response has no ETag")
	}
	// 304 is a GET/HEAD answer; a conditional POST gets the full body
	// (from the cache) with the same ETag.
	s2 := post(map[string]string{"If-None-Match": etag})
	if s2.Code != http.StatusOK || s2.Body.Len() == 0 {
		t.Errorf("conditional sweep POST: status %d body %dB, want full 200", s2.Code, s2.Body.Len())
	}
	if s2.Header().Get("ETag") != etag || s2.Body.String() != s1.Body.String() {
		t.Error("repeat sweep not served from cache")
	}
	// Fills: roofline f64, roofline f32, sweep. Hits: roofline repeat,
	// sweep repeat.
	hits, misses := s.rc.stats()
	if hits != 2 || misses != 3 {
		t.Errorf("render cache hits/misses = %d/%d, want 2/3", hits, misses)
	}
}

// The /metrics endpoint must expose the render cache counters.
func TestMetricsExposeRenderCache(t *testing.T) {
	s := New(Options{Parallel: 1})
	doGet(t, s, "/v1/experiments/table4", nil)
	doGet(t, s, "/v1/experiments/table4", nil)
	m := doGet(t, s, "/metrics", nil).Body.String()
	for _, want := range []string{
		"sg2042d_render_cache_hits_total 1",
		"sg2042d_render_cache_misses_total 1",
		"sg2042d_render_cache_hit_rate 0.500000",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// A fill error must not be cached: the slot is removed so a later
// request retries instead of replaying a transient failure forever.
func TestRenderCacheDoesNotCacheErrors(t *testing.T) {
	c := newRenderCache()
	calls := 0
	fail := func() ([]byte, string, error) {
		calls++
		return nil, "", fmt.Errorf("boom %d", calls)
	}
	k := renderKey{kind: "experiment", name: "x"}
	if _, err := c.get(k, fail); err == nil {
		t.Fatal("want error")
	}
	if _, err := c.get(k, fail); err == nil {
		t.Fatal("want error on retry")
	}
	if calls != 2 {
		t.Errorf("fill ran %d times, want 2 (errors must not stick)", calls)
	}
	ok := func() ([]byte, string, error) { return []byte("fine"), "text/plain", nil }
	ent, err := c.get(k, ok)
	if err != nil || string(ent.body) != "fine" {
		t.Errorf("recovery fill: %v %q", err, ent.body)
	}
	// Failed fills count toward neither hits nor misses; the recovery
	// fill is the one miss.
	if hits, misses := c.stats(); hits != 0 || misses != 1 {
		t.Errorf("stats after errors = %d/%d, want 0 hits / 1 miss", hits, misses)
	}
}

// At capacity the cache evicts to make room — memory stays bounded
// under client-controlled key spaces (inline sweep specs), while new
// keys keep caching and coalescing.
func TestRenderCacheBounded(t *testing.T) {
	c := newRenderCache()
	fill := func() ([]byte, string, error) { return []byte("body"), "text/plain", nil }
	for i := 0; i < maxRenderEntries+50; i++ {
		if _, err := c.get(renderKey{kind: "sweep", variant: fmt.Sprint(i)}, fill); err != nil {
			t.Fatal(err)
		}
		if n := c.size(); n > maxRenderEntries {
			t.Fatalf("cache grew to %d entries past the %d cap", n, maxRenderEntries)
		}
	}
	// A fresh key past the cap is still cached: the second request is
	// a hit, not a re-render.
	calls := 0
	over := func() ([]byte, string, error) { calls++; return []byte("over"), "text/plain", nil }
	k := renderKey{kind: "sweep", variant: "overflow"}
	for i := 0; i < 2; i++ {
		ent, err := c.get(k, over)
		if err != nil || string(ent.body) != "over" {
			t.Fatalf("overflow get %d: %v %q", i, err, ent.body)
		}
	}
	if calls != 1 {
		t.Errorf("overflow key rendered %d times, want 1 (evict-and-store keeps caching)", calls)
	}
}

func TestEtagMatches(t *testing.T) {
	for _, c := range []struct {
		header, etag string
		want         bool
	}{
		{`"abc"`, `"abc"`, true},
		{`W/"abc"`, `"abc"`, true},
		{`"x", "abc"`, `"abc"`, true},
		{`*`, `"abc"`, true},
		{`"abcd"`, `"abc"`, false},
		{``, `"abc"`, false},
	} {
		if got := etagMatches(c.header, c.etag); got != c.want {
			t.Errorf("etagMatches(%q, %q) = %v, want %v", c.header, c.etag, got, c.want)
		}
	}
}

// The serving hot path must stay allocation-lean: a conditional GET
// writes no body and a cached full GET writes one stored slice. The
// bounds are deliberately loose (net/http header plumbing allocates)
// but catch any reflection- or re-render-sized regression, which costs
// hundreds of allocations.
func TestServeHotPathAllocs(t *testing.T) {
	s := New(Options{Parallel: 1})
	warm := doGet(t, s, "/v1/experiments/figure1", nil)
	etag := warm.Header().Get("ETag")

	req := httptest.NewRequest(http.MethodGet, "/v1/experiments/figure1", nil)
	full := testing.AllocsPerRun(50, func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
	})
	if full > 60 {
		t.Errorf("cached GET allocates %.0f/op, want <= 60", full)
	}

	creq := httptest.NewRequest(http.MethodGet, "/v1/experiments/figure1", nil)
	creq.Header.Set("If-None-Match", etag)
	cond := testing.AllocsPerRun(50, func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, creq)
	})
	if cond > 40 {
		t.Errorf("conditional GET allocates %.0f/op, want <= 40", cond)
	}
	if cond >= full {
		t.Errorf("304 path (%.0f allocs) should be cheaper than the body path (%.0f)", cond, full)
	}
}

// BenchmarkHTTPGetCached is the serving hot path end to end: a warm
// server answering GET /v1/experiments/{name} from the render cache.
func BenchmarkHTTPGetCached(b *testing.B) {
	s := New(Options{Parallel: 1})
	req := httptest.NewRequest(http.MethodGet, "/v1/experiments/figure1", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatal(w.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
	}
}

// BenchmarkHTTPGetConditional is the revalidation path: If-None-Match
// answered with a bodyless 304.
func BenchmarkHTTPGetConditional(b *testing.B) {
	s := New(Options{Parallel: 1})
	first := httptest.NewRecorder()
	s.ServeHTTP(first, httptest.NewRequest(http.MethodGet, "/v1/experiments/figure1", nil))
	req := httptest.NewRequest(http.MethodGet, "/v1/experiments/figure1", nil)
	req.Header.Set("If-None-Match", first.Header().Get("ETag"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
	}
}
