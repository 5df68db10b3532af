package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/memo"
)

// metrics is the server's hand-rolled metrics registry: per-endpoint
// request, error and cumulative-latency counters, rendered in the
// Prometheus text exposition format. The engine's and the render
// cache's stats are read live at render time rather than stored, so
// /metrics never lags the caches.
type metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
	// campaignPoints counts grid points served by the campaign endpoint
	// (cached responses included — the points a client received);
	// campaignStreams counts the responses delivered as NDJSON.
	campaignPoints  uint64
	campaignStreams uint64
	// prewarmEntries/prewarmErrors/prewarmSeconds record the boot-time
	// corpus precompute (Server.Prewarm): renderings filled, fills that
	// errored, and the wall-clock the pass took.
	prewarmEntries uint64
	prewarmErrors  uint64
	prewarmSeconds float64
	// fleetDown counts campaign requests refused because every fabric
	// worker was down (the 502 + Retry-After path) — its own counter,
	// not folded into generic endpoint errors, so an operator can alert
	// on fleet outages without parsing error rates.
	fleetDown uint64
}

type endpointStats struct {
	requests uint64
	errors   uint64 // responses with status >= 400
	seconds  float64
}

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*endpointStats)}
}

// instrument wraps h, timing each request and counting error responses
// under the endpoint label.
func (m *metrics) instrument(endpoint string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		m.observe(endpoint, time.Since(start), sw.status)
	})
}

// setPrewarm records a completed prewarm pass.
func (m *metrics) setPrewarm(entries, errors int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prewarmEntries = uint64(entries)
	m.prewarmErrors = uint64(errors)
	m.prewarmSeconds = d.Seconds()
}

// addFleetDown records one campaign refused with the whole fleet down.
func (m *metrics) addFleetDown() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fleetDown++
}

// addCampaign records one served campaign response.
func (m *metrics) addCampaign(points int, streamed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.campaignPoints += uint64(points)
	if streamed {
		m.campaignStreams++
	}
}

func (m *metrics) observe(endpoint string, d time.Duration, status int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.endpoints[endpoint]
	if st == nil {
		st = &endpointStats{}
		m.endpoints[endpoint] = st
	}
	st.requests++
	if status >= 400 {
		st.errors++
	}
	st.seconds += d.Seconds()
}

// render emits the registry in the Prometheus text format, folding in
// the engine cache and render cache stats, the readiness gauge, and
// — when the server coordinates a fabric — the fleet's self-healing
// stats. Endpoints are sorted so the output is stable.
func (m *metrics) render(engine, render memo.Stats, ready bool, fs *fabric.FabricStats) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder

	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	b.WriteString("# HELP sg2042d_requests_total HTTP requests served, by endpoint.\n")
	b.WriteString("# TYPE sg2042d_requests_total counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "sg2042d_requests_total{endpoint=%q} %d\n", name, m.endpoints[name].requests)
	}
	b.WriteString("# HELP sg2042d_request_errors_total HTTP responses with status >= 400, by endpoint.\n")
	b.WriteString("# TYPE sg2042d_request_errors_total counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "sg2042d_request_errors_total{endpoint=%q} %d\n", name, m.endpoints[name].errors)
	}
	b.WriteString("# HELP sg2042d_request_seconds_total Cumulative request latency in seconds, by endpoint.\n")
	b.WriteString("# TYPE sg2042d_request_seconds_total counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "sg2042d_request_seconds_total{endpoint=%q} %.6f\n", name, m.endpoints[name].seconds)
	}

	for _, c := range []struct {
		name, what string
		s          memo.Stats
	}{
		{"engine", "suite evaluations (engine cache)", engine},
		{"render", "rendered responses (render cache)", render},
	} {
		p := "sg2042d_" + c.name + "_cache_"
		fmt.Fprintf(&b, "# HELP %shits_total Lookups of %s served from the cache.\n", p, c.what)
		fmt.Fprintf(&b, "# TYPE %shits_total counter\n%shits_total %d\n", p, p, c.s.Hits)
		fmt.Fprintf(&b, "# HELP %smisses_total Lookups of %s computed on a miss.\n", p, c.what)
		fmt.Fprintf(&b, "# TYPE %smisses_total counter\n%smisses_total %d\n", p, p, c.s.Misses)
		rate := 0.0
		if total := c.s.Hits + c.s.Misses; total > 0 {
			rate = float64(c.s.Hits) / float64(total)
		}
		fmt.Fprintf(&b, "# HELP %shit_rate Fraction of lookups of %s served from the cache.\n", p, c.what)
		fmt.Fprintf(&b, "# TYPE %shit_rate gauge\n%shit_rate %.6f\n", p, p, rate)
		fmt.Fprintf(&b, "# HELP %sevictions_total Entries of %s evicted at the cap.\n", p, c.what)
		fmt.Fprintf(&b, "# TYPE %sevictions_total counter\n%sevictions_total %d\n", p, p, c.s.Evictions)
		fmt.Fprintf(&b, "# HELP %sentries Live entries of %s.\n", p, c.what)
		fmt.Fprintf(&b, "# TYPE %sentries gauge\n%sentries %d\n", p, p, c.s.Entries)
	}

	b.WriteString("# HELP sg2042d_campaign_points_total Campaign grid points served (cached responses included).\n")
	b.WriteString("# TYPE sg2042d_campaign_points_total counter\n")
	fmt.Fprintf(&b, "sg2042d_campaign_points_total %d\n", m.campaignPoints)
	b.WriteString("# HELP sg2042d_campaign_streams_total Campaign responses delivered as NDJSON streams.\n")
	b.WriteString("# TYPE sg2042d_campaign_streams_total counter\n")
	fmt.Fprintf(&b, "sg2042d_campaign_streams_total %d\n", m.campaignStreams)

	b.WriteString("# HELP sg2042d_fabric_fleet_down_total Campaign requests refused because every fabric worker was down.\n")
	b.WriteString("# TYPE sg2042d_fabric_fleet_down_total counter\n")
	fmt.Fprintf(&b, "sg2042d_fabric_fleet_down_total %d\n", m.fleetDown)

	if fs != nil {
		b.WriteString("# HELP sg2042d_fabric_probe_deaths_total Worker live-to-dead transitions observed by the health prober.\n")
		b.WriteString("# TYPE sg2042d_fabric_probe_deaths_total counter\n")
		fmt.Fprintf(&b, "sg2042d_fabric_probe_deaths_total %d\n", fs.ProbeDeaths)
		b.WriteString("# HELP sg2042d_fabric_probe_revivals_total Worker dead-to-live transitions (rejoins) observed by the health prober.\n")
		b.WriteString("# TYPE sg2042d_fabric_probe_revivals_total counter\n")
		fmt.Fprintf(&b, "sg2042d_fabric_probe_revivals_total %d\n", fs.ProbeRevivals)
		b.WriteString("# HELP sg2042d_fabric_worker_up Whether each fabric worker is currently live in the ring.\n")
		b.WriteString("# TYPE sg2042d_fabric_worker_up gauge\n")
		for _, ms := range fs.Members {
			up := 0
			if ms.Live {
				up = 1
			}
			fmt.Fprintf(&b, "sg2042d_fabric_worker_up{target=%q} %d\n", ms.Target, up)
		}
	}

	b.WriteString("# HELP sg2042d_prewarm_ready Whether the server is ready for traffic (prewarm complete, or prewarm not requested).\n")
	b.WriteString("# TYPE sg2042d_prewarm_ready gauge\n")
	readyVal := 0
	if ready {
		readyVal = 1
	}
	fmt.Fprintf(&b, "sg2042d_prewarm_ready %d\n", readyVal)
	b.WriteString("# HELP sg2042d_prewarm_entries_total Renderings filled by the boot-time prewarm pass.\n")
	b.WriteString("# TYPE sg2042d_prewarm_entries_total counter\n")
	fmt.Fprintf(&b, "sg2042d_prewarm_entries_total %d\n", m.prewarmEntries)
	b.WriteString("# HELP sg2042d_prewarm_errors_total Prewarm fills that errored (the corpus entry stays cold).\n")
	b.WriteString("# TYPE sg2042d_prewarm_errors_total counter\n")
	fmt.Fprintf(&b, "sg2042d_prewarm_errors_total %d\n", m.prewarmErrors)
	b.WriteString("# HELP sg2042d_prewarm_seconds Wall-clock seconds the prewarm pass took.\n")
	b.WriteString("# TYPE sg2042d_prewarm_seconds gauge\n")
	fmt.Fprintf(&b, "sg2042d_prewarm_seconds %.6f\n", m.prewarmSeconds)
	return b.String()
}

// statusWriter records the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}
