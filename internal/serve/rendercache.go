package serve

// Rendered-response cache. The engine is deterministic — the
// determinism contract (docs/ARCHITECTURE.md) guarantees that one
// (experiment|report|sweep, machine, format) tuple always renders to
// the same bytes — so the server can cache entire response bodies, not
// just the suite evaluations behind them. A fill stores only the
// rendered body and its content type; the strong ETag over it and (for
// bodies worth compressing) a gzip form are built on the first replay
// that needs them, once per entry, so a body that is rendered and
// never replayed costs no hashing or compression. Repeat GETs cost a
// map lookup and one write; conditional requests (If-None-Match) cost a
// 304 with no body at all. The cache is an internal/memo instance, so
// concurrent first requests coalesce exactly like the engine's suite
// cache. docs/PERFORMANCE.md documents the semantics.

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/memo"
)

// renderKey identifies one cacheable rendering.
type renderKey struct {
	// kind is the endpoint family: "experiment", "roofline", "cluster"
	// or "sweep".
	kind string
	// name is the experiment name or machine label, verbatim (it can
	// appear in the rendered body, so no canonicalization here beyond
	// what the handler itself does).
	name string
	// variant canonicalizes the remaining parameters (precision,
	// network, grid, node list, sweep axis/values/threads/placement and
	// the base machine's fingerprint).
	variant string
	format  format
}

// renderEntry is one cached rendering. body and ctype never change;
// the other representations are derived from body on first use, each
// under its own sync.Once, so concurrent replays share one computation.
type renderEntry struct {
	body  []byte
	ctype string

	etagOnce sync.Once
	etag     string // strong ETag over body

	gzipOnce sync.Once
	// gzipped/etagGzip are set when compression pays; the gzip
	// representation gets its own ETag ("...-gzip"), nginx-style, so
	// each representation revalidates against the exact bytes it serves.
	gzipped  []byte
	etagGzip string
}

// maxRenderEntries bounds the cache. The fixed key space (experiments
// x formats, reports per machine and parameter set) is far below it;
// what it defends against is the client-controlled key spaces (sweep
// specs, cluster grid/node parameters) — an inline custom machine spec
// makes every tweaked request a distinct key, and without a bound a
// long-running daemon would retain every rendered body it ever
// produced. At the cap an arbitrary entry is evicted for each new one,
// so caching and request coalescing keep working under churn (an
// evicted hot entry just re-renders on its next request) while memory
// stays bounded.
const maxRenderEntries = 1024

// renderCache memoizes rendered responses for one Server (see
// internal/memo).
type renderCache struct {
	m *memo.Cache[renderKey, *renderEntry]
}

func newRenderCache() *renderCache {
	return &renderCache{memo.New[renderKey, *renderEntry](maxRenderEntries, func(k renderKey) uint64 {
		// kind and format have few values; name and variant carry the
		// entropy for the client-controlled key spaces.
		h := memo.MixString(memo.Offset, k.kind)
		h = memo.MixString(h, k.name)
		h = memo.MixString(h, k.variant)
		return memo.Mix(h, uint64(k.format))
	})}
}

// get returns the cached rendering for k, filling it once via fill on
// first request. Concurrent first requests share one fill; a fill
// error is returned to every waiter but not cached.
func (c *renderCache) get(k renderKey, fill func() (body []byte, ctype string, err error)) (*renderEntry, error) {
	return c.m.Get(k, func() (*renderEntry, error) {
		body, ctype, err := fill()
		if err != nil {
			return nil, err
		}
		return &renderEntry{body: body, ctype: ctype}, nil
	})
}

// stats reports lookups served from the cache vs renders computed.
func (c *renderCache) stats() (hits, misses uint64) {
	s := c.m.Stats()
	return s.Hits, s.Misses
}

// size reports the live entry count (tests use it to check the bound).
func (c *renderCache) size() int { return int(c.m.Stats().Entries) }

// gzipMinSize is the smallest body worth compressing: below this the
// gzip header/trailer overhead eats the gain and tiny responses are
// cheap to send anyway.
const gzipMinSize = 512

// gzipPool recycles gzip writers across entries — each Reset reuses
// the writer's internal deflate state instead of reallocating its
// ~1.4MB of window buffers.
var gzipPool = sync.Pool{
	New: func() any {
		w, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
		return w
	},
}

// identityETag returns the strong ETag over the body, hashing it on
// the first call.
func (e *renderEntry) identityETag() string {
	e.etagOnce.Do(func() {
		sum := sha256.Sum256(e.body)
		e.etag = `"` + hex.EncodeToString(sum[:16]) + `"`
	})
	return e.etag
}

// gzipForm returns the gzip representation and its ETag, compressing
// the body on the first call; nil when the body is under gzipMinSize
// or gzip does not shrink it (the identity body is served instead).
func (e *renderEntry) gzipForm() ([]byte, string) {
	e.gzipOnce.Do(func() {
		if len(e.body) < gzipMinSize {
			return
		}
		var buf bytes.Buffer
		zw := gzipPool.Get().(*gzip.Writer)
		zw.Reset(&buf)
		_, err := zw.Write(e.body)
		if cerr := zw.Close(); err == nil {
			err = cerr
		}
		gzipPool.Put(zw)
		if err == nil && buf.Len() < len(e.body) {
			tag := e.identityETag()
			e.gzipped = buf.Bytes()
			e.etagGzip = tag[:len(tag)-1] + `-gzip"`
		}
	})
	return e.gzipped, e.etagGzip
}

// serveRendered writes a cached entry: a 304 when the client already
// holds the representation, the gzip bytes when the client accepts
// them and compression pays, the identity body otherwise.
func serveRendered(w http.ResponseWriter, r *http.Request, ent *renderEntry) {
	h := w.Header()
	// These responses are negotiated from request headers (the body
	// format from Accept, the encoding from Accept-Encoding), and the
	// ETag makes them attractive to downstream caches — Vary tells
	// those caches which headers select the representation.
	h.Add("Vary", "Accept")
	h.Add("Vary", "Accept-Encoding")
	body, etag, enc := ent.body, "", ""
	if acceptsGzip(r) {
		if gz, gzTag := ent.gzipForm(); gz != nil {
			body, etag, enc = gz, gzTag, "gzip"
		}
	}
	if enc == "" {
		etag = ent.identityETag()
	}
	h.Set("ETag", etag)
	// RFC 9110 defines the 304 answer to If-None-Match for GET/HEAD
	// only; on other methods (the sweep POST) the header is ignored
	// and the full body served — the ETag still lets clients detect
	// an unchanged result.
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		if etagMatches(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	h.Set("Content-Type", ent.ctype)
	if enc != "" {
		h.Set("Content-Encoding", enc)
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// etagMatches implements If-None-Match for a strong ETag: a list of
// entity tags (or "*"), compared weakly — a W/ prefix on the client's
// copy still matches, as RFC 9110 prescribes for If-None-Match.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		if c == "*" || c == etag || strings.TrimPrefix(c, "W/") == etag {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the request's Accept-Encoding admits
// gzip (an explicit q=0 opts out).
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, q, hasQ := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(coding), "gzip") {
			continue
		}
		if hasQ {
			q = strings.TrimPrefix(strings.TrimSpace(q), "q=")
			if v, err := strconv.ParseFloat(q, 64); err == nil && v == 0 {
				return false
			}
		}
		return true
	}
	return false
}
