package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
)

// span is one timed interval at a layer boundary. Op is the request ID:
// every span of one benchmark operation carries the same one.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts made at the same boundary.
	Worker  int   `json:"worker,omitempty"` // 1-based worker index
	Bytes   int64 `json:"bytes,omitempty"`
	Flushes int64 `json:"flushes,omitempty"`
	Frames  int64 `json:"frames,omitempty"`
	Evals   int64 `json:"evals,omitempty"`
	Points  int64 `json:"points,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The benchmark is a
// closed loop with one client, so one chain of spans is open at a
// time: op is the current operation and parent the innermost open
// span, which server-side middleware adopts as its parent.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	op     atomic.Int64
	parent atomic.Int64
	// off pauses the middleware, so traced and untraced operations can
	// interleave on the same servers and measure the tracing overhead.
	off atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// begin opens a span named name as the innermost open span.
func (tr *tracer) begin(name string) span {
	s := span{Name: name, ID: tr.nextID.Add(1), Parent: tr.parent.Load(), Op: tr.op.Load()}
	tr.parent.Store(s.ID)
	s.Start = tr.now()
	return s
}

// finish closes s (now, unless its end is already set) and keeps it.
func (tr *tracer) finish(s span) span {
	if s.End == 0 {
		s.End = tr.now()
	}
	tr.parent.Store(s.Parent)
	tr.add(s)
	return s
}

// timed runs f inside a span named name and returns the span.
func (tr *tracer) timed(name string, f func() error) (span, error) {
	s := tr.begin(name)
	err := f()
	return tr.finish(s), err
}

// middleware records a span named name around every request whose
// path keep accepts, counting the bytes written and the flushes. With
// frames set it also counts the length-prefixed fabric frames in the
// body. worker is the 1-based worker index, 0 for a front daemon.
func (tr *tracer) middleware(name string, worker int, frames bool, keep func(path string) bool) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tr.off.Load() || !keep(r.URL.Path) {
				h.ServeHTTP(w, r)
				return
			}
			s := span{Name: name, ID: tr.nextID.Add(1), Parent: tr.parent.Load(), Op: tr.op.Load(), Worker: worker}
			cw := &countingWriter{ResponseWriter: w}
			if frames {
				cw.fc = &frameCounter{}
			}
			if worker == 0 {
				tr.parent.Store(s.ID)
			}
			s.Start = tr.now()
			h.ServeHTTP(cw, r)
			s.End = tr.now()
			if worker == 0 {
				tr.parent.Store(s.Parent)
			}
			s.Bytes, s.Flushes, s.Frames = cw.bytes.Load(), cw.flushes.Load(), cw.frames.Load()
			tr.add(s)
		})
	}
}

// workerMiddleware records a "fabric.worker" span, with its frame
// counts, around worker i's points handler.
func (tr *tracer) workerMiddleware(i int) func(http.Handler) http.Handler {
	return tr.middleware("fabric.worker", i+1, true, func(p string) bool { return p == fabric.PointsPath })
}

// countingWriter counts what a handler writes. fabric.Worker writes
// and flushes from the engine's pool goroutines, one at a time, so the
// counters are atomic and Flush is forwarded.
type countingWriter struct {
	http.ResponseWriter
	bytes, flushes, frames atomic.Int64
	fc                     *frameCounter
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes.Add(int64(n))
	if w.fc != nil {
		w.frames.Add(w.fc.feed(p[:n]))
	}
	return n, err
}

func (w *countingWriter) Flush() {
	w.flushes.Add(1)
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// frameCounter follows a stream of uvarint-length-prefixed frames (the
// fabric's point stream) across arbitrary write boundaries.
type frameCounter struct {
	mu    sync.Mutex
	skip  uint64 // payload bytes of the current frame still to come
	size  uint64 // length prefix decoded so far
	shift uint
}

// feed consumes p and returns the number of frames it completed.
func (f *frameCounter) feed(p []byte) (frames int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(p) > 0 {
		if f.skip > 0 {
			n := min(uint64(len(p)), f.skip)
			p, f.skip = p[n:], f.skip-n
			if f.skip == 0 {
				frames++
			}
			continue
		}
		b := p[0]
		p = p[1:]
		f.size |= uint64(b&0x7f) << f.shift
		f.shift += 7
		if b < 0x80 {
			f.skip, f.size, f.shift = f.size, 0, 0
			if f.skip == 0 {
				frames++
			}
		}
	}
	return frames
}

// write stores every span as one JSON line in dir/name.
func (tr *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	tr.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// byOp groups the spans of operations op >= 1 (op 0 is a warm-up or
// untraced) by operation and name.
func (tr *tracer) byOp() map[int64]map[string][]span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := map[int64]map[string][]span{}
	for _, s := range tr.spans {
		if s.Op < 1 {
			continue
		}
		if out[s.Op] == nil {
			out[s.Op] = map[string][]span{}
		}
		out[s.Op][s.Name] = append(out[s.Op][s.Name], s)
	}
	return out
}
