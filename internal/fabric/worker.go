package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro"
)

// pointsRequest is the body of POST /v1/fabric/points: the client's
// campaign spec, verbatim, plus the grid indices this worker should
// evaluate. The worker re-expands the spec itself — the grid is a pure
// function of the spec, so coordinator and worker agree on what each
// index means without ever shipping expanded machines. Model is the
// coordinator's model fingerprint; a worker running a different model
// refuses the request with 409 Conflict.
type pointsRequest struct {
	Spec   json.RawMessage `json:"spec"`
	Points []int           `json:"points"`
	Model  string          `json:"model"`
}

// maxRequestBytes bounds a points or warm request body: a spec as large
// as the public surface accepts, every one of MaxCampaignPoints indices
// (at most four digits and a comma each), and a KiB for the keys and
// the model fingerprint.
const maxRequestBytes = repro.MaxSpecBytes + repro.MaxCampaignPoints*5 + 1<<10

// Worker serves the shard-scoped campaign API. It wraps the same
// engine the node's ordinary serving surface uses, so shard points
// memoize into — and warm-restart from — the one suite cache.
type Worker struct {
	eng *repro.Engine
	reg *repro.MachineRegistry
	// client performs warm-join snapshot pulls from peers
	// (ServeWarm); tests may swap it.
	client *http.Client
	// model is the fingerprint a coordinator must present
	// (modelFingerprint; tests may swap it).
	model string
}

// NewWorker wraps an engine and registry (nil reg means the default
// registry) as a shard worker.
func NewWorker(eng *repro.Engine, reg *repro.MachineRegistry) *Worker {
	if reg == nil {
		reg = repro.DefaultMachineRegistry()
	}
	return &Worker{
		eng: eng,
		reg: reg,
		// Snapshot pulls are a few MB of local traffic at worst; a
		// bounded client keeps a hung peer from wedging a warm-join.
		client: &http.Client{Timeout: 30 * time.Second},
		model:  modelFingerprint(),
	}
}

// ServeHTTP answers POST /v1/fabric/points, streaming one frame per
// evaluated point in completion order, not grid order — the
// coordinator owns ordering. It flushes each frame only if w is an
// http.Flusher, which serve's metrics middleware is not. Spec, model
// and index validation happen before the first frame, so protocol
// errors are clean JSON with a real status code; a failure after
// streaming starts tears the stream, which the coordinator treats like
// a dead worker.
//
// Points are evaluated and encoded on the engine's pool goroutines,
// which hand the frame bodies over a channel; only this goroutine
// touches w, so a panic while writing (http.ErrAbortHandler included)
// stays on the goroutine net/http recovers.
func (wk *Worker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		workerError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	var req pointsRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		workerError(w, http.StatusBadRequest, fmt.Errorf("decoding points request: %w", err))
		return
	}
	if err := wk.checkModel(req.Model); err != nil {
		workerError(w, http.StatusConflict, err)
		return
	}
	if len(req.Spec) == 0 {
		workerError(w, http.StatusBadRequest, fmt.Errorf("points request has no spec"))
		return
	}
	spec, err := repro.CampaignSpecFromJSON(req.Spec, wk.reg)
	if err != nil {
		status := http.StatusBadRequest
		var unknown *repro.UnknownMachineError
		if errors.As(err, &unknown) {
			status = http.StatusNotFound
		}
		workerError(w, status, err)
		return
	}
	n := spec.Points()
	if len(req.Points) == 0 {
		workerError(w, http.StatusBadRequest, fmt.Errorf("points request selects no points"))
		return
	}
	seen := make(map[int]bool, len(req.Points))
	for _, i := range req.Points {
		if i < 0 || i >= n {
			workerError(w, http.StatusBadRequest,
				fmt.Errorf("point %d out of range (grid has %d points)", i, n))
			return
		}
		if seen[i] {
			workerError(w, http.StatusBadRequest, fmt.Errorf("point %d requested twice", i))
			return
		}
		seen[i] = true
	}

	w.Header().Set("Content-Type", ContentType)
	w.Header().Set("X-Content-Type-Options", "nosniff")
	flusher, _ := w.(http.Flusher)

	// A few frames of slack let evaluation run ahead of a slow write
	// while holding at most a few KB per request.
	frames := make(chan []byte, 16)
	stop := make(chan struct{})
	var evalErr error
	go func() {
		defer close(frames)
		evalErr = wk.eng.CampaignPoints(spec, req.Points, func(p repro.CampaignPoint) error {
			body, err := encodeFrame(p)
			if err != nil {
				return err
			}
			select {
			case frames <- body:
				return nil
			case <-stop:
				return errStreamClosed
			}
		})
	}()
	// However this handler exits, a write panic included, stop the
	// evaluation and wait for its goroutine, so no work outlives the
	// request.
	defer func() {
		close(stop)
		for range frames {
		}
	}()
	for body := range frames {
		if err := writeFrame(w, body); err != nil {
			panic(http.ErrAbortHandler)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if evalErr != nil {
		// The stream is already open: tear the connection so the
		// coordinator sees a hard failure, not a clean short stream.
		panic(http.ErrAbortHandler)
	}
}

// errStreamClosed stops an evaluation whose response stream is gone.
var errStreamClosed = errors.New("fabric: points stream closed")

// checkModel refuses a coordinator whose model fingerprint differs
// from the worker's: its points would not be the coordinator's points.
func (wk *Worker) checkModel(model string) error {
	if model != wk.model {
		return fmt.Errorf("model fingerprint mismatch: coordinator %q, worker %q", model, wk.model)
	}
	return nil
}

// Register mounts every worker endpoint on a mux.
func (wk *Worker) Register(mux *http.ServeMux) {
	mux.Handle(PointsPath, wk)
	mux.HandleFunc(HealthPath, wk.ServeHealth)
	mux.HandleFunc(SnapshotPath, wk.ServeSnapshot)
	mux.HandleFunc(WarmPath, wk.ServeWarm)
}

// ServeHealth answers the fabric readiness probe. A worker that can
// run this handler can serve shard traffic, so the answer is 200 —
// warmth is a performance property, not a liveness one — unless the
// probe carries a ?model= fingerprint that differs from the worker's,
// which answers 409 Conflict: such a worker is up but must not serve.
func (wk *Worker) ServeHealth(w http.ResponseWriter, r *http.Request) {
	if model := r.URL.Query().Get("model"); model != "" {
		if err := wk.checkModel(model); err != nil {
			workerError(w, http.StatusConflict, err)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ServeSnapshot answers GET /v1/fabric/snapshot?arc=lo-hi,...: the
// worker's suite-cache entries whose machine fingerprints the arcs
// contain, in the core snapshot wire format. Without an arc parameter
// the full cache is returned. The body is deterministic for a given
// cache state (entries sort by canonical key), so two peers holding
// the same entries ship identical bytes.
func (wk *Worker) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		workerError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	arcs, err := ParseArcs(r.URL.Query().Get("arc"))
	if err != nil {
		workerError(w, http.StatusBadRequest, err)
		return
	}
	var keep func(uint64) bool
	if len(arcs) > 0 {
		keep = func(fp uint64) bool {
			for _, a := range arcs {
				if a.Contains(fp) {
					return true
				}
			}
			return false
		}
	}
	data, err := wk.eng.SnapshotCacheIf(keep)
	if err != nil {
		workerError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", SnapshotContentType)
	w.Header().Set("X-Content-Type-Options", "nosniff")
	_, _ = w.Write(data)
}

// warmRequest is the body of POST /v1/fabric/warm: the peers to pull
// from and the arcs (FormatArcs encoding) this worker should warm.
type warmRequest struct {
	Peers []string `json:"peers"`
	Arc   string   `json:"arc"`
}

// warmResponse reports a warm-join pull: entries installed into the
// cache, peers successfully pulled, and per-peer failures (best
// effort — a dead peer costs warmth, not correctness).
type warmResponse struct {
	Installed int      `json:"installed"`
	Peers     int      `json:"peers"`
	Errors    []string `json:"errors,omitempty"`
}

// ServeWarm answers POST /v1/fabric/warm by pulling the named arcs'
// snapshot from each peer and installing the entries into the
// worker's own suite cache (already-cached keys are skipped). Failures
// against individual peers are reported but not fatal: a warm-join is
// an optimization, and a worker that could not warm simply evaluates
// its shard cold, bit-identically.
func (wk *Worker) ServeWarm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		workerError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	var req warmRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		workerError(w, http.StatusBadRequest, fmt.Errorf("decoding warm request: %w", err))
		return
	}
	if _, err := ParseArcs(req.Arc); err != nil {
		workerError(w, http.StatusBadRequest, err)
		return
	}
	resp := warmResponse{}
	for _, peer := range req.Peers {
		n, err := wk.pullSnapshot(r.Context(), peer, req.Arc)
		if err != nil {
			resp.Errors = append(resp.Errors, fmt.Sprintf("%s: %v", peer, err))
			continue
		}
		resp.Peers++
		resp.Installed += n
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(resp)
}

// pullSnapshot fetches one peer's arc-filtered snapshot and installs
// it. The client names the peer, so the read stops at the largest
// snapshot an honest peer's full cache can produce.
func (wk *Worker) pullSnapshot(ctx context.Context, peer, arc string) (int, error) {
	u := peer + SnapshotPath
	if arc != "" {
		u += "?arc=" + url.QueryEscape(arc)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := wk.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("peer answered %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	tooLarge := fmt.Errorf("peer snapshot exceeds %d bytes", repro.MaxSnapshotBytes)
	if resp.ContentLength > repro.MaxSnapshotBytes {
		return 0, tooLarge
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, repro.MaxSnapshotBytes+1))
	if err != nil {
		return 0, err
	}
	if len(data) > repro.MaxSnapshotBytes {
		return 0, tooLarge
	}
	return wk.eng.RestoreCache(data)
}

// workerError answers a pre-stream failure as the same JSON error
// envelope the ordinary serving surface uses.
func workerError(w http.ResponseWriter, status int, err error) {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(map[string]string{"error": err.Error()})
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}
