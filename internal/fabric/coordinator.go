package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
)

// DefaultPointTimeout is the per-frame watchdog: how long the
// coordinator waits for a worker's next point before declaring it
// hung. It is generous — a point is milliseconds of model evaluation —
// because firing it costs re-evaluating the worker's outstanding
// shard elsewhere.
const DefaultPointTimeout = 60 * time.Second

// AllWorkersDownError reports a campaign that cannot complete because
// every worker has been excluded. Failures maps each worker to why it
// was excluded. The HTTP layer answers it with 502 Bad Gateway and a
// Retry-After hint — the fleet may heal.
type AllWorkersDownError struct {
	Failures map[string]string
}

func (e *AllWorkersDownError) Error() string {
	parts := make([]string, 0, len(e.Failures))
	for t := range e.Failures {
		parts = append(parts, t)
	}
	sort.Strings(parts)
	for i, t := range parts {
		parts[i] = fmt.Sprintf("%s: %s", t, e.Failures[t])
	}
	return "fabric: all workers down (" + strings.Join(parts, "; ") + ")"
}

// FabricStats is a point-in-time view of the coordinator's self-healing
// machinery, rendered into /metrics.
type FabricStats struct {
	ProbeDeaths   uint64 // live→dead transitions observed by the prober
	ProbeRevivals uint64 // dead→live transitions (rejoins)
	Members       []MemberStatus
}

// Coordinator shards campaigns over a dynamic fleet of workers. Fleet
// state lives in a Membership shared with the health prober, so a
// worker that dies mid-campaign is excluded, and one that recovers
// takes its arcs back without a coordinator restart.
// Campaign state itself stays per-Run: each Run re-expands the grid,
// assigns points by consistent hash on the machine fingerprint, and
// holds its own exactly-once bookkeeping.
type Coordinator struct {
	mem    *Membership
	reg    *repro.MachineRegistry
	client *http.Client

	// PointTimeout overrides DefaultPointTimeout (tests shrink it).
	PointTimeout time.Duration

	mu     sync.Mutex
	prober *Prober
	stats  FabricStats // Members filled in by Stats()
}

// NewCoordinator builds a coordinator over worker base URLs
// ("http://host:port"). nil reg means the default registry; nil client
// means http.DefaultClient.
func NewCoordinator(targets []string, reg *repro.MachineRegistry, client *http.Client) (*Coordinator, error) {
	mem, err := NewMembership(targets)
	if err != nil {
		return nil, err
	}
	if reg == nil {
		reg = repro.DefaultMachineRegistry()
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &Coordinator{
		mem:    mem,
		reg:    reg,
		client: client,
	}, nil
}

// Membership exposes the fleet state (status surfaces, tests).
func (c *Coordinator) Membership() *Membership { return c.mem }

// Stats snapshots the self-healing counters and per-member state.
func (c *Coordinator) Stats() FabricStats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	s.Members = c.mem.Status()
	return s
}

// StartProber launches health probing over the fleet: every worker is
// probed on cfg's cadence, dying and reviving in the shared Membership.
// A revived worker rejoins cold: it evaluates its arcs again, filling
// its own suite cache as it goes. Call StopProber (or cancel ctx) to
// stop.
func (c *Coordinator) StartProber(ctx context.Context, cfg ProbeConfig) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prober != nil {
		return
	}
	c.prober = NewProber(c.mem, cfg, nil, c.onProbeTransition)
	c.prober.Start(ctx)
}

// StopProber stops the health prober and waits for its loops to exit.
func (c *Coordinator) StopProber() {
	c.mu.Lock()
	p := c.prober
	c.mu.Unlock()
	if p != nil {
		p.Stop()
	}
}

// onProbeTransition is the prober's callback: it counts deaths and
// revivals.
func (c *Coordinator) onProbeTransition(target string, live bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if live {
		c.stats.ProbeRevivals++
	} else {
		c.stats.ProbeDeaths++
	}
}

// workerMsg is one event from a request goroutine: an evaluated
// point, or the request's end (err nil on a clean stream end).
type workerMsg struct {
	reqID  int
	target string
	done   bool
	err    error
	point  repro.CampaignPoint
}

// Run evaluates the campaign described by specJSON (the verbatim
// client spec; the same bytes are forwarded to workers) across the
// fleet, calling emit once per point in grid order — exactly-once,
// duplicates and late arrivals discarded — and returns the assembled
// result.
//
// Each point goes to its ring owner. A worker that errors (a refused
// model fingerprint and a failed frame checksum included), stalls, or
// ends its stream with points missing is excluded for the rest of the
// run and its outstanding points re-dispatched. Re-dispatch consults
// the live Membership, so a worker the prober has revived since its
// failure takes its arcs back mid-campaign. Run fails with
// *AllWorkersDownError only when no worker remains.
func (c *Coordinator) Run(ctx context.Context, specJSON []byte, emit func(repro.CampaignPoint) error) (repro.CampaignResult, error) {
	spec, err := repro.CampaignSpecFromJSON(specJSON, c.reg)
	if err != nil {
		return repro.CampaignResult{}, err
	}
	return c.RunSpec(ctx, spec, specJSON, emit)
}

// RunSpec is Run for a caller that has already parsed specJSON with
// repro.CampaignSpecFromJSON against the coordinator's registry; spec
// must be that parse. The HTTP surface parses every request body to
// answer spec errors itself, so it hands the spec over instead of
// having it parsed, and its plan compiled, a second time.
func (c *Coordinator) RunSpec(ctx context.Context, spec repro.CampaignSpec, specJSON []byte, emit func(repro.CampaignPoint) error) (repro.CampaignResult, error) {
	fps, err := spec.Fingerprints()
	if err != nil {
		return repro.CampaignResult{}, err
	}
	n := len(fps)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		msgs        = make(chan workerMsg, 16)
		runFailed   = map[string]int{}    // target -> membership epoch at run-local failure
		failures    = map[string]string{} // target -> why it was excluded
		outstanding = map[int]map[int]bool{}
		nextReq     = 0
		points      = make([]repro.CampaignPoint, n)
		have        = make([]bool, n)
		received    = 0
		nextEmit    = 0
	)

	// exclusion merges the fleet's dead set with this run's local
	// failures — except failures whose worker the prober has revived
	// since (epoch bumped), which are forgiven so the revived worker
	// rejoins mid-campaign.
	exclusion := func() map[string]bool {
		exc := c.mem.DeadSet()
		for t, ep := range runFailed {
			if c.mem.Epoch(t) == ep {
				exc[t] = true
			}
		}
		return exc
	}

	// assign dispatches each index to its live ring owner, one request
	// per owner. It fails only when no worker is left.
	assign := func(indices []int) error {
		exc := exclusion()
		ring := c.mem.Ring()
		byTarget := map[string][]int{}
		for _, i := range indices {
			owner, err := ring.Owner(fps[i], exc)
			if err != nil {
				return &AllWorkersDownError{Failures: failures}
			}
			byTarget[owner] = append(byTarget[owner], i)
		}
		targets := make([]string, 0, len(byTarget))
		for t := range byTarget {
			targets = append(targets, t)
		}
		sort.Strings(targets)
		for _, t := range targets {
			nextReq++
			set := make(map[int]bool, len(byTarget[t]))
			for _, i := range byTarget[t] {
				set[i] = true
			}
			outstanding[nextReq] = set
			go c.runRequest(ctx, nextReq, t, specJSON, byTarget[t], msgs)
		}
		return nil
	}

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if err := assign(all); err != nil {
		return repro.CampaignResult{}, err
	}

	for received < n {
		var m workerMsg
		select {
		case <-ctx.Done():
			return repro.CampaignResult{}, ctx.Err()
		case m = <-msgs:
		}
		set, known := outstanding[m.reqID]
		if !known {
			continue // a late message from a request already retired
		}
		if !m.done {
			i := m.point.Index
			if i < 0 || i >= n || !set[i] || have[i] {
				// Not a point this request owes, or a duplicate of one
				// already received: discard. (A worker sending indices
				// it was never asked for is misbehaving, but the grid
				// stays exactly-once either way.)
				continue
			}
			delete(set, i)
			points[i] = m.point
			have[i] = true
			received++
			for nextEmit < n && have[nextEmit] {
				if emit != nil {
					if err := emit(points[nextEmit]); err != nil {
						return repro.CampaignResult{}, err
					}
				}
				nextEmit++
			}
			continue
		}
		// Request ended. Clean end with nothing outstanding: retire it.
		// Anything else — transport error, decode error, timeout, or a
		// clean end that still owes points — excludes the worker for
		// this run and re-dispatches what it owed.
		delete(outstanding, m.reqID)
		if m.err == nil && len(set) == 0 {
			continue
		}
		runFailed[m.target] = c.mem.Epoch(m.target)
		if m.err != nil {
			failures[m.target] = m.err.Error()
		} else {
			failures[m.target] = fmt.Sprintf("stream ended with %d points missing", len(set))
		}
		missing := make([]int, 0, len(set))
		for i := range set {
			missing = append(missing, i)
		}
		sort.Ints(missing)
		if err := assign(missing); err != nil {
			return repro.CampaignResult{}, err
		}
	}

	return repro.AssembleCampaignResult(spec, points)
}

// runRequest performs one shard request, forwarding each decoded point
// and finally a done message. A per-frame watchdog cancels the request
// if the worker goes longer than PointTimeout without producing a
// frame.
func (c *Coordinator) runRequest(ctx context.Context, id int, target string, specJSON []byte, indices []int, msgs chan<- workerMsg) {
	send := func(m workerMsg) bool {
		select {
		case msgs <- m:
			return true
		case <-ctx.Done():
			return false
		}
	}
	fail := func(err error) {
		send(workerMsg{reqID: id, target: target, done: true, err: err})
	}

	body, err := json.Marshal(pointsRequest{Spec: specJSON, Points: indices, Model: modelFingerprint()})
	if err != nil {
		fail(err)
		return
	}
	timeout := c.PointTimeout
	if timeout <= 0 {
		timeout = DefaultPointTimeout
	}
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchdog := time.AfterFunc(timeout, cancel)
	defer watchdog.Stop()

	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, target+PointsPath, bytes.NewReader(body))
	if err != nil {
		fail(err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		fail(err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		fail(fmt.Errorf("worker answered %s: %s", resp.Status, strings.TrimSpace(string(msg))))
		return
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		fail(fmt.Errorf("worker answered content type %q, want %q", ct, ContentType))
		return
	}

	br := bufio.NewReader(resp.Body)
	for {
		p, err := readFrame(br)
		if err == io.EOF {
			send(workerMsg{reqID: id, target: target, done: true})
			return
		}
		if err != nil {
			fail(err)
			return
		}
		watchdog.Reset(timeout)
		if !send(workerMsg{reqID: id, target: target, point: p}) {
			return
		}
	}
}
