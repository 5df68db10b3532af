package fabric

import (
	"sort"
	"sync"
)

// Membership is the fleet's dynamic view: which workers exist (the
// ring, fixed at construction) and which of them are currently
// believed live. Death and recovery are exclusion-set transitions, so
// a bounced worker keeps its vnodes and takes back exactly the arcs it
// lost (its peers keep theirs, and their warm caches with them). One
// Membership is shared by every campaign a coordinator runs and by its
// health prober; all methods are safe for concurrent use.
type Membership struct {
	ring    *Ring    // immutable
	targets []string // immutable

	mu    sync.Mutex
	state map[string]*memberState
}

type memberState struct {
	live   bool
	epoch  int    // bumped on every revival (see Epoch)
	reason string // why the worker is dead; cleared on recovery
}

// MemberStatus is one worker's membership state, for status surfaces
// (/metrics, logs).
type MemberStatus struct {
	Target string
	Live   bool
	Reason string
}

// NewMembership builds a membership over the fleet, everyone
// optimistically live (a worker that is in fact down fails its first
// dispatch or probe and transitions then).
func NewMembership(targets []string) (*Membership, error) {
	ring, err := NewRing(targets)
	if err != nil {
		return nil, err
	}
	m := &Membership{
		ring:    ring,
		targets: append([]string(nil), targets...),
		state:   make(map[string]*memberState, len(targets)),
	}
	for _, t := range targets {
		m.state[t] = &memberState{live: true}
	}
	return m, nil
}

// Ring returns the fleet's ring.
func (m *Membership) Ring() *Ring { return m.ring }

// Targets returns every member, live or dead, in fleet order.
func (m *Membership) Targets() []string {
	return append([]string(nil), m.targets...)
}

// DeadSet returns the current exclusion set: dead targets mapped to
// true — the shape Ring.Owner consumes.
func (m *Membership) DeadSet() map[string]bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	dead := make(map[string]bool)
	for t, st := range m.state {
		if !st.live {
			dead[t] = true
		}
	}
	return dead
}

// MarkDead records a worker as dead with the given reason, returning
// true exactly on a live→dead transition. Unknown targets are ignored.
func (m *Membership) MarkDead(target, reason string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[target]
	if !ok || !st.live {
		return false
	}
	st.live = false
	st.reason = reason
	return true
}

// MarkLive records a worker as live, returning true exactly on a
// dead→live transition (a rejoin).
func (m *Membership) MarkLive(target string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[target]
	if !ok || st.live {
		return false
	}
	st.live = true
	st.epoch++
	st.reason = ""
	return true
}

// Epoch returns how many times the target has been revived. A campaign
// that excluded a worker run-locally compares epochs at re-dispatch
// time: a bumped epoch means the prober has since verified the worker
// healthy, so the run-local grudge is dropped and the revived worker
// takes its arcs back mid-campaign.
func (m *Membership) Epoch(target string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.state[target]; ok {
		return st.epoch
	}
	return -1
}

// Reason returns why a dead target was excluded ("" when live or
// unknown).
func (m *Membership) Reason(target string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.state[target]; ok {
		return st.reason
	}
	return ""
}

// Status reports every member's state, sorted by target for stable
// rendering.
func (m *Membership) Status() []MemberStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberStatus, 0, len(m.targets))
	for _, t := range m.targets {
		st := m.state[t]
		out = append(out, MemberStatus{Target: t, Live: st.live, Reason: st.reason})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target < out[j].Target })
	return out
}
