package fabric

import (
	"fmt"
	"sort"
	"sync"
)

// Membership is the fleet's dynamic view: which workers exist (the
// ring) and which of them are currently believed live. The ring itself
// changes only when a worker is added — death and recovery are
// exclusion-set transitions, so a bounced worker keeps its vnodes and
// takes back exactly the arcs it lost (its peers keep theirs, and
// their warm caches with them). One Membership is shared by every
// campaign a coordinator runs and by its health prober; all methods
// are safe for concurrent use.
type Membership struct {
	mu      sync.Mutex
	ring    *Ring
	targets []string
	state   map[string]*memberState
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

// NewMembership builds a membership over the initial fleet, everyone
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

// Ring returns the current ring. The ring is immutable; Add swaps in a
// new one, so callers may hold the returned pointer across calls.
func (m *Membership) Ring() *Ring {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring
}

// Targets returns every member, live or dead, in join order.
func (m *Membership) Targets() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
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

// Live returns the live targets in join order.
func (m *Membership) Live() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var live []string
	for _, t := range m.targets {
		if m.state[t].live {
			live = append(live, t)
		}
	}
	return live
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
// dead→live transition — the rejoin edge snapshot shipping hangs off.
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

// Add joins a new worker to the fleet, rebuilding the ring over the
// grown target list. Ring construction sorts all vnodes, so ownership
// after an Add is identical to a ring built over the full list at once
// — only arcs the new worker's vnodes capture move (the rebalancing
// property ring_test.go pins). The new member starts live; the prober
// corrects it if it is not.
func (m *Membership) Add(target string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.state[target]; ok {
		return fmt.Errorf("fabric: worker %q already a member", target)
	}
	ring, err := NewRing(append(append([]string(nil), m.targets...), target))
	if err != nil {
		return err
	}
	m.ring = ring
	m.targets = append(m.targets, target)
	m.state[target] = &memberState{live: true}
	return nil
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
