package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// sampleKeys returns a deterministic spread of ring keys: seeded-random
// draws plus the edges of the key space.
func sampleKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	keys := []uint64{0, 1, ^uint64(0), ^uint64(0) - 1, 1 << 63}
	for len(keys) < n {
		keys = append(keys, rng.Uint64())
	}
	return keys
}

func ringTargets(n int) []string {
	ts := make([]string, n)
	for i := range ts {
		ts[i] = fmt.Sprintf("http://w%d:8042", i)
	}
	return ts
}

func ownerOf(t *testing.T, r *Ring, key uint64, excluded map[string]bool) string {
	t.Helper()
	o, err := r.Owner(key, excluded)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestRingJoinMovesOnlyJoinersArcs is the bounded-churn property on
// join: growing the fleet by one worker may move a key only TO the
// newcomer — every key that keeps an old owner keeps its exact owner,
// so nobody else's warm cache is invalidated.
func TestRingJoinMovesOnlyJoinersArcs(t *testing.T) {
	keys := sampleKeys(4096)
	for _, size := range []int{1, 2, 3, 7} {
		targets := ringTargets(size + 1)
		before, err := NewRing(targets[:size])
		if err != nil {
			t.Fatal(err)
		}
		after, err := NewRing(targets)
		if err != nil {
			t.Fatal(err)
		}
		joiner := targets[size]
		moved := 0
		for _, k := range keys {
			was := ownerOf(t, before, k, nil)
			now := ownerOf(t, after, k, nil)
			if was != now {
				moved++
				if now != joiner {
					t.Fatalf("size %d: key %016x moved %s -> %s, not to joiner %s",
						size, k, was, now, joiner)
				}
			}
		}
		if moved == 0 {
			t.Fatalf("size %d: joiner %s captured no keys", size, joiner)
		}
	}
}

// TestRingLeaveMovesOnlyLeaversArcs is the bounded-churn property on
// leave (exclusion): excluding one worker may move only the keys it
// owned; every other key keeps its exact owner.
func TestRingLeaveMovesOnlyLeaversArcs(t *testing.T) {
	keys := sampleKeys(4096)
	targets := ringTargets(5)
	r, err := NewRing(targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, leaver := range targets {
		excluded := map[string]bool{leaver: true}
		for _, k := range keys {
			was := ownerOf(t, r, k, nil)
			now := ownerOf(t, r, k, excluded)
			if was != leaver && now != was {
				t.Fatalf("excluding %s moved key %016x from %s to %s",
					leaver, k, was, now)
			}
			if was == leaver && now == leaver {
				t.Fatalf("excluded %s still owns key %016x", leaver, k)
			}
		}
	}
}

// TestRingRevivalRestoresExactOwnership: excluding then un-excluding a
// worker restores ownership bit-for-bit — a bounced worker takes back
// exactly the arcs it lost.
func TestRingRevivalRestoresExactOwnership(t *testing.T) {
	keys := sampleKeys(2048)
	r, err := NewRing(ringTargets(4))
	if err != nil {
		t.Fatal(err)
	}
	before := make([]string, len(keys))
	for i, k := range keys {
		before[i] = ownerOf(t, r, k, nil)
	}
	// Exclusion is stateless on the ring, so "revival" is just asking
	// again without the exclusion set — the assignment must be
	// untouched.
	excluded := map[string]bool{before[0]: true}
	for _, k := range keys {
		ownerOf(t, r, k, excluded) // any answer; must not perturb the ring
	}
	for i, k := range keys {
		if got := ownerOf(t, r, k, nil); got != before[i] {
			t.Fatalf("key %016x owner changed %s -> %s after exclude/revive cycle",
				k, before[i], got)
		}
	}
}

// TestMembershipIncrementalEqualsBatch: a fleet grown one Add at a time
// owns exactly what a fleet built all at once owns — join order never
// leaks into the assignment.
func TestMembershipIncrementalEqualsBatch(t *testing.T) {
	keys := sampleKeys(2048)
	targets := ringTargets(5)

	batch, err := NewRing(targets)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := NewMembership(targets[:1])
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range targets[1:] {
		if err := grown.Add(tgt); err != nil {
			t.Fatal(err)
		}
	}
	// A different join order must land on the same ring too.
	shuffled, err := NewMembership([]string{targets[3]})
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range []string{targets[1], targets[4], targets[0], targets[2]} {
		if err := shuffled.Add(tgt); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		want := ownerOf(t, batch, k, nil)
		if got := ownerOf(t, grown.Ring(), k, nil); got != want {
			t.Fatalf("key %016x: incremental owner %s, batch owner %s", k, got, want)
		}
		if got := ownerOf(t, shuffled.Ring(), k, nil); got != want {
			t.Fatalf("key %016x: shuffled-join owner %s, batch owner %s", k, got, want)
		}
	}
}

// TestArcsPartitionKeySpace: every key falls in exactly one target's
// arc set, and that target is the key's ring owner — the property
// snapshot shipping stands on (a worker warms precisely the keys the
// ring will route to it).
func TestArcsPartitionKeySpace(t *testing.T) {
	targets := ringTargets(4)
	r, err := NewRing(targets)
	if err != nil {
		t.Fatal(err)
	}
	arcs := map[string][]HashRange{}
	for _, tgt := range targets {
		arcs[tgt] = r.Arcs(tgt)
		if len(arcs[tgt]) != vnodes {
			t.Fatalf("%s has %d arcs, want %d (one per vnode)", tgt, len(arcs[tgt]), vnodes)
		}
	}
	for _, k := range sampleKeys(4096) {
		owner := ownerOf(t, r, k, nil)
		holders := 0
		for _, tgt := range targets {
			in := false
			for _, a := range arcs[tgt] {
				if a.Contains(k) {
					in = true
					break
				}
			}
			if in {
				holders++
				if tgt != owner {
					t.Fatalf("key %016x is in %s's arcs but owned by %s", k, tgt, owner)
				}
			}
		}
		if holders != 1 {
			t.Fatalf("key %016x falls in %d targets' arcs, want exactly 1", k, holders)
		}
	}
}

// TestSingleWorkerArcCoversEverything: one worker's arcs contain every
// key (the Lo==Hi full-circle arc degenerate included).
func TestSingleWorkerArcCoversEverything(t *testing.T) {
	r, err := NewRing(ringTargets(1))
	if err != nil {
		t.Fatal(err)
	}
	arcs := r.Arcs(ringTargets(1)[0])
	for _, k := range sampleKeys(512) {
		in := false
		for _, a := range arcs {
			if a.Contains(k) {
				in = true
				break
			}
		}
		if !in {
			t.Fatalf("key %016x escapes a single-worker ring's arcs", k)
		}
	}
}

func TestFormatParseArcsRoundTrip(t *testing.T) {
	r, err := NewRing(ringTargets(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range ringTargets(3) {
		arcs := r.Arcs(tgt)
		parsed, err := ParseArcs(FormatArcs(arcs))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(arcs, parsed) {
			t.Fatalf("arcs round trip: %v != %v", arcs, parsed)
		}
	}
	if arcs, err := ParseArcs(""); err != nil || arcs != nil {
		t.Fatalf(`ParseArcs("") = (%v, %v), want (nil, nil)`, arcs, err)
	}
	for _, bad := range []string{"zz-00", "00", "0-1-2", "00000000000000000,"} {
		if _, err := ParseArcs(bad); err == nil {
			t.Errorf("ParseArcs(%q) accepted", bad)
		}
	}
}

func TestHashRangeContains(t *testing.T) {
	cases := []struct {
		arc  HashRange
		key  uint64
		want bool
	}{
		{HashRange{10, 20}, 10, false}, // half-open: Lo excluded
		{HashRange{10, 20}, 11, true},
		{HashRange{10, 20}, 20, true}, // Hi included
		{HashRange{10, 20}, 21, false},
		{HashRange{20, 10}, 25, true},  // wrapped arc: above Lo
		{HashRange{20, 10}, 5, true},   // wrapped arc: below Hi
		{HashRange{20, 10}, 15, false}, // wrapped arc: the gap
		{HashRange{7, 7}, 7, true},     // full circle
		{HashRange{7, 7}, 0, true},
	}
	for _, c := range cases {
		if got := c.arc.Contains(c.key); got != c.want {
			t.Errorf("%+v.Contains(%d) = %v, want %v", c.arc, c.key, got, c.want)
		}
	}
}
