package fabric

import (
	"fmt"
	"math/rand"
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
