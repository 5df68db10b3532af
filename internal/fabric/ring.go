package fabric

import (
	"fmt"
	"sort"
)

// vnodes is how many virtual nodes each worker contributes to the
// ring. More vnodes smooth the shard balance; 64 keeps the ring tiny
// (a few KB for a handful of workers) while holding the imbalance of
// realistic fleets well under 2x.
const vnodes = 64

// Ring is a consistent-hash ring over worker targets. Keys are the
// campaign grid's machine fingerprints; Owner maps a key to the worker
// whose vnode follows it on the ring, skipping excluded workers — so
// excluding a dead worker moves only its own arcs, and every other
// point keeps its assignment (and its worker's warm cache).
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash   uint64
	target string
}

// NewRing builds a ring over the given worker targets. Targets must be
// non-empty and unique — an assignment must never silently halve
// because one worker was listed twice.
func NewRing(targets []string) (*Ring, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("fabric: ring needs at least one worker")
	}
	seen := make(map[string]bool, len(targets))
	r := &Ring{points: make([]ringPoint, 0, vnodes*len(targets))}
	for _, t := range targets {
		if t == "" {
			return nil, fmt.Errorf("fabric: empty worker target")
		}
		if seen[t] {
			return nil, fmt.Errorf("fabric: worker %q listed twice", t)
		}
		seen[t] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   mix64(fnv1a(fmt.Sprintf("%s#%d", t, v))),
				target: t,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.target < b.target // deterministic under hash collision
	})
	return r, nil
}

// Owner returns the worker owning the key: the first vnode at or after
// the key's position, walking past vnodes of excluded workers and
// wrapping at the top. It errors only when every worker is excluded.
func (r *Ring) Owner(key uint64, excluded map[string]bool) (string, error) {
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= key
	})
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !excluded[p.target] {
			return p.target, nil
		}
	}
	return "", fmt.Errorf("fabric: all workers excluded")
}

// mix64 is splitmix64's finalizer. FNV-1a moves the high bits little
// when only the last byte or two of its input change, as they do from
// one vnode of a worker to the next; unmixed, a worker's 64 vnodes fell
// in 7-8 clusters and a 3-worker ring could leave one worker under 1%
// of the key space. The finalizer spreads every input bit over the
// whole word, so the vnodes land independently.
func mix64(h uint64) uint64 {
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// fnv1a is the 64-bit FNV-1a of s — the same hash family the machine
// fingerprint uses, hand-rolled so the ring layout is a frozen part of
// the fabric protocol rather than an import detail.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
