package fabric

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
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
				hash:   fnv1a(fmt.Sprintf("%s#%d", t, v)),
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

// HashRange is one half-open arc (Lo, Hi] of the ring's 64-bit key
// space. Lo > Hi means the arc wraps through the top of the space;
// Lo == Hi means the full circle (a single-vnode ring owns everything).
type HashRange struct {
	Lo, Hi uint64
}

// Contains reports whether the key falls inside the arc.
func (h HashRange) Contains(key uint64) bool {
	if h.Lo == h.Hi {
		return true
	}
	if h.Lo < h.Hi {
		return key > h.Lo && key <= h.Hi
	}
	return key > h.Lo || key <= h.Hi
}

// Arcs returns the key-space arcs the target owns on the full ring
// (exclusions ignored): one (predecessor, vnode] interval per vnode of
// the target. A (re)joining worker warms exactly these arcs from its
// peers — they are the keys the ring will route to it.
func (r *Ring) Arcs(target string) []HashRange {
	var arcs []HashRange
	for i, p := range r.points {
		if p.target != target {
			continue
		}
		prev := r.points[(i-1+len(r.points))%len(r.points)]
		arcs = append(arcs, HashRange{Lo: prev.hash, Hi: p.hash})
	}
	return arcs
}

// FormatArcs renders arcs as the snapshot endpoint's ?arc= parameter:
// comma-separated lo-hi pairs in fixed-width hex. The encoding is part
// of the fabric protocol (worker and coordinator may be different
// builds), so it is frozen like the ring hash.
func FormatArcs(arcs []HashRange) string {
	var b strings.Builder
	for i, a := range arcs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%016x-%016x", a.Lo, a.Hi)
	}
	return b.String()
}

// ParseArcs decodes FormatArcs output. An empty string is an empty arc
// list (the snapshot endpoint treats it as "everything").
func ParseArcs(s string) ([]HashRange, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	arcs := make([]HashRange, 0, len(parts))
	for _, part := range parts {
		lo, hi, ok := strings.Cut(part, "-")
		if !ok {
			return nil, fmt.Errorf("fabric: arc %q is not lo-hi", part)
		}
		l, err := strconv.ParseUint(lo, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("fabric: arc bound %q: %w", lo, err)
		}
		h, err := strconv.ParseUint(hi, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("fabric: arc bound %q: %w", hi, err)
		}
		arcs = append(arcs, HashRange{Lo: l, Hi: h})
	}
	return arcs, nil
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
