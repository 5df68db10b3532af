package machine

// Derivation memoization. The What-if helpers (derive.go) deep-copy
// the base, rebuild its topology maps, re-render the label and
// re-validate on every call — and campaign grids, sweeps and the
// distributed fabric's workers re-derive the same handful of variants
// over and over (a thread axis alone revisits each derived machine once
// per software configuration). The memo keys on the base machine's
// full-parameter fingerprint (the same trust the study engine's suite
// cache places in it), the operation, and the argument's bit pattern,
// and stores a private clone: hits are served as fresh clones, so the
// API contract is unchanged — every call still returns a machine the
// caller owns outright and may mutate freely.
//
// Errors are not cached: they are rare, cheap to recompute (the
// argument checks run before the memo is consulted), and keeping them
// out means the cache holds only validated machines. The memo is
// bounded (internal/memo): past maxDerived a new derivation evicts an
// arbitrary old one.

import "repro/internal/memo"

// deriveOp names one derivation helper in the memo key.
type deriveOp uint8

const (
	opCores deriveOp = iota
	opClock
	opVector
	opNUMA
	opSockets
	opNodes
)

type deriveKey struct {
	fp   uint64 // base machine fingerprint (full parameter set)
	op   deriveOp
	bits uint64 // argument: integer value or Float64bits
}

// maxDerived bounds the memo. Distinct keys come from distinct (base,
// axis, value) triples — a bounded working set in any real process.
const maxDerived = 4096

var derivations = memo.New[deriveKey, *Machine](maxDerived, func(k deriveKey) uint64 {
	return memo.Mix(memo.Mix(memo.Mix(memo.Offset, k.fp), uint64(k.op)), k.bits)
})

// derived memoizes one derivation and returns a clone of the memoized
// machine, so the caller always owns the returned pointer.
func derived(m *Machine, op deriveOp, bits uint64, build func() (*Machine, error)) (*Machine, error) {
	v, err := derivations.Get(deriveKey{fp: m.Fingerprint(), op: op, bits: bits}, build)
	if err != nil {
		return nil, err
	}
	return v.Clone(), nil
}
