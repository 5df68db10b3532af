// Package fabric is the distributed campaign tier: a coordinator that
// shards a campaign grid over worker processes and streams the result
// back bit-identical to a single-process run.
//
// The pieces:
//
//   - Ring (ring.go): a consistent-hash ring over worker base URLs,
//     keyed on each grid point's machine Fingerprint(). Points sharing
//     a machine variant land on the same worker, so its config-keyed
//     suite cache concentrates exactly the variants it owns — and a
//     worker restarted from a cache snapshot (core.RestoreCache) is
//     warm for its own shard.
//
//   - The point codec (point.go): one frame per evaluated
//     CampaignPoint. On the stream a frame is its uvarint length, a
//     CRC-32 (IEEE, big-endian) of the body, then the body (the point
//     record below), so points decode incrementally and damaged bytes
//     fail the stream.
//
//   - Worker (worker.go): the HTTP handler behind sg2042d -worker. It
//     answers POST /v1/fabric/points — a shard-scoped campaign API:
//     the client's campaign spec plus the grid indices this worker
//     owns — streaming one frame per point as evaluation completes.
//     It flushes after each frame only when the ResponseWriter it is
//     given is an http.Flusher; behind serve's metrics middleware it is
//     not, so sg2042d's frames leave as net/http's buffer fills.
//
//   - Coordinator (coordinator.go): expands the grid, assigns each
//     point to its ring owner, fans requests out, and emits points in
//     grid order through the same in-order machinery a local campaign
//     uses. A worker that dies, stalls past PointTimeout, or
//     misbehaves is excluded and its outstanding points re-dispatched
//     to survivors; the campaign completes as long as one worker
//     lives, and fails with *AllWorkersDownError once none do.
//
//   - Membership and Prober (membership.go, health.go): the fleet is
//     fixed when the coordinator starts. The prober marks workers dead
//     and live again from their health answers, and a revived worker
//     takes back exactly its own arcs. It rejoins cold, evaluating them
//     again, unless it booted from a cache snapshot.
//
// The point record is a fixed-order body with no field names or types:
//
//	index                            uvarint
//	base, machine                    uvarint length, then the bytes
//	threads, placement, prec, cores  uvarint each
//	total_seconds, mean_ratio        f64 each
//	axis values                      uvarint count, then an f64 each
//	class cells                      exactly kernels.NumClasses (6), in
//	                                 kernels.Classes order, no count or
//	                                 class id: f64 seconds, uvarint ratio
//	                                 N, f64 ratio mean, min and max
//
// An f64 is the value's IEEE-754 bit pattern in 8 little-endian bytes,
// so a point decoded from a worker is bit-identical to one evaluated
// locally. The decoder checks every length against the bytes left
// and rejects short or trailing bytes.
//
// Integrity: the model is deterministic, so two honest workers never
// disagree about a point. What can go wrong is bytes damaged in
// transit, which the per-frame CRC catches, and a worker built with a
// different model, which the model fingerprint catches: the
// coordinator presents its fingerprint on every points request and
// health probe, and a worker whose own differs answers 409 Conflict,
// so it is excluded from campaigns and the prober keeps it dead.
// Neither check sees a fault inside a worker whose fingerprint
// matched, such as corrupted memory.
//
// Determinism contract, extended across the network: the coordinator
// assembles the full grid and renders through the exact code paths a
// single process uses, so a sharded campaign's bytes — text, CSV,
// JSON, NDJSON and binary alike — equal the single-process bytes, for
// any worker count and under any single-worker failure. The
// fault-injection harness (faulttest/) and the distributed-determinism
// CI job hold the contract.
package fabric

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro"
	"repro/internal/kernels"
	"repro/internal/perfmodel"
	"repro/internal/suite"
)

// PointsPath is the worker's shard-scoped campaign endpoint.
const PointsPath = "/v1/fabric/points"

// HealthPath is the worker's fabric-readiness probe: 200 "ok" when the
// worker can serve shard traffic. It is distinct from the daemon's own
// /healthz (which gates on prewarm) — a cold fabric worker is still a
// correct fabric worker, so membership probes must not flap on warmth.
const HealthPath = "/v1/fabric/healthz"

// ContentType is the media type of a worker's point-frame stream: a
// sequence of CRC-checked, length-prefixed wire frames, one per point.
const ContentType = "application/vnd.sg2042.fabric-frames"

// modelFingerprint identifies the performance model this build
// evaluates and the point record it ships. It is computed once per
// process. Workers and coordinators compare it so a fleet never mixes
// points from two different models, and a worker with another record
// layout is refused before it streams.
var modelFingerprint = sync.OnceValue(func() string {
	return fingerprintModel(repro.DefaultMachineRegistry().Machines(),
		perfmodel.DefaultCalibration(), suite.All(), pointRecordVersion)
})

// fingerprintModel hashes everything a point depends on besides its
// campaign spec: every preset's Fingerprint() in label order, the
// calibration constants in sorted key order, every kernel spec (its
// scalar fields, its loop IR and its iteration and footprint counts at
// the default size) and the point record version.
func fingerprintModel(machines []*repro.Machine, cal perfmodel.Calibration, specs []kernels.Spec, recordVersion int) string {
	var b strings.Builder
	machines = slices.Clone(machines)
	slices.SortFunc(machines, func(a, b *repro.Machine) int { return strings.Compare(a.Label, b.Label) })
	for _, m := range machines {
		fmt.Fprintf(&b, "%s=%016x\n", m.Label, m.Fingerprint())
	}
	// A round trip through a map sorts the calibration's keys at every
	// level, struct fields included.
	var keyed map[string]any
	raw, err := json.Marshal(cal)
	if err == nil {
		err = json.Unmarshal(raw, &keyed)
	}
	if err == nil {
		raw, err = json.Marshal(keyed)
	}
	if err != nil {
		panic(err) // plain numbers always marshal
	}
	b.Write(raw)
	for _, k := range specs {
		fmt.Fprintf(&b, "\n%s %d %d %d %d %t %v %+v %v %v",
			k.Name, k.Class, k.DefaultN, k.Reps, k.Regions, k.SeqOnly, k.SerialFrac,
			k.Loop, k.Iters(k.DefaultN), k.FootprintElems(k.DefaultN))
	}
	fmt.Fprintf(&b, "\nrecord=%d", recordVersion)
	return fmt.Sprintf("%016x", fnv1a(b.String()))
}
