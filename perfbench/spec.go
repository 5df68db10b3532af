package main

import (
	"encoding/json"
	"math/rand/v2"
	"slices"
)

// The campaign grid every campaign workload sends: the shape of the
// root package's benchPlanSpec with 8 seeded clock values in place of
// its fixed 4. 2 bases x vector {128, 256} x numa {1, 4} x 8 clocks x
// 8 thread counts x 2 placements x 2 precisions = 2048 points. Both
// bases have 64 cores, so threads 0, 64 and 96 resolve to the same
// occupancy and a quarter of the points fan out from shared
// evaluations.
var (
	gridMachines   = []string{"SG2042", "SG2044"}
	gridVector     = []float64{128, 256}
	gridNUMA       = []float64{1, 4}
	gridThreads    = []int{0, 8, 16, 24, 32, 48, 64, 96}
	gridPlacements = []string{"block", "cyclic"}
	gridPrecisions = []string{"f32", "f64"}
)

const (
	gridClocks = 8
	gridPoints = 2 * 2 * 2 * gridClocks * 8 * 2 * 2
	// Clock values are drawn on a 0.1 MHz grid from [1.0000, 3.0000) GHz.
	clockSteps = 20000
)

type axisJSON struct {
	Axis   string    `json:"axis"`
	Values []float64 `json:"values"`
}

type campaignJSON struct {
	Machines   []string   `json:"machines"`
	Axes       []axisJSON `json:"axes"`
	Threads    []int      `json:"threads"`
	Placements []string   `json:"placements"`
	Precisions []string   `json:"precisions"`
}

// specGen draws campaign specs from a seed. Every spec gets 8 clock
// values no earlier spec of the same generator used, so each operation
// derives machines (and fingerprints) no earlier operation has seen:
// the process-wide plan cache and derivation memo never hit across
// operations, and every campaign is a cold fill.
type specGen struct {
	rng  *rand.Rand
	used map[int]bool
	// offset shifts every clock off the 0.1 MHz grid, in grid steps.
	offset float64
}

func newSpecGen(seed uint64) *specGen {
	return &specGen{rng: rand.New(rand.NewPCG(seed, 0x5e2042)), used: map[int]bool{}}
}

// newFillerGen returns the generator of the specs a process plans but
// never sends (fillProcessCaches). It draws from a stream of its own,
// and its clocks sit half a step off the timed specs' grid, so no
// filler derives a machine that a timed spec derives.
func newFillerGen(seed uint64) *specGen {
	return &specGen{rng: rand.New(rand.NewPCG(seed, 0xf111e2)), used: map[int]bool{}, offset: 0.5}
}

// next returns the next spec's JSON body.
func (g *specGen) next() []byte {
	steps := make([]int, 0, gridClocks)
	for len(steps) < gridClocks {
		k := g.rng.IntN(clockSteps)
		if g.used[k] {
			continue
		}
		g.used[k] = true
		steps = append(steps, k)
	}
	slices.Sort(steps)
	clocks := make([]float64, len(steps))
	for i, k := range steps {
		clocks[i] = (float64(10000+k) + g.offset) / 10000
	}
	body, err := json.Marshal(campaignJSON{
		Machines: gridMachines,
		Axes: []axisJSON{
			{Axis: "vector", Values: gridVector},
			{Axis: "numa", Values: gridNUMA},
			{Axis: "clock", Values: clocks},
		},
		Threads:    gridThreads,
		Placements: gridPlacements,
		Precisions: gridPrecisions,
	})
	if err != nil {
		panic(err) // a fixed struct of strings and numbers always marshals
	}
	return body
}
