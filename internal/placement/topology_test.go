package placement

import (
	"reflect"
	"testing"

	"repro/internal/machine"
)

// topologyFields classifies every Machine field: true when Map or
// Analyze reads it, so TopologyKey must hash it.
var topologyFields = map[string]bool{
	"Name": false, "Label": false, "ClockHz": false,
	"Cores": true, "ClusterSize": true, "NUMARegionOf": true, "NUMARegions": true,
	"MemCtrlPerNUMA": false, "CtrlBW": false, "CoreMemBW": false,
	"MemLatencyNs": false, "MLP": false, "Caches": false, "Vector": false,
	"ScalarFlopsPerCycle": false, "VectorFlopsPerCyclePerLane": false,
	"IssueWidth": false, "OutOfOrder": false,
	"ForkJoinNsBase": false, "ForkJoinNsPerThread": false,
	"StragglerNs": false, "JitterFullOccupancy": false,
	"Sockets": true, "Nodes": true,
	"XSocketBW": false, "XSocketLatencyNs": false, "NodeBW": false, "NodeLatencyNs": false,
}

// perturb changes every scalar reachable from v.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			perturb(t, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturb(t, v.Field(i))
		}
	default:
		t.Fatalf("no perturbation for a %s", v.Type())
	}
}

// TestTopologyKeyCoversExactlyWhatMapReads perturbs each Machine field
// in turn: a field outside the key must leave the key and every
// Map/Analyze result unchanged, and a field inside it must change the
// key. A new Machine field fails the test until it is classified.
func TestTopologyKeyCoversExactlyWhatMapReads(t *testing.T) {
	typ := reflect.TypeOf(machine.Machine{})
	if typ.NumField() != len(topologyFields) {
		t.Errorf("Machine has %d fields, topologyFields classifies %d", typ.NumField(), len(topologyFields))
	}
	multiNode, err := machine.SG2042x2().WithNodes(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []*machine.Machine{machine.SG2042(), machine.SG2042x2(), multiNode} {
		key := TopologyKey(base)
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			inKey, ok := topologyFields[name]
			if !ok {
				t.Errorf("Machine.%s is not classified: add it to topologyFields, and to TopologyKey if Map or Analyze reads it", name)
				continue
			}
			m := base.Clone()
			perturb(t, reflect.ValueOf(m).Elem().Field(i))
			switch got := TopologyKey(m); {
			case inKey && got == key:
				t.Errorf("%s: perturbing %s left the topology key unchanged", base.Label, name)
			case !inKey && got != key:
				t.Errorf("%s: perturbing %s changed the topology key", base.Label, name)
			case !inKey:
				assertSameAnalysis(t, base, m, name)
			}
		}
	}
}

// assertSameAnalysis compares Map and Analyze on two machines for every
// policy at thread counts from one to full occupancy.
func assertSameAnalysis(t *testing.T, a, b *machine.Machine, field string) {
	t.Helper()
	for _, pol := range Policies {
		for _, threads := range []int{1, 2, 3, 5, 8, 13, 32, 48, 64, 96, 127, a.Cores} {
			if threads > a.Cores {
				continue
			}
			ca, errA := Map(a, pol, threads)
			cb, errB := Map(b, pol, threads)
			if errA != nil || errB != nil {
				t.Fatalf("%s with %s perturbed, %v x %d: %v / %v", a.Label, field, pol, threads, errA, errB)
			}
			if !equalInts(ca, cb) || !reflect.DeepEqual(Analyze(a, ca), Analyze(b, cb)) {
				t.Fatalf("%s: perturbing %s changed the %v x %d analysis", a.Label, field, pol, threads)
			}
		}
	}
}
