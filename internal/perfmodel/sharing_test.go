package perfmodel

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/placement"
)

// TestSharingCacheKeysOnTopology: machines that differ only in clock or
// vector width, the axes a campaign sweeps, share one sharing entry.
func TestSharingCacheKeysOnTopology(t *testing.T) {
	base := machine.SG2042()
	clocked, err := base.WithClock(2.6e9)
	if err != nil {
		t.Fatal(err)
	}
	widened, err := base.WithVectorBits(256)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sharingFor(base, placement.ClusterCyclic, 24)
	if err != nil {
		t.Fatal(err)
	}
	entry := reflect.ValueOf(want.ThreadsPerCluster).Pointer()
	for _, m := range []*machine.Machine{clocked, widened} {
		if m.Fingerprint() == base.Fingerprint() {
			t.Fatalf("%s fingerprints like its base", m.Label)
		}
		got, err := sharingFor(m, placement.ClusterCyclic, 24)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.ValueOf(got.ThreadsPerCluster).Pointer() != entry {
			t.Errorf("%s did not share its base's sharing entry", m.Label)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sharing %+v, base has %+v", m.Label, got, want)
		}
	}
}

// TestSharingErrorNamesItsMachine: machines of one topology share a
// key, but a placement error names the machine it was asked for, also
// when lookups of the two race.
func TestSharingErrorNamesItsMachine(t *testing.T) {
	a := machine.SG2042()
	b := a.Clone()
	b.Label = "twin"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, m := range []*machine.Machine{a, b} {
					_, err := sharingFor(m, placement.Block, m.Cores+1+i)
					if err == nil || !strings.HasSuffix(err.Error(), "cores of "+m.Label) {
						t.Errorf("%s with %d threads: error %v, want one naming %s", m.Label, m.Cores+1+i, err, m.Label)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
