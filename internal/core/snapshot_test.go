package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/prec"
	"repro/internal/suite"
	"repro/internal/wire"
)

// populate evaluates one suite per registry preset plus a couple of
// software-config variants, returning the study.
func populateStudy(t *testing.T) *Study {
	t.Helper()
	st := NewStudy()
	for _, label := range machine.DefaultRegistry().Labels() {
		m, ok := machine.DefaultRegistry().Get(label)
		if !ok {
			t.Fatalf("registry lost %q", label)
		}
		if _, err := st.RunSuite(mustMachineCfg(m, 1, prec.F64)); err != nil {
			t.Fatalf("RunSuite(%s): %v", label, err)
		}
	}
	// A few non-default software configs so keys vary in more than the
	// machine.
	sg := machine.SG2042()
	for _, threads := range []int{8, 64} {
		if _, err := st.RunSuite(mustMachineCfg(sg, threads, prec.F32)); err != nil {
			t.Fatalf("RunSuite(threads=%d): %v", threads, err)
		}
	}
	return st
}

// TestSnapshotRoundTripAllPresets snapshots a cache populated from
// every registry preset and restores it into a fresh study: every
// entry must come back, bit-identical, and be served as a cache hit.
func TestSnapshotRoundTripAllPresets(t *testing.T) {
	st := populateStudy(t)
	_, misses := st.CacheStats()
	data, err := st.SnapshotCache()
	if err != nil {
		t.Fatalf("SnapshotCache: %v", err)
	}

	fresh := NewStudy()
	n, err := fresh.RestoreCache(data)
	if err != nil {
		t.Fatalf("RestoreCache: %v", err)
	}
	if uint64(n) != misses {
		t.Fatalf("restored %d entries, want %d (the evaluated configurations)", n, misses)
	}

	// Every configuration the original study evaluated must now be a
	// hit with bit-identical measurements.
	hits0, misses0 := fresh.CacheStats()
	for _, label := range machine.DefaultRegistry().Labels() {
		m, _ := machine.DefaultRegistry().Get(label)
		want, err := st.RunSuite(mustMachineCfg(m, 1, prec.F64))
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.RunSuite(mustMachineCfg(m, 1, prec.F64))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: restored measurements differ from evaluated", label)
		}
	}
	hits1, misses1 := fresh.CacheStats()
	if misses1 != misses0 {
		t.Fatalf("restored study evaluated %d suites, want 0", misses1-misses0)
	}
	if wantHits := uint64(len(machine.DefaultRegistry().Labels())); hits1-hits0 != wantHits {
		t.Fatalf("restored study served %d hits, want %d", hits1-hits0, wantHits)
	}
}

// TestSnapshotDeterministic: same cache state, same bytes.
func TestSnapshotDeterministic(t *testing.T) {
	st := populateStudy(t)
	a, err := st.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two snapshots of the same cache differ")
	}
}

// TestRestoreDoesNotOverwrite: restoring over an already-warm key
// keeps the existing entry and reports it skipped.
func TestRestoreDoesNotOverwrite(t *testing.T) {
	st := NewStudy()
	cfg := mustMachineCfg(machine.SG2042(), 1, prec.F64)
	if _, err := st.RunSuite(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := st.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := st.RestoreCache(data); err != nil || n != 0 {
		t.Fatalf("RestoreCache over warm cache = (%d, %v), want (0, nil)", n, err)
	}
}

// TestRestoreRejectsCorruption: truncated, version-skewed and
// bit-flipped snapshots error cleanly and leave the cache untouched.
func TestRestoreRejectsCorruption(t *testing.T) {
	st := populateStudy(t)
	data, err := st.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}

	// Version skew: a header declaring an unknown snapshot version must
	// be rejected even though the wire framing itself is valid.
	badHeader := mustSnapshotHeader(t, 99, 0)
	if _, err := NewStudy().RestoreCache(badHeader); err == nil {
		t.Fatal("version-skewed snapshot restored without error")
	}

	cases := map[string][]byte{
		"empty":     {},
		"truncated": data[:len(data)/2],
		"trailing":  append(append([]byte(nil), data...), 0xFF),
	}
	if len(data) > 64 {
		flipped := append([]byte(nil), data...)
		flipped[37] ^= 0xFF
		flipped[len(flipped)-5] ^= 0x55
		cases["bitflip"] = flipped
	}
	for name, bad := range cases {
		fresh := NewStudy()
		if _, err := fresh.RestoreCache(bad); err == nil {
			// A bit flip can, in principle, land in a value byte and
			// still decode; every structural case must fail though.
			if name != "bitflip" {
				t.Errorf("%s snapshot restored without error", name)
			}
			continue
		}
		if hits, misses := fresh.CacheStats(); hits != 0 || misses != 0 {
			t.Errorf("%s: failed restore touched the cache (hits=%d misses=%d)", name, hits, misses)
		}
		// The cache must still work after a failed restore.
		if _, err := fresh.RunSuite(mustMachineCfg(machine.SG2042(), 1, prec.F64)); err != nil {
			t.Errorf("%s: study poisoned after failed restore: %v", name, err)
		}
	}
}

// TestRestoreRejectsPoisonedEntries: an entry whose rows are not
// exactly suite.All() — one kernel short or over, a renamed kernel, a
// kernel filed under the wrong class — is refused, and because restore
// is all-or-nothing the valid entries around it are not installed
// either. Positional readers index every entry by suite position, so
// a short entry that slipped in would crash the next campaign.
func TestRestoreRejectsPoisonedEntries(t *testing.T) {
	st := NewStudy()
	for _, threads := range []int{1, 2, 4} {
		if _, err := st.RunSuite(mustMachineCfg(machine.SG2042(), threads, prec.F64)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := st.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	tables, err := wire.DecodeAll(data)
	if err != nil || len(tables) != 7 {
		t.Fatalf("snapshot decodes to %d frames (%v), want header + 3 entries", len(tables), err)
	}
	// The middle entry's suite frame is poisoned; its neighbours stay
	// valid.
	const poisoned = 4
	resize := func(n int) func(*wire.Table) {
		return func(tb *wire.Table) {
			for i := range tb.Columns {
				c := &tb.Columns[i]
				c.Strings, c.Ints, c.Floats = resized(c.Strings, n), resized(c.Ints, n), resized(c.Floats, n)
			}
		}
	}
	n := len(suite.All())
	cases := map[string]func(*wire.Table){
		"63 rows": resize(n - 1),
		"65 rows": resize(n + 1),
		"one row": resize(1),
		"renamed kernel": func(tb *wire.Table) {
			tb.Columns[0].Strings[10] = "NOT_A_KERNEL"
		},
		"wrong class": func(tb *wire.Table) {
			tb.Columns[1].Ints[10] = (tb.Columns[1].Ints[10] + 1) % int64(len(kernels.Classes))
		},
		"swapped rows": func(tb *wire.Table) {
			for i := range tb.Columns[:2] {
				c := &tb.Columns[i]
				if c.Type == wire.String {
					c.Strings[0], c.Strings[n-1] = c.Strings[n-1], c.Strings[0]
				} else {
					c.Ints[0], c.Ints[n-1] = c.Ints[n-1], c.Ints[0]
				}
			}
		},
	}
	for name, poison := range cases {
		frames := make([]wire.Table, len(tables))
		for i, tb := range tables {
			frames[i] = tb
			frames[i].Columns = make([]wire.Column, len(tb.Columns))
			for j, c := range tb.Columns {
				c.Strings = append([]string(nil), c.Strings...)
				c.Ints = append([]int64(nil), c.Ints...)
				c.Floats = append([]float64(nil), c.Floats...)
				frames[i].Columns[j] = c
			}
		}
		if frames[poisoned].Kind != snapSuiteKind || frames[poisoned].Columns[0].Name != "kernel" || frames[poisoned].Columns[1].Name != "class" {
			t.Fatalf("frame %d is not a kernel/class/seconds suite frame", poisoned)
		}
		poison(&frames[poisoned])
		bad, err := wire.Encode(frames...)
		if err != nil {
			t.Fatalf("%s: encoding: %v", name, err)
		}
		fresh := NewStudy()
		if got, err := fresh.RestoreCache(bad); err == nil {
			t.Errorf("%s: restored %d entries without error", name, got)
		}
		if s := fresh.SuiteCacheStats(); s.Entries != 0 || s.Hits != 0 || s.Misses != 0 {
			t.Errorf("%s: failed restore touched the cache: %+v", name, s)
		}
	}
	// The unpoisoned snapshot still restores all three entries.
	if got, err := NewStudy().RestoreCache(data); err != nil || got != 3 {
		t.Fatalf("clean snapshot restored (%d, %v), want (3, nil)", got, err)
	}
}

// TestSnapshotEntryBytesBound: an entry under a preset's label or a
// four-axis derived one encodes within snapshotEntryBytes, so a full
// cache's snapshot fits MaxSnapshotBytes.
func TestSnapshotEntryBytesBound(t *testing.T) {
	empty, err := NewStudy().SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"SG2042", "SG2042x2/c64/2.5GHz/v256/n8"} {
		st := NewStudy()
		m := *machine.SG2042()
		m.Label = label
		if _, err := st.RunSuite(mustMachineCfg(&m, 64, prec.F64)); err != nil {
			t.Fatal(err)
		}
		data, err := st.SnapshotCache()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(data) - len(empty); n > snapshotEntryBytes {
			t.Errorf("entry labelled %q encodes to %d bytes, bound %d", label, n, snapshotEntryBytes)
		}
	}
}

// resized cuts s to n elements or pads it with copies of its first.
func resized[T any](s []T, n int) []T {
	for len(s) > 0 && len(s) < n {
		s = append(s, s[0])
	}
	return s[:min(n, len(s))]
}

// mustSnapshotHeader builds a snapshot whose header declares the given
// version and entry count, with no entry frames.
func mustSnapshotHeader(t *testing.T, version, entries int64) []byte {
	t.Helper()
	out, err := wire.Encode(wire.Table{
		Kind:  snapHeaderKind,
		Title: "sg2042 suite cache",
		Columns: []wire.Column{
			{Name: "version", Type: wire.Int64, Ints: []int64{version}},
			{Name: "entries", Type: wire.Int64, Ints: []int64{entries}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
