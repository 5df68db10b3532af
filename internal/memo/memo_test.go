package memo

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func intHash(k int) uint64 { return Mix(Offset, uint64(k)) }

// Concurrent first requests for one key make exactly one fill, and
// every caller sees its value.
func TestConcurrentFirstRequestsShareOneFill(t *testing.T) {
	c := New[int, string](64, intHash)
	var fills, arrived atomic.Int32
	release := make(chan struct{})
	const callers = 32
	var wg sync.WaitGroup
	got := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived.Add(1)
			v, err := c.Get(7, func() (string, error) {
				fills.Add(1)
				<-release
				return "seven", nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	// The fill blocks until every caller has started its Get.
	for arrived.Load() < callers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Errorf("%d fills for one key, want 1", n)
	}
	for i, v := range got {
		if v != "seven" {
			t.Fatalf("caller %d got %q", i, v)
		}
	}
	if s := c.Stats(); s.Hits+s.Misses != callers || s.Misses != 1 {
		t.Errorf("stats %+v, want %d lookups with 1 miss", s, callers)
	}
}

// An error fill reaches every waiter, is not cached, and the next Get
// fills again.
func TestErrorReachesWaitersAndIsRetried(t *testing.T) {
	c := New[int, int](64, intHash)
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})
	var fills atomic.Int32
	fail := func() (int, error) {
		if fills.Add(1) == 1 {
			close(started)
		}
		<-release
		return 0, boom
	}
	const callers = 8
	errs := make(chan error, callers)
	go func() { _, err := c.Get(1, fail); errs <- err }()
	<-started
	var wg sync.WaitGroup
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Get(1, fail)
			errs <- err
		}()
	}
	close(release)
	wg.Wait()
	for i := 0; i < callers; i++ {
		// A caller that arrived after the failed entry was removed
		// filled again and failed the same way.
		if err := <-errs; err != boom {
			t.Errorf("waiter got %v, want %v", err, boom)
		}
	}
	before := fills.Load()
	v, err := c.Get(1, func() (int, error) { fills.Add(1); return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("retry after error: %d, %v", v, err)
	}
	if fills.Load() != before+1 {
		t.Error("the Get after an error did not fill again")
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats %+v, want failed Gets counted as neither hit nor miss", s)
	}
}

// Under churn the cap holds, and Evictions counts exactly the entries
// dropped to make room.
func TestCapHoldsUnderChurn(t *testing.T) {
	const capacity = 256
	c := New[int, int](capacity, intHash)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := w*perWorker + i
				v, err := c.Get(k, func() (int, error) { return k * 2, nil })
				if err != nil || v != k*2 {
					t.Errorf("Get(%d) = %d, %v", k, v, err)
					return
				}
				if n := c.Stats().Entries; n > capacity {
					t.Errorf("%d entries past the %d cap", n, capacity)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries > capacity {
		t.Fatalf("%d entries past the %d cap", s.Entries, capacity)
	}
	// Every key was distinct, so every Get stored one entry.
	if s.Misses != workers*perWorker || s.Evictions != s.Misses-s.Entries {
		t.Errorf("stats %+v: evictions should equal misses - entries", s)
	}
}

func TestAddNeverOverwrites(t *testing.T) {
	c := New[int, string](64, intHash)
	if !c.Add(1, "first") {
		t.Fatal("Add of a new key refused")
	}
	if c.Add(1, "second") {
		t.Error("Add overwrote an existing key")
	}
	v, err := c.Get(1, func() (string, error) { return "filled", nil })
	if err != nil || v != "first" {
		t.Errorf("Get after Add = %q, %v; want the added value", v, err)
	}
	if _, err := c.Get(2, func() (string, error) { return "two", nil }); err != nil {
		t.Fatal(err)
	}
	if c.Add(2, "late") {
		t.Error("Add overwrote a filled key")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats %+v, want Adds counted as neither hit nor miss", s)
	}
}

// Range sees completed entries only: one still being filled is skipped
// without blocking the walk.
func TestRangeSkipsInFlight(t *testing.T) {
	c := New[int, string](64, intHash)
	c.Add(1, "done")
	started := make(chan struct{})
	release := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		c.Get(2, func() (string, error) {
			close(started)
			<-release
			return "late", nil
		})
	}()
	<-started
	seen := map[int]string{}
	c.Range(func(k int, v string) { seen[k] = v })
	close(release)
	<-finished
	if len(seen) != 1 || seen[1] != "done" {
		t.Errorf("Range saw %v during a fill, want only the completed entry", seen)
	}
	seen = map[int]string{}
	c.Range(func(k int, v string) { seen[k] = v })
	if len(seen) != 2 {
		t.Errorf("Range saw %v after the fill, want both entries", seen)
	}
}

func TestLookupDoesNotFill(t *testing.T) {
	c := New[string, int](64, func(k string) uint64 { return MixString(Offset, k) })
	if _, ok := c.Lookup("a"); ok {
		t.Fatal("Lookup found an absent key")
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("Lookup stored an entry: %+v", s)
	}
	c.Add("a", 1)
	if v, ok := c.Lookup("a"); !ok || v != 1 {
		t.Errorf("Lookup(a) = %d, %v", v, ok)
	}
}

// Sequential keys spread over the shards rather than piling into one.
func TestKeysSpreadOverShards(t *testing.T) {
	c := New[string, int](Shards*1024, func(k string) uint64 { return MixString(Offset, k) })
	used := map[*shard[string, int]]bool{}
	for i := 0; i < 64; i++ {
		used[c.shard(fmt.Sprint("key", i))] = true
	}
	if len(used) < 2 {
		t.Fatalf("64 keys landed on %d shard(s); the hash is not spreading", len(used))
	}

	// Word keys whose low bits are all zero, like the float64 bits of
	// whole-hertz clocks the derivation memo keys on.
	words := New[uint64, int](Shards*1024, func(k uint64) uint64 { return Mix(Offset, k) })
	usedWords := map[*shard[uint64, int]]bool{}
	for i := 0; i < 64; i++ {
		usedWords[words.shard(math.Float64bits(float64(1_000_000_000+i*100_000)))] = true
	}
	if len(usedWords) < Shards/2 {
		t.Fatalf("64 clock keys landed on %d of %d shards; shard selection ignores the high bits", len(usedWords), Shards)
	}
}
