package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheBasics(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Assoc: 2, LineBytes: 64})
	if c.Sets() != 8 || c.Assoc() != 2 {
		t.Fatalf("geometry: %d sets × %d ways", c.Sets(), c.Assoc())
	}
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0x103F) {
		t.Error("same-line access missed")
	}
	if c.Access(0x1040) {
		t.Error("next-line access hit")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
	if c.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", c.HitRate())
	}
}

func TestCacheLRU(t *testing.T) {
	// 2-way set: A, B, C map to the same set; after A,B,C the LRU
	// victim is A.
	c := New(Config{SizeBytes: 2 * 64, Assoc: 2, LineBytes: 64}) // 1 set
	a, b, x := uint64(0x0000), uint64(0x1000), uint64(0x2000)
	c.Access(a)
	c.Access(b)
	c.Access(x) // evicts a
	if c.Probe(a) {
		t.Error("LRU line not evicted")
	}
	if !c.Probe(b) || !c.Probe(x) {
		t.Error("MRU lines evicted")
	}
	// Touch b, insert a new line: x (now LRU) must go.
	c.Access(b)
	c.Access(a)
	if c.Probe(x) {
		t.Error("x survived; LRU promotion on hit broken")
	}
}

func TestCacheFillAndProbe(t *testing.T) {
	c := New(Config{SizeBytes: 4096, Assoc: 4, LineBytes: 64})
	c.Fill(0x4000)
	if !c.Probe(0x4000) {
		t.Error("filled line not present")
	}
	hits, misses := c.Stats()
	if hits != 0 || misses != 0 {
		t.Error("Fill/Probe touched demand counters")
	}
	if !c.Access(0x4000) {
		t.Error("prefetched line missed on demand access")
	}
	c.Fill(0x4000) // refill promotes, no duplicates
	if !c.Access(0x4000) {
		t.Error("refilled line missed")
	}
}

func TestCacheAddressZero(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Assoc: 2, LineBytes: 64})
	if c.Access(0) {
		t.Error("cold access to address 0 hit (invalid-tag collision)")
	}
	if !c.Access(0) {
		t.Error("address 0 not cached")
	}
}

func TestCacheReset(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Assoc: 2, LineBytes: 64})
	c.Access(0x1000)
	c.Reset()
	if c.Probe(0x1000) {
		t.Error("line survived Reset")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Error("stats survived Reset")
	}
	if c.HitRate() != 0 {
		t.Error("HitRate of reset cache")
	}
}

func TestCachePanics(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 0, Assoc: 1, LineBytes: 64},
		{SizeBytes: 1024, Assoc: 0, LineBytes: 64},
		{SizeBytes: 1024, Assoc: 1, LineBytes: 63},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: a cache never reports more lines present than its
// capacity, and re-accessing the working set of size <= assoc in one
// set always hits after warmup.
func TestCacheWithinAssocAlwaysHits(t *testing.T) {
	f := func(seed int64) bool {
		c := New(Config{SizeBytes: 8 * 64, Assoc: 8, LineBytes: 64}) // 1 set
		r := rand.New(rand.NewSource(seed))
		ws := make([]uint64, 8)
		for i := range ws {
			ws[i] = uint64(i) << 6 << 3 // distinct lines, same set
		}
		for _, a := range ws {
			c.Access(a)
		}
		for i := 0; i < 100; i++ {
			if !c.Access(ws[r.Intn(len(ws))]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetcherStream(t *testing.T) {
	p := NewPrefetcher(4, 2)
	// First miss allocates a stream, no prefetch.
	if out := p.Miss(100); out != nil {
		t.Errorf("first miss prefetched %v", out)
	}
	// Sequential miss advances the stream and prefetches ahead.
	out := p.Miss(101)
	if len(out) != 2 || out[0] != 102 || out[1] != 103 {
		t.Errorf("ascending prefetch = %v", out)
	}
	out = p.Miss(102)
	if len(out) != 2 || out[0] != 103 {
		t.Errorf("stream continuation = %v", out)
	}
	// The second count takes every miss that prefetched: the stride
	// learn at 101 as well as the advance at 102.
	issued, triggers := p.Stats()
	if issued != 4 || triggers != 2 {
		t.Errorf("stats = %d issued / %d triggers, want 4 / 2", issued, triggers)
	}
}

func TestPrefetcherDescending(t *testing.T) {
	p := NewPrefetcher(4, 2)
	p.Miss(200) // allocates ascending stream expecting 201
	out := p.Miss(199)
	if len(out) != 2 || out[0] != 198 || out[1] != 197 {
		t.Errorf("descending prefetch = %v", out)
	}
	out = p.Miss(198)
	if len(out) != 2 || out[0] != 197 {
		t.Errorf("descending continuation = %v", out)
	}
}

func TestPrefetcherEvictsOldestStream(t *testing.T) {
	p := NewPrefetcher(2, 1)
	p.Miss(100) // stream A
	p.Miss(500) // stream B
	p.Miss(900) // evicts A (oldest)
	if out := p.Miss(101); out != nil {
		t.Errorf("evicted stream still live: %v", out)
	}
	// The newest stream (900) is still live.
	if out := p.Miss(901); len(out) != 1 {
		t.Errorf("surviving stream dead: %v", out)
	}
}

func TestPrefetcherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPrefetcher(0,0) did not panic")
		}
	}()
	NewPrefetcher(0, 0)
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(HierarchyConfig{NoPrefch: true})
	lat := DefaultLatencies()
	// Cold: full miss to memory.
	if got := h.Access(0x10000, 0); got < lat.L1+lat.L2+lat.Memory {
		t.Errorf("cold access latency %d", got)
	}
	// Now in L1.
	if got := h.Access(0x10000, 1000); got != lat.L1 {
		t.Errorf("L1 hit latency %d, want %d", got, lat.L1)
	}
	if h.L1() == nil || h.L2() == nil {
		t.Error("accessors returned nil")
	}
	if h.Prefetcher() != nil {
		t.Error("prefetcher present despite NoPrefch")
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	// Working set bigger than L1 but within L2: L2 hits after warmup.
	h := NewHierarchy(HierarchyConfig{NoPrefch: true})
	lat := DefaultLatencies()
	const lines = 4096 // 256 KB: 8× L1, fits in 1M L2
	for i := 0; i < lines; i++ {
		h.Access(uint64(i)*64, uint64(i))
	}
	got := h.Access(0, uint64(lines+1))
	if got != lat.L1+lat.L2 {
		t.Errorf("L2 hit latency %d, want %d", got, lat.L1+lat.L2)
	}
}

func TestHierarchyPrefetchHidesSequentialMisses(t *testing.T) {
	pf := NewBaselineHierarchy()
	nopf := NewHierarchy(HierarchyConfig{NoPrefch: true})
	var latPF, latNoPF int
	cycle := uint64(0)
	for i := 0; i < 2000; i++ {
		addr := uint64(i) * 64 // pure sequential stream
		latPF += pf.Access(addr, cycle)
		latNoPF += nopf.Access(addr, cycle)
		cycle += 400
	}
	if latPF >= latNoPF {
		t.Errorf("prefetcher did not help: %d >= %d", latPF, latNoPF)
	}
	issued, _ := pf.Prefetcher().Stats()
	if issued == 0 {
		t.Error("no prefetches issued on sequential stream")
	}
}
