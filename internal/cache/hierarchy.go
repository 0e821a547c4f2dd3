package cache

import (
	"fmt"

	"bce/internal/memory"
)

// Prefetcher is the stream-based hardware data prefetcher of the
// baseline machine (Table 1: "Stream-based, 16 streams"). It watches
// demand misses, learns per-stream line strides (ascending,
// descending, or multi-line strides from >64-byte walks), and fills
// ahead into the L2.
//
// Each miss does the same as three scans over the streams would (find
// a trained stream expecting the line, else a training stream within
// maxStride lines, else take over the first unused or least recently
// used stream), but in near-constant work: two counting filters rule
// out the first two scans for most misses, and a recency list names
// the victim.
type Prefetcher struct {
	// Per-stream state, indexed by stream. Streams are taken into use
	// in index order and never given up, so streams [0, used) are live.
	next  []uint64 // next expected line when trained; noNext while training
	last  []uint64 // last miss line
	delta []int64  // learned line stride; 0 while training
	used  int

	// The recency list links every stream, most recently used at head.
	// Unused streams start at the tail in index order, so the tail is
	// the first unused stream while one is left, else the least
	// recently used one.
	newer, older []int32
	head, tail   int32

	// advances[b] counts the trained streams with next&filterMask == b,
	// trains[b] the training streams with last>>trainShift&filterMask
	// == b. A zero count skips the matching scan.
	advances [filterSize]uint32
	trains   [filterSize]uint32

	issued   uint64
	triggers uint64 // misses that advanced or trained a stream
	// buf holds the depth prefetch lines Miss returns. It is reused:
	// the caller consumes it before the next call, so the steady-state
	// access path allocates nothing.
	buf []uint64
}

const (
	// maxStride is the longest line stride a stream learns, either way.
	maxStride = 8
	// noNext is a training stream's next line. A trained stream's next
	// line can take the same value, so an advance also checks delta.
	noNext = ^uint64(0)

	filterSize = 256
	filterMask = filterSize - 1
	// trainShift makes a trains bucket 16 lines wide, so the lines
	// within maxStride of a miss fall in at most two buckets.
	trainShift = 4
)

// NewPrefetcher returns a prefetcher tracking `streams` concurrent
// streams and prefetching `depth` strides ahead on each stream
// advance. Strides up to ±8 lines are learned.
func NewPrefetcher(streams, depth int) *Prefetcher {
	if streams < 1 || depth < 1 {
		panic(fmt.Sprintf("cache: prefetcher needs positive streams/depth, got %d/%d", streams, depth))
	}
	p := &Prefetcher{
		next:  make([]uint64, streams),
		last:  make([]uint64, streams),
		delta: make([]int64, streams),
		newer: make([]int32, streams),
		older: make([]int32, streams),
		head:  int32(streams - 1),
		buf:   make([]uint64, depth),
	}
	for i := range p.newer {
		p.newer[i] = int32(i) + 1
		p.older[i] = int32(i) - 1
	}
	p.newer[streams-1] = -1
	return p
}

// Stats returns the number of prefetch fills issued and the number of
// misses that issued them: misses that advanced a trained stream plus
// misses that taught a training stream its stride.
func (p *Prefetcher) Stats() (issued, triggers uint64) { return p.issued, p.triggers }

// advance moves stream i, trained, to line: it counts the stream's
// next expected line, makes it the most recently used and returns the
// depth lines past line along its stride.
func (p *Prefetcher) advance(i int, line uint64) []uint64 {
	d := uint64(p.delta[i])
	p.last[i] = line
	p.next[i] = line + d
	p.advances[(line+d)&filterMask]++
	p.touch(int32(i))
	out := p.buf
	for k := range out {
		line += d
		out[k] = line
	}
	p.issued += uint64(len(out))
	p.triggers++
	return out
}

// touch makes stream i the most recently used.
func (p *Prefetcher) touch(i int32) {
	if i == p.head {
		return
	}
	nw, od := p.newer[i], p.older[i]
	p.older[nw] = od
	if od >= 0 {
		p.newer[od] = nw
	} else {
		p.tail = nw
	}
	p.newer[i] = -1
	p.older[i] = p.head
	p.newer[p.head] = i
	p.head = i
}

// trainBucket is the trains bucket of a training stream's last line.
func trainBucket(line uint64) int { return int(line >> trainShift & filterMask) }

// Miss notifies the prefetcher of a demand miss at line-granular
// address `line` and returns the lines to prefetch (possibly nil).
// The returned slice is reused by the next call; consume it before
// calling Miss again.
func (p *Prefetcher) Miss(line uint64) []uint64 {
	// A trained stream advances when the miss lands on its next
	// expected line; the lowest-numbered such stream wins.
	if p.advances[line&filterMask] != 0 {
		for i, n := range p.next[:p.used] {
			if n == line && p.delta[i] != 0 {
				p.advances[line&filterMask]--
				return p.advance(i, line)
			}
		}
	}
	// A training stream learns its stride from the second nearby miss.
	// Differences wrap like the lines do, so a stream near line 0 and
	// one near the top of the line space are neighbours.
	if p.trains[trainBucket(line-maxStride)]|p.trains[trainBucket(line+maxStride)] != 0 {
		for i, l := range p.last[:p.used] {
			if d := int64(line - l); p.delta[i] == 0 && d != 0 && d >= -maxStride && d <= maxStride {
				p.trains[trainBucket(l)]--
				p.delta[i] = d
				return p.advance(i, line)
			}
		}
	}
	// Allocate a fresh training stream over the recency victim.
	v := p.tail
	switch {
	case int(v) == p.used:
		p.used++
	case p.delta[v] != 0:
		p.advances[p.next[v]&filterMask]--
	default:
		p.trains[trainBucket(p.last[v])]--
	}
	p.next[v], p.last[v], p.delta[v] = noNext, line, 0
	p.trains[trainBucket(line)]++
	p.touch(v)
	return nil
}

// Latencies gives the access times of each level of the data
// hierarchy, in cycles.
type Latencies struct {
	L1, L2, Memory int
}

// DefaultLatencies models the baseline machine: 3-cycle L1D, 16-cycle
// L2, 300-cycle memory.
func DefaultLatencies() Latencies { return Latencies{L1: 3, L2: 16, Memory: 300} }

// Hierarchy is the load/store path: L1D backed by a unified L2 backed
// by memory (with bus contention), with the stream prefetcher filling
// L2 (and L1 for depth-1 lines).
type Hierarchy struct {
	l1, l2   *Cache
	pf       *Prefetcher
	bus      *memory.Bus
	lat      Latencies
	lineBits uint
}

// HierarchyConfig sizes the data-side hierarchy; zero-valued fields
// take the baseline machine's parameters.
type HierarchyConfig struct {
	L1       Config
	L2       Config
	Lat      Latencies
	Streams  int
	PFDepth  int
	Bus      memory.BusConfig
	NoPrefch bool
}

// NewBaselineHierarchy returns the Table 1 memory subsystem: 32K 8-way
// L1D, 1M 8-way L2, 64-byte lines, 16-stream prefetcher.
func NewBaselineHierarchy() *Hierarchy {
	return NewHierarchy(HierarchyConfig{})
}

// NewHierarchy builds a hierarchy from cfg, defaulting unset fields to
// the baseline machine.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.L1.SizeBytes == 0 {
		cfg.L1 = Config{SizeBytes: 32 * 1024, Assoc: 8, LineBytes: 64}
	}
	if cfg.L2.SizeBytes == 0 {
		cfg.L2 = Config{SizeBytes: 1024 * 1024, Assoc: 8, LineBytes: 64}
	}
	if cfg.Lat == (Latencies{}) {
		cfg.Lat = DefaultLatencies()
	}
	if cfg.Streams == 0 {
		cfg.Streams = 16
	}
	if cfg.PFDepth == 0 {
		cfg.PFDepth = 2
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.L1.LineBytes {
		lineBits++
	}
	h := &Hierarchy{
		l1:       New(cfg.L1),
		l2:       New(cfg.L2),
		bus:      memory.NewBus(cfg.Bus),
		lat:      cfg.Lat,
		lineBits: lineBits,
	}
	if !cfg.NoPrefch {
		h.pf = NewPrefetcher(cfg.Streams, cfg.PFDepth)
	}
	return h
}

// L1 exposes the first-level data cache for statistics.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 exposes the unified second-level cache for statistics.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Prefetcher returns the stream prefetcher, or nil when disabled.
func (h *Hierarchy) Prefetcher() *Prefetcher { return h.pf }

// Access performs a demand access at the given cycle and returns the
// load-to-use latency in cycles. Stores take the same path (the model
// charges them for the fill; store buffering hides the latency at the
// pipeline level).
func (h *Hierarchy) Access(addr uint64, cycle uint64) int {
	if h.l1.Access(addr) {
		return h.lat.L1
	}
	if h.l2.Access(addr) {
		// Streams advance on L2 hits too (prefetched-line use), which
		// keeps a trained stream running ahead of the demand stream
		// instead of stuttering miss-hit-hit-miss.
		h.prefetch(addr)
		return h.lat.L1 + h.lat.L2
	}
	h.prefetch(addr)
	wait := h.bus.Occupy(cycle)
	return h.lat.L1 + h.lat.L2 + h.lat.Memory + wait
}

func (h *Hierarchy) prefetch(addr uint64) {
	if h.pf == nil {
		return
	}
	for _, line := range h.pf.Miss(addr >> h.lineBits) {
		a := line << h.lineBits
		h.l2.Fill(a)
	}
}
