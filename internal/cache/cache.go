// Package cache implements the memory-side structures of the baseline
// machine (Table 1): set-associative LRU caches, a two-level data
// hierarchy with a stream-based hardware prefetcher, and the trace
// cache used on the fetch side.
package cache

import "fmt"

// Cache is a set-associative cache with true-LRU replacement. It
// tracks presence only (tags, no data), which is all a timing model
// needs.
type Cache struct {
	// tags is one flat backing array, assoc consecutive words per set,
	// each set's ways MRU first; 0 = invalid. A flat layout (rather
	// than a slice of per-set slices) keeps the whole structure in one
	// allocation and makes a lookup a single bounds-checked slice
	// expression off one pointer — the set walk in Access is on the
	// per-uop miss-handling path of the timing model.
	tags     []uint64
	sets     int
	assoc    int
	lineBits uint
	hits     uint64
	misses   uint64
}

// Config sizes a cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Assoc is the associativity (ways).
	Assoc int
	// LineBytes is the line size; must be a power of two.
	LineBytes int
}

// New returns a cache. Size, associativity and line size must be
// positive, and SizeBytes must be divisible into at least one set.
// The set count SizeBytes/(Assoc*LineBytes) rounds down to a power of
// two, so other sizes build a smaller cache than asked for: 48 KiB,
// 8-way, with 64-byte lines gives 96 sets and is built with 64 (32
// KiB). Sets and Assoc report the geometry built.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Assoc <= 0 || cfg.LineBytes <= 0 {
		panic(fmt.Sprintf("cache: non-positive geometry %+v", cfg))
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", cfg.LineBytes))
	}
	sets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	if sets < 1 {
		sets = 1
	}
	// Round sets down to a power of two for mask indexing.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	return &Cache{
		tags:     make([]uint64, sets*cfg.Assoc),
		sets:     sets,
		assoc:    cfg.Assoc,
		lineBits: lineBits,
	}
}

// Sets returns the set count.
func (c *Cache) Sets() int { return c.sets }

// Assoc returns the way count.
func (c *Cache) Assoc() int { return c.assoc }

// line converts an address to a line-granular tag (nonzero for any
// address: bit 63 is set as a validity marker).
func (c *Cache) line(addr uint64) uint64 {
	return (addr >> c.lineBits) | 1<<63
}

func (c *Cache) set(addr uint64) []uint64 {
	base := int((addr>>c.lineBits)&uint64(c.sets-1)) * c.assoc
	return c.tags[base : base+c.assoc : base+c.assoc]
}

// Access looks up addr, updating LRU state and hit/miss counters. On a
// miss the line is filled (allocate-on-miss), evicting the LRU way.
// It reports whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	set := c.set(addr)
	tag := c.line(addr)
	for i, t := range set {
		if t == tag {
			// Move to MRU position.
			copy(set[1:i+1], set[:i])
			set[0] = tag
			c.hits++
			return true
		}
	}
	c.misses++
	copy(set[1:], set[:len(set)-1])
	set[0] = tag
	return false
}

// Probe reports whether addr is present without touching LRU state or
// counters.
func (c *Cache) Probe(addr uint64) bool {
	tag := c.line(addr)
	for _, t := range c.set(addr) {
		if t == tag {
			return true
		}
	}
	return false
}

// Fill inserts addr's line (prefetch path); it does not count as a hit
// or miss. A line already present is promoted to MRU.
func (c *Cache) Fill(addr uint64) {
	set := c.set(addr)
	tag := c.line(addr)
	for i, t := range set {
		if t == tag {
			copy(set[1:i+1], set[:i])
			set[0] = tag
			return
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = tag
}

// Stats returns cumulative demand hits and misses.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// HitRate returns hits/(hits+misses), or 0 for an untouched cache.
func (c *Cache) HitRate() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

// Reset invalidates all lines and zeroes the counters.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
	}
	c.hits, c.misses = 0, 0
}
