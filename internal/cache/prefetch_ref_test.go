package cache

import "fmt"

// refPrefetcher is the stream prefetcher as it was written before the
// indexed Prefetcher: three scans over the streams per miss (advance,
// stride learning, LRU victim). It is kept verbatim as the
// behavioural reference the differential tests hold Prefetcher to.
type refPrefetcher struct {
	streams []refStream
	depth   int
	maxStr  int64
	issued  uint64
	useful  uint64 // advanced-stream hits (stream reuse)
	clock   uint64 // LRU allocation clock
	// buf is the reused prefetch-line scratch returned by Miss; the
	// caller consumes it before the next call, so the steady-state
	// access path allocates nothing.
	buf []uint64
}

type refStream struct {
	last    uint64 // last miss line
	delta   int64  // learned line stride; 0 while training
	lastUse uint64
	valid   bool
}

// newRefPrefetcher returns a prefetcher tracking `streams` concurrent
// streams and prefetching `depth` strides ahead on each stream
// advance. Strides up to ±8 lines are learned.
func newRefPrefetcher(streams, depth int) *refPrefetcher {
	if streams < 1 || depth < 1 {
		panic(fmt.Sprintf("cache: prefetcher needs positive streams/depth, got %d/%d", streams, depth))
	}
	return &refPrefetcher{
		streams: make([]refStream, streams),
		depth:   depth,
		maxStr:  8,
		buf:     make([]uint64, 0, depth),
	}
}

// Stats returns the number of prefetch fills issued and the number of
// stream advances (misses that matched a live stream).
func (p *refPrefetcher) Stats() (issued, advances uint64) { return p.issued, p.useful }

func (p *refPrefetcher) ahead(s *refStream) []uint64 {
	out := p.buf[:0]
	l := int64(s.last)
	for d := 1; d <= p.depth; d++ {
		out = append(out, uint64(l+s.delta*int64(d)))
	}
	p.issued += uint64(len(out))
	p.useful++
	return out
}

// Miss notifies the prefetcher of a demand miss at line-granular
// address `line` and returns the lines to prefetch (possibly nil).
// The returned slice is reused by the next call; consume it before
// calling Miss again.
func (p *refPrefetcher) Miss(line uint64) []uint64 {
	p.clock++
	// A trained stream advances when the miss lands on its next
	// expected line.
	for i := range p.streams {
		s := &p.streams[i]
		if s.valid && s.delta != 0 && line == uint64(int64(s.last)+s.delta) {
			s.last = line
			s.lastUse = p.clock
			return p.ahead(s)
		}
	}
	// A training stream learns its stride from the second nearby miss.
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid || s.delta != 0 {
			continue
		}
		d := int64(line) - int64(s.last)
		if d != 0 && d >= -p.maxStr && d <= p.maxStr {
			s.delta = d
			s.last = line
			s.lastUse = p.clock
			return p.ahead(s)
		}
	}
	// Allocate a fresh training stream over the LRU victim.
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid {
			victim = i
			break
		}
		if s.lastUse < oldest {
			oldest = s.lastUse
			victim = i
		}
	}
	p.streams[victim] = refStream{last: line, lastUse: p.clock, valid: true}
	return nil
}
