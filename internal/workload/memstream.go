package workload

import "fmt"

// MemProfile models a benchmark's data-address behavior as a mixture
// of three archetypes: sequential streaming (gzip/bzip compression
// buffers), strided array walks (vpr, twolf grids), and pointer
// chasing over a working set (mcf's network simplex, perlbmk's
// hashes). The mixture fractions plus the working-set size control
// the cache hit rates and hence the memory-bound character of the
// benchmark.
type MemProfile struct {
	// SeqFrac, StrideFrac and ChaseFrac are mixture weights
	// (normalized; all zero means all-sequential).
	SeqFrac, StrideFrac, ChaseFrac float64
	// StrideBytes is the stride of the strided walker (default 256).
	StrideBytes int
	// WorkingSetBytes bounds the pointer-chase region (default 1 MB).
	WorkingSetBytes int
	// Streams is the number of concurrent sequential streams
	// (default 4).
	Streams int
}

// memGen produces effective addresses for a workload's loads and
// stores.
type memGen struct {
	prof       MemProfile
	seqCur     []uint64
	strCur     uint64
	wsMask     uint64
	wsBase     uint64
	pSeq       float64
	pSeqStride float64 // pSeq plus the strided share: draws below it are not chases
	// skip's view of the same thresholds: a first value v (masked to
	// 63 bits) picks sequential iff v < seqBelow, and strided iff not
	// and v < strBelow.
	seqBelow, strBelow uint64
	// seqMask is Streams-1 when Streams is a power of two, where
	// picking a stream always takes exactly one value; skip relies on
	// that and otherwise falls back to next.
	seqMask  uint64
	maskable bool
}

func newMemGen(prof MemProfile, salt uint64) *memGen {
	if prof.StrideBytes == 0 {
		prof.StrideBytes = 256
	}
	if prof.WorkingSetBytes == 0 {
		prof.WorkingSetBytes = 1 << 20
	}
	if prof.Streams == 0 {
		prof.Streams = 4
	}
	if prof.StrideBytes < 1 || prof.WorkingSetBytes < 64 || prof.Streams < 1 {
		panic(fmt.Sprintf("workload: bad memory profile %+v", prof))
	}
	total := prof.SeqFrac + prof.StrideFrac + prof.ChaseFrac
	if total == 0 {
		prof.SeqFrac, total = 1, 1
	}
	pSeq := prof.SeqFrac / total
	pSeqStride := pSeq + prof.StrideFrac/total
	ws := uint64(1)
	for ws < uint64(prof.WorkingSetBytes) {
		ws <<= 1
	}
	// The salt offsets the sequential and strided cursors so that two
	// generators over the same profile (the main trace and the
	// wrong-path synthesizer) do not walk identical addresses — wrong
	// path work should not act as a perfect prefetcher for the
	// correct path. The pointer-chase region is shared deliberately:
	// warming a common working set is a real wrong-path side effect.
	g := &memGen{
		prof:       prof,
		seqCur:     make([]uint64, prof.Streams),
		wsMask:     ws - 1,
		wsBase:     0x2000_0000,
		strCur:     0x4000_0000 + salt*0x0080_0000,
		pSeq:       pSeq,
		pSeqStride: pSeqStride,
		seqBelow:   float64Below(pSeq),
		strBelow:   float64Below(pSeqStride),
		seqMask:    uint64(prof.Streams - 1),
		maskable:   prof.Streams&(prof.Streams-1) == 0,
	}
	for i := range g.seqCur {
		g.seqCur[i] = 0x1000_0000 + uint64(i)*0x0100_0000 + salt*0x0080_0000
	}
	return g
}

// next returns the next data address.
func (g *memGen) next(rng *Rand) uint64 {
	r := rng.Float64()
	switch {
	case r < g.pSeq:
		i := rng.Intn(len(g.seqCur))
		g.seqCur[i] += 8
		return g.seqCur[i]
	case r < g.pSeqStride:
		g.strCur += uint64(g.prof.StrideBytes)
		return g.strCur
	default:
		return g.wsBase + (rng.Uint64()&g.wsMask)&^7
	}
}

// skip advances the model over n draws as n calls of next would,
// leaving the cursors and rng where next leaves them, but computes no
// address. A draw takes one or two values of rng: the Float64 that
// picks the archetype, then a stream index (sequential) or the
// address bits (chase); a strided draw needs no second value. skip
// peeks at both values, compares the first as an integer and applies
// the outcome with masks, so the host branches on no random value.
// The rare Float64 retry, and stream counts that are not a power of
// two, whose Intn may reject and draw again, go through next.
func (g *memGen) skip(rng *Rand, n int) {
	for ; n > 0; n-- {
		if !g.maskable {
			g.next(rng)
			continue
		}
		d0, d1 := rng.peek2()
		v := d0 & rngMask
		if v >= float64Retry {
			g.next(rng)
			continue
		}
		seq := boolBit(v < g.seqBelow)
		str := boolBit(v < g.strBelow) &^ seq
		// Intn(Streams) is bits 32 and up of the second value, masked.
		g.seqCur[d1>>32&g.seqMask] += 8 & -seq
		g.strCur += uint64(g.prof.StrideBytes) & -str
		rng.drop(2 - int(str))
	}
}
