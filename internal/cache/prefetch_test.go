package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// missStream returns n random misses for a prefetcher: `walkers`
// strided walks (strides ±1 to ±9 lines, so some are too long to
// learn) interleaved with repeats, near misses, random jumps, and
// lines at both ends of the line space, where a stride wraps.
func missStream(r *rand.Rand, n, walkers int) []uint64 {
	pos := make([]uint64, walkers)
	stride := make([]int64, walkers)
	for w := range pos {
		pos[w] = r.Uint64() >> r.Intn(64)
		stride[w] = int64(r.Intn(9) + 1)
		if r.Intn(2) == 0 {
			stride[w] = -stride[w]
		}
	}
	out := make([]uint64, 0, n)
	var prev uint64
	for len(out) < n {
		w := r.Intn(walkers)
		var line uint64
		switch k := r.Intn(100); {
		case k < 50: // a walker steps, sometimes several times in a row
			for run := r.Intn(4); run >= 0 && len(out) < n-1; run-- {
				pos[w] += uint64(stride[w])
				out = append(out, pos[w])
			}
			pos[w] += uint64(stride[w])
			line = pos[w]
		case k < 58: // a walker changes stride
			stride[w] = int64(r.Intn(19) - 9)
			pos[w] += uint64(stride[w])
			line = pos[w]
		case k < 66: // a walker jumps
			pos[w] = r.Uint64() >> r.Intn(64)
			line = pos[w]
		case k < 74: // near the previous miss
			line = prev + uint64(r.Intn(19)-9)
		case k < 80:
			line = prev
		case k < 88: // lines 0-8, where a descending stride wraps
			line = uint64(r.Intn(9))
		case k < 94: // the top of the line space, where noNext lies
			line = noNext - uint64(r.Intn(9))
		default: // a random line in a small region, so filters collide
			line = uint64(r.Intn(1 << 14))
		}
		out = append(out, line)
		prev = line
	}
	return out
}

// prefetcherStateError checks p's derived state against its streams:
// the filters count exactly the live streams, a trained stream's next
// line follows its stride, a training one holds noNext, and the
// recency list links every stream once with the unused ones at the
// tail in index order.
func prefetcherStateError(p *Prefetcher) error {
	var advances, trains [filterSize]uint32
	for i := 0; i < p.used; i++ {
		if p.delta[i] != 0 {
			if want := p.last[i] + uint64(p.delta[i]); p.next[i] != want {
				return fmt.Errorf("stream %d next %d, want %d", i, p.next[i], want)
			}
			advances[p.next[i]&filterMask]++
		} else {
			if p.next[i] != noNext {
				return fmt.Errorf("training stream %d next %d, want noNext", i, p.next[i])
			}
			trains[trainBucket(p.last[i])]++
		}
	}
	if advances != p.advances {
		return errors.New("advances filter does not count the trained streams")
	}
	if trains != p.trains {
		return errors.New("trains filter does not count the training streams")
	}
	n := int32(len(p.next))
	pos, prev := int32(0), int32(-1)
	for i := p.head; i >= 0; i = p.older[i] {
		if pos == n || p.newer[i] != prev {
			return fmt.Errorf("recency list broken at stream %d", i)
		}
		// From position used on, the unused streams run down to the tail.
		if pos >= int32(p.used) && i != n-1-(pos-int32(p.used)) {
			return fmt.Errorf("unused stream %d at list position %d", i, pos)
		}
		pos, prev = pos+1, i
	}
	if pos != n || p.tail != prev {
		return fmt.Errorf("recency list holds %d of %d streams, tail %d want %d", pos, n, p.tail, prev)
	}
	return nil
}

// matchReference feeds lines to a Prefetcher and to refPrefetcher and
// fails at the first miss where their prefetches or stats disagree, or
// the Prefetcher's derived state is inconsistent.
func matchReference(t *testing.T, streams, depth int, lines []uint64) {
	t.Helper()
	p, ref := NewPrefetcher(streams, depth), newRefPrefetcher(streams, depth)
	for k, line := range lines {
		got, want := p.Miss(line), ref.Miss(line)
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("streams %d depth %d, miss %d (line %d): prefetched %v, reference %v", streams, depth, k, line, got, want)
		}
		gi, gt := p.Stats()
		wi, wt := ref.Stats()
		if gi != wi || gt != wt {
			t.Fatalf("streams %d depth %d, miss %d: stats %d/%d, reference %d/%d", streams, depth, k, gi, gt, wi, wt)
		}
		if err := prefetcherStateError(p); err != nil {
			t.Fatalf("streams %d depth %d, miss %d: %v", streams, depth, k, err)
		}
	}
}

var testStreamCounts = []int{1, 2, 16, 17, 64, 65, 100}

func TestPrefetcherMatchesReference(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 2000
	}
	for _, streams := range testStreamCounts {
		for depth := 1; depth <= 4; depth++ {
			for seed := int64(0); seed < 3; seed++ {
				r := rand.New(rand.NewSource(seed*1000 + int64(streams*10+depth)))
				// Fewer walkers than streams keeps streams alive long
				// enough to advance; more forces evictions.
				walkers := 1 + r.Intn(2*streams+4)
				matchReference(t, streams, depth, missStream(r, n, walkers))
			}
		}
	}
}

// FuzzPrefetcherMatchesReference drives both prefetchers with a line
// stream decoded from the input, two bytes per miss: the first picks
// how the line follows the previous one, the second is the operand.
func FuzzPrefetcherMatchesReference(f *testing.F) {
	for _, streams := range testStreamCounts {
		r := rand.New(rand.NewSource(int64(streams)))
		ops := make([]byte, 128)
		r.Read(ops)
		f.Add(uint8(streams-1), uint8(streams%4), ops)
	}
	f.Fuzz(func(t *testing.T, streams, depth uint8, ops []byte) {
		var lines []uint64
		var prev uint64
		for k := 0; k+1 < len(ops); k += 2 {
			arg := uint64(ops[k+1])
			switch ops[k] % 6 {
			case 0: // within ±9 lines: advances, learns and too-long strides
				prev += arg%19 - 9
			case 1: // a jump into a small region
				prev = arg << 5
			case 2: // a far jump
				prev = arg << 40
			case 3: // near line 0
				prev = arg % 9
			case 4: // near the top of the line space
				prev = noNext - arg%9
			case 5: // a fresh region
				prev += arg << 12
			}
			lines = append(lines, prev)
		}
		matchReference(t, 1+int(streams)%128, 1+int(depth)%4, lines)
	})
}

// prefetchBenchStream returns a deterministic miss stream with the mix
// the 12-benchmark sim-baseline run shows: about 25% of misses advance
// a trained stream, 9% teach a training stream its stride, and the
// rest allocate a stream.
func prefetchBenchStream(n int) []uint64 {
	r := rand.New(rand.NewSource(1))
	walkers := [2]struct {
		pos    uint64
		stride int64
	}{{1 << 30, 1}, {2 << 30, -2}}
	out := make([]uint64, n)
	var fresh uint64 // the last allocated line, 0 once it has trained
	for k := range out {
		switch c := r.Intn(100); {
		case c < 28:
			w := &walkers[k&1]
			w.pos += uint64(w.stride)
			out[k] = w.pos
		case c < 37 && fresh != 0:
			out[k] = fresh + uint64(r.Intn(8)+1)
			fresh = 0
		default:
			fresh = r.Uint64() >> 8
			out[k] = fresh
		}
	}
	return out
}

// BenchmarkPrefetcherMiss times one miss per op (so ns/op is ns per
// miss) for Prefetcher and for refPrefetcher.
func BenchmarkPrefetcherMiss(b *testing.B) {
	lines := prefetchBenchStream(1 << 16)
	run := func(b *testing.B, miss func(uint64) []uint64) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			miss(lines[i&(len(lines)-1)])
		}
	}
	b.Run("indexed", func(b *testing.B) { run(b, NewPrefetcher(16, 2).Miss) })
	b.Run("reference", func(b *testing.B) { run(b, newRefPrefetcher(16, 2).Miss) })
}
