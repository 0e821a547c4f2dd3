package workload

import (
	"math/rand"
	"testing"
)

// randSeeds are the seeds TestRandMatchesMathRand checks: a few edge
// values, and the runtime and wrong-path seeds of every profile's two
// segments.
func randSeeds() []int64 {
	seeds := []int64{0, 1, -1, 1 << 40}
	for _, p := range Profiles() {
		for seg := 0; seg < 2; seg++ {
			seeds = append(seeds, runtimeSeed(p.Seed, seg), wrongPathSeed(p.Seed, seg))
		}
	}
	return seeds
}

// randIntns are Intn arguments: powers of two, which mask one value,
// and odd ones, whose rejection sampling draws again. 1<<30+1 and
// 1<<62+1 reject about half of all values.
var randIntns = []int{1, 2, 4, 8, 1 << 20, 1 << 40, 3, 5, 39, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<62 + 1}

// TestRandMatchesMathRand checks that Rand yields math/rand's streams:
// a mix of Float64, Intn, Uint64 and Int63 draws over several block
// refills must equal rand.New(rand.NewSource(seed))'s, draw by draw.
func TestRandMatchesMathRand(t *testing.T) {
	const draws = 5 * randBlock
	for _, seed := range randSeeds() {
		r, ref := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			var got, want any
			switch op := i * 7 % 11; {
			case op < 4:
				got, want = r.Float64(), ref.Float64()
			case op < 8:
				n := randIntns[i%len(randIntns)]
				got, want = r.Intn(n), ref.Intn(n)
			case op < 10:
				got, want = r.Uint64(), ref.Uint64()
			default:
				got, want = r.Int63(), ref.Int63()
			}
			if got != want {
				t.Fatalf("seed %d draw %d: got %v, math/rand %v", seed, i, got, want)
			}
		}
	}

	// A value whose Float64 rounds up to 1.0, injected into both
	// streams in place of the second value: both must draw again.
	const seed = 3
	r := NewRand(seed)
	r.Uint64()
	r.buf[r.n-1] = rngMask
	src := &injected{Source64: rand.NewSource(seed).(rand.Source64)}
	src.Uint64()
	src.Uint64()
	src.queue = []uint64{rngMask}
	ref := rand.New(src)
	if f := float64(int64(rngMask)) / (1 << 63); f != 1 {
		t.Fatalf("the injected value converts to %v, not 1.0", f)
	}
	n := r.n
	for i := 0; i < 3*randBlock; i++ {
		if got, want := r.Float64(), ref.Float64(); got != want {
			t.Fatalf("draw %d after the injected value: got %v, math/rand %v", i, got, want)
		}
		if i == 0 && r.n != n-2 {
			t.Fatalf("Float64 over the injected value took %d values, want 2", n-r.n)
		}
	}
}

// injected is a math/rand source that yields queued values before its
// underlying source's.
type injected struct {
	rand.Source64
	queue []uint64
}

func (s *injected) Uint64() uint64 {
	if len(s.queue) > 0 {
		v := s.queue[0]
		s.queue = s.queue[1:]
		return v
	}
	return s.Source64.Uint64()
}

func (s *injected) Int63() int64 { return int64(s.Uint64() & rngMask) }

// TestRandCopyContinues checks that a value copy of a Rand taken in
// the middle of a block continues the original's stream, and that
// drawing from either leaves the other alone.
func TestRandCopyContinues(t *testing.T) {
	r := NewRand(42)
	for i := 0; i < randBlock+100; i++ {
		r.Float64()
	}
	c := *r
	want := make([]uint64, 3*randBlock)
	for i := range want {
		want[i] = r.Uint64()
	}
	for i, w := range want {
		if got := c.Uint64(); got != w {
			t.Fatalf("copy draw %d = %#x, original drew %#x", i, got, w)
		}
	}
	if *r != c {
		t.Fatal("original and copy differ after the same draws")
	}
}

// TestMemSkipMatchesNext checks that memGen.skip leaves the stream
// cursors and the random source exactly where the same number of
// memGen.next calls leaves them: over random memory profiles, stream
// counts that skip handles with masks and ones it hands to next, at
// refill boundaries, for first values on either side of each archetype
// threshold, and for a first value whose Float64 retries.
func TestMemSkipMatchesNext(t *testing.T) {
	pr := rand.New(rand.NewSource(11))
	fracs := []float64{0, 0, 0.05, 0.3, 0.5, 1}
	streams := []int{0, 1, 2, 3, 4, 5, 8, 12}
	for trial := 0; trial < 200; trial++ {
		prof := MemProfile{
			SeqFrac:     fracs[pr.Intn(len(fracs))] * pr.Float64(),
			StrideFrac:  fracs[pr.Intn(len(fracs))] * pr.Float64(),
			ChaseFrac:   fracs[pr.Intn(len(fracs))] * pr.Float64(),
			StrideBytes: 8 * pr.Intn(64),
			Streams:     streams[trial%len(streams)],
		}
		salt := uint64(trial % 2)
		skip, next := newMemGen(prof, salt), newMemGen(prof, salt)
		rs, rn := NewRand(int64(trial)), NewRand(int64(trial))
		check := func(step int) {
			t.Helper()
			if skip.strCur != next.strCur {
				t.Fatalf("trial %d (%+v) step %d: strided cursor at %#x after skip, %#x after next",
					trial, prof, step, skip.strCur, next.strCur)
			}
			for i := range skip.seqCur {
				if skip.seqCur[i] != next.seqCur[i] {
					t.Fatalf("trial %d (%+v) step %d: stream %d at %#x after skip, %#x after next",
						trial, prof, step, i, skip.seqCur[i], next.seqCur[i])
				}
			}
			// skip may refill a block earlier than next, so the
			// sources are compared by what copies of them draw.
			a, b := *rs, *rn
			for i := 0; i < randBlock+2; i++ {
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("trial %d (%+v) step %d: draw %d after skip is %#x, after next %#x",
						trial, prof, step, i, x, y)
				}
			}
		}
		// inject makes v the next value of both sources.
		inject := func(v uint64) {
			for _, r := range []*Rand{rs, rn} {
				if r.n == 0 {
					r.refill()
				}
				r.buf[r.n-1] = v
			}
		}
		edges := []uint64{skip.seqBelow - 1, skip.seqBelow, skip.strBelow - 1, skip.strBelow, float64Retry - 1, float64Retry, rngMask}
		for step := 0; step < 3*randBlock; step++ {
			switch step % 5 {
			case 0:
				// Leave one value before the refill, so that peek2
				// straddles two blocks.
				for rs.n != 1 {
					rs.Uint64()
					rn.Uint64()
				}
			case 1:
				inject(edges[step/5%len(edges)] | pr.Uint64()&(1<<63))
			}
			k := pr.Intn(4)
			skip.skip(rs, k)
			for i := 0; i < k; i++ {
				next.next(rn)
			}
			check(step)
		}
	}
}

// BenchmarkRand times one draw of each kind the walk makes.
func BenchmarkRand(b *testing.B) {
	b.Run("Float64", func(b *testing.B) {
		r := NewRand(1)
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += r.Float64()
		}
		floatSink = sink
	})
	b.Run("Intn", func(b *testing.B) {
		r := NewRand(1)
		var sink int
		for i := 0; i < b.N; i++ {
			sink += r.Intn(4)
		}
		intSink = sink
	})
}

var (
	floatSink float64
	intSink   int
)
