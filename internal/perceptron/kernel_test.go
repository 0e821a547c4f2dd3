package perceptron

import (
	"math/rand"
	"testing"
)

// kernel_test.go proves the branchless kernels in kernel.go are
// bit-exact against the retained reference implementation in
// reference.go: same outputs and same weights after arbitrary
// interleaved Output/Train sequences, at every supported weight width
// and at history lengths that exercise every unroll tail.

// refPerceptron runs the reference kernels over its own weight copy.
type refPerceptron struct {
	w        []Weight
	max, min Weight
}

func newRefPerceptron(n, bits int) *refPerceptron {
	max, min := weightRange(bits)
	return &refPerceptron{w: make([]Weight, n+1), max: max, min: min}
}

func (r *refPerceptron) output(hist uint64) int { return referenceDot(r.w, hist) }
func (r *refPerceptron) train(hist uint64, t int) {
	referenceTrainStep(r.w, hist, t, r.min, r.max)
}

// checkAgainstReference drives the optimized perceptron and the
// reference through the same op sequence, failing on the first
// divergence in output or weight state.
func checkAgainstReference(t *testing.T, hlen, bits int, rng *rand.Rand, steps int) {
	t.Helper()
	p := New(hlen, bits)
	ref := newRefPerceptron(hlen, bits)
	for step := 0; step < steps; step++ {
		hist := rng.Uint64()
		if rng.Intn(2) == 0 {
			got, want := p.Output(hist), ref.output(hist)
			if got != want {
				t.Fatalf("hlen=%d bits=%d step=%d: Output(%#x) = %d, reference %d",
					hlen, bits, step, hist, got, want)
			}
		} else {
			tgt := 1 - 2*rng.Intn(2)
			p.Train(hist, tgt)
			ref.train(hist, tgt)
			for i, w := range p.Weights() {
				if w != ref.w[i] {
					t.Fatalf("hlen=%d bits=%d step=%d: weight[%d] = %d, reference %d",
						hlen, bits, step, i, w, ref.w[i])
				}
			}
		}
	}
}

// TestKernelBitExactAllWidths sweeps every weight width 2..15 and
// history lengths covering each unroll remainder (n mod 4 ∈ {0,1,2,3})
// plus the paper geometry and the 64-bit maximum.
func TestKernelBitExactAllWidths(t *testing.T) {
	hlens := []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32, 33, 63, 64}
	for bits := 2; bits <= 15; bits++ {
		rng := rand.New(rand.NewSource(int64(bits) * 7919))
		for _, hlen := range hlens {
			checkAgainstReference(t, hlen, bits, rng, 300)
		}
	}
}

// TestScalarKernelBitExact holds the portable scalar kernels to the
// reference directly. On amd64 the Perceptron/Table paths above
// exercise the SSE2 kernels, so without this the scalar fallback (the
// production kernel everywhere else, and the tail path on amd64) would
// only be covered for sub-8-weight tails.
func TestScalarKernelBitExact(t *testing.T) {
	hlens := []int{1, 3, 4, 7, 8, 13, 31, 32, 33, 64}
	for bits := 2; bits <= 15; bits++ {
		rng := rand.New(rand.NewSource(int64(bits) * 104729))
		for _, hlen := range hlens {
			opt := newRefPerceptron(hlen, bits)
			ref := newRefPerceptron(hlen, bits)
			for step := 0; step < 200; step++ {
				hist := rng.Uint64()
				if rng.Intn(2) == 0 {
					got, want := dotScalar(opt.w, hist), referenceDot(ref.w, hist)
					if got != want {
						t.Fatalf("hlen=%d bits=%d step=%d: dotScalar = %d, reference %d",
							hlen, bits, step, got, want)
					}
				} else {
					tgt := 1 - 2*rng.Intn(2)
					trainScalar(opt.w, hist, tgt, opt.min, opt.max)
					referenceTrainStep(ref.w, hist, tgt, ref.min, ref.max)
					for i, w := range opt.w {
						if w != ref.w[i] {
							t.Fatalf("hlen=%d bits=%d step=%d: weight[%d] = %d, reference %d",
								hlen, bits, step, i, w, ref.w[i])
						}
					}
				}
			}
		}
	}
}

// kernelTiers names the two kernels every build keeps: the portable
// scalar one and the production one behind Perceptron. The second is
// the SSE2 kernel on amd64; on other architectures dot and trainStep
// are the scalar kernel again. Each is driven over a bare weight slice
// so both can be held to the reference in one op stream.
var kernelTiers = []struct {
	name  string
	dot   func(w []Weight, hist uint64) int
	train func(w []Weight, hist uint64, t int, min, max Weight)
}{
	{"scalar", dotScalar, trainScalar},
	{"sse2", dot, func(w []Weight, hist uint64, t int, min, max Weight) {
		trainStep(w, hist, t, packBounds(min, max))
	}},
}

// TestKernelAllTiersBitExact runs the single-call equivalence proof on
// each kernel directly, at history lengths around every unroll and
// vector-width boundary.
func TestKernelAllTiersBitExact(t *testing.T) {
	hlens := []int{1, 3, 8, 13, 16, 31, 32, 33, 64}
	for _, k := range kernelTiers {
		t.Run(k.name, func(t *testing.T) {
			for _, bits := range []int{2, 8, 15} {
				rng := rand.New(rand.NewSource(int64(bits) * 1299709))
				for _, hlen := range hlens {
					got := newRefPerceptron(hlen, bits)
					ref := newRefPerceptron(hlen, bits)
					for step := 0; step < 200; step++ {
						hist := rng.Uint64()
						if rng.Intn(2) == 0 {
							if g, w := k.dot(got.w, hist), ref.output(hist); g != w {
								t.Fatalf("hlen=%d bits=%d step=%d: dot = %d, reference %d",
									hlen, bits, step, g, w)
							}
							continue
						}
						tgt := 1 - 2*rng.Intn(2)
						k.train(got.w, hist, tgt, got.min, got.max)
						ref.train(hist, tgt)
						for i, w := range got.w {
							if w != ref.w[i] {
								t.Fatalf("hlen=%d bits=%d step=%d: weight[%d] = %d, reference %d",
									hlen, bits, step, i, w, ref.w[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestTableKernelMatchesReference drives a full Table through the fast
// Output/Train paths and mirrors every op into reference perceptrons,
// checking the flat rows stay bit-identical (including row isolation:
// training one PC must not disturb any other row).
func TestTableKernelMatchesReference(t *testing.T) {
	const entries, hlen, bits = 16, 13, 6
	tbl := NewTable(entries, hlen, bits)
	refs := make([]*refPerceptron, entries)
	for i := range refs {
		refs[i] = newRefPerceptron(hlen, bits)
	}
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 4000; step++ {
		pc := rng.Uint64()
		hist := rng.Uint64()
		row := tbl.Index(pc)
		if rng.Intn(2) == 0 {
			if got, want := tbl.Output(pc, hist), refs[row].output(hist); got != want {
				t.Fatalf("step %d: Output(pc=%#x) = %d, reference %d", step, pc, got, want)
			}
		} else {
			tgt := 1 - 2*rng.Intn(2)
			tbl.Train(pc, hist, tgt)
			refs[row].train(hist, tgt)
		}
	}
	for i := 0; i < entries; i++ {
		got := tbl.Lookup(uint64(i) << 2).Weights()
		for j, w := range got {
			if w != refs[i].w[j] {
				t.Fatalf("row %d weight %d: %d != reference %d", i, j, w, refs[i].w[j])
			}
		}
	}
}

// FuzzKernelBitExact is the fuzz form of the equivalence proof: the
// fuzzer picks the geometry and an arbitrary interleaving of Output and
// Train ops (with histories and targets derived from the op stream), and
// both kernels — the production one (SSE2 on amd64) and the portable
// scalar one — must agree exactly with the reference.
func FuzzKernelBitExact(f *testing.F) {
	f.Add(uint8(32), uint8(8), int64(1), []byte{0, 1, 2, 3, 255, 128})
	f.Add(uint8(1), uint8(2), int64(2), []byte{7})
	f.Add(uint8(64), uint8(15), int64(3), []byte{0xAA, 0x55, 0x00, 0xFF})
	f.Add(uint8(13), uint8(5), int64(4), []byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, hlenU, bitsU uint8, seed int64, ops []byte) {
		hlen := 1 + int(hlenU)%64 // 1..64
		bits := 2 + int(bitsU)%14 // 2..15
		p := New(hlen, bits)
		scalar := newRefPerceptron(hlen, bits) // weights driven by the scalar kernels
		ref := newRefPerceptron(hlen, bits)
		rng := rand.New(rand.NewSource(seed))
		for step, op := range ops {
			hist := rng.Uint64()
			if op&1 == 0 {
				want := ref.output(hist)
				if got := p.Output(hist); got != want {
					t.Fatalf("hlen=%d bits=%d step=%d: Output = %d, reference %d",
						hlen, bits, step, got, want)
				}
				if got := dotScalar(scalar.w, hist); got != want {
					t.Fatalf("hlen=%d bits=%d step=%d: dotScalar = %d, reference %d",
						hlen, bits, step, got, want)
				}
			} else {
				tgt := 1
				if op&2 != 0 {
					tgt = -1
				}
				p.Train(hist, tgt)
				trainScalar(scalar.w, hist, tgt, scalar.min, scalar.max)
				ref.train(hist, tgt)
			}
		}
		for i, w := range p.Weights() {
			if w != ref.w[i] || scalar.w[i] != ref.w[i] {
				t.Fatalf("hlen=%d bits=%d: final weight[%d] = %d (scalar %d), reference %d",
					hlen, bits, i, w, scalar.w[i], ref.w[i])
			}
		}
	})
}

// FuzzKernelTiersBitExact fuzzes the op-sequence equivalence proof on
// each kernel directly: the same geometry and op stream must leave every
// kernel with the reference's outputs and final weights.
func FuzzKernelTiersBitExact(f *testing.F) {
	f.Add(uint8(32), uint8(8), int64(1), []byte{0, 1, 2, 3, 255, 128})
	f.Add(uint8(1), uint8(2), int64(2), []byte{7})
	f.Add(uint8(64), uint8(15), int64(3), []byte{0xAA, 0x55, 0x00, 0xFF})
	f.Fuzz(func(t *testing.T, hlenU, bitsU uint8, seed int64, ops []byte) {
		hlen := 1 + int(hlenU)%64
		bits := 2 + int(bitsU)%14
		for _, k := range kernelTiers {
			got := newRefPerceptron(hlen, bits)
			ref := newRefPerceptron(hlen, bits)
			rng := rand.New(rand.NewSource(seed))
			for step, op := range ops {
				hist := rng.Uint64()
				if op&1 == 0 {
					if g, w := k.dot(got.w, hist), ref.output(hist); g != w {
						t.Fatalf("%s hlen=%d bits=%d step=%d: dot = %d, reference %d",
							k.name, hlen, bits, step, g, w)
					}
					continue
				}
				tgt := 1
				if op&2 != 0 {
					tgt = -1
				}
				k.train(got.w, hist, tgt, got.min, got.max)
				ref.train(hist, tgt)
			}
			for i, w := range got.w {
				if w != ref.w[i] {
					t.Fatalf("%s hlen=%d bits=%d: final weight[%d] = %d, reference %d",
						k.name, hlen, bits, i, w, ref.w[i])
				}
			}
		}
	})
}

// TestTableLazyAllocation pins the lazy-materialization contract: a
// fresh table answers every geometry query without allocating weight
// storage (sweep jobs derive cache keys by constructing estimators just
// to read Name/SizeBytes — on a cache hit that must stay table-free),
// and the first real access builds the flat array exactly once.
func TestTableLazyAllocation(t *testing.T) {
	tbl := NewTable(128, 32, 8)
	_ = tbl.Entries()
	_ = tbl.HistoryLen()
	_ = tbl.WeightBits()
	_ = tbl.SizeBytes()
	tbl.Reset()
	if tbl.w != nil {
		t.Fatal("geometry queries materialized the backing array")
	}
	if y := tbl.Output(0x40, 0); y != 0 {
		t.Fatalf("fresh table Output = %d, want 0", y)
	}
	if tbl.w == nil {
		t.Fatal("access did not materialize the backing array")
	}
	if len(tbl.w) != 128*33 {
		t.Fatalf("backing array holds %d weights, want %d", len(tbl.w), 128*33)
	}
}

// TestTableResetReusesBacking pins the drive-by guarantee: Reset is a
// single clear of the flat backing array — same array before and after,
// zero allocations.
func TestTableResetReusesBacking(t *testing.T) {
	tbl := NewTable(64, 16, 8)
	tbl.Train(0x1000, 0xF0F0, 1)
	before := &tbl.w[0]
	if n := testing.AllocsPerRun(100, tbl.Reset); n != 0 {
		t.Errorf("Reset allocates %v times per call, want 0", n)
	}
	if &tbl.w[0] != before {
		t.Error("Reset replaced the backing array instead of clearing it")
	}
	if y := tbl.Output(0x1000, 0xF0F0); y != 0 {
		t.Errorf("Output after Reset = %d, want 0", y)
	}
}

// TestTableHotPathAllocFree pins the steady-state allocation contract
// of the simulation hot path: once materialized, Output and Train never
// allocate.
func TestTableHotPathAllocFree(t *testing.T) {
	tbl := NewTable(128, 32, 8)
	tbl.Output(0, 0) // materialize
	var pc uint64
	if n := testing.AllocsPerRun(200, func() {
		tbl.Output(pc, pc*0x9E3779B97F4A7C15)
		tbl.Train(pc, pc, 1)
		pc += 4
	}); n != 0 {
		t.Errorf("Output+Train allocate %v times per call, want 0", n)
	}
}
