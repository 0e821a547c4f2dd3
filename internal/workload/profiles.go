package workload

import (
	"fmt"
	"sort"
)

// Mix-entry factories. Each returns a MixEntry whose Make draws
// per-branch parameters, so two branches in the same class still
// differ (their own bias level, loop period, context bit…).

// BiasedMix yields branches taken (or not taken — half are inverted)
// with bias drawn from [lo, hi], quadratically skewed toward hi: real
// branch populations are dominated by very strongly biased branches
// (guards, error checks), with a thinner tail of weaker ones.
func BiasedMix(weight, lo, hi float64) MixEntry {
	return MixEntry{Weight: weight, Extreme: true, Make: func(rng *Rand) Behavior {
		u := rng.Float64()
		p := hi - (hi-lo)*u*u
		if rng.Intn(2) == 0 {
			p = 1 - p
		}
		return Biased{PTaken: p}
	}}
}

// PatternMix yields repeating local patterns of length [minL, maxL].
func PatternMix(weight float64, minL, maxL int) MixEntry {
	return MixEntry{Weight: weight, Stateful: true, Make: func(rng *Rand) Behavior {
		n := minL + rng.Intn(maxL-minL+1)
		seq := make([]bool, n)
		for i := range seq {
			seq[i] = rng.Intn(2) == 0
		}
		// Guarantee the pattern is not constant (that would be Biased).
		seq[0] = true
		seq[n-1] = false
		return Pattern{Seq: seq}
	}}
}

// GCorrMix yields branches whose outcome is a linear function of 2-3
// recent global-history bits below maxBit, flipped with probability
// noise. With maxBit <= 14 the baseline gshare can learn them.
func GCorrMix(weight float64, maxBit int, noise float64) MixEntry {
	return MixEntry{Weight: weight, Make: func(rng *Rand) Behavior {
		n := 2 + rng.Intn(2)
		bits := make([]int, n)
		signs := make([]int, n)
		for i := range bits {
			bits[i] = rng.Intn(maxBit)
			signs[i] = 1 - 2*rng.Intn(2)
		}
		return GlobalCorr{Bits: bits, Signs: signs, Noise: noise}
	}}
}

// CtxBiasMix yields the misprediction-generating construction: a
// strong hi-probability majority bias that flips toward lo inside a
// rare minority context — a 2-bit conjunction of history bits drawn
// from [minBit, maxBit] (use >= 16 to exceed the baseline predictor's
// reach). Branch direction is randomly inverted per branch.
func CtxBiasMix(weight float64, minBit, maxBit int, hi, lo float64) MixEntry {
	return MixEntry{Weight: weight, Extreme: true, Make: func(rng *Rand) Behavior {
		pMaj, pMin := hi, lo
		bits := make([]int, 0, 3)
		for len(bits) < 3 {
			c := minBit + rng.Intn(maxBit-minBit+1)
			dup := false
			for _, e := range bits {
				if e == c {
					dup = true
				}
			}
			if !dup {
				bits = append(bits, c)
			}
		}
		want := []bool{rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0}
		return ContextBiased{
			Bits:   bits,
			Want:   want,
			PMajor: pMaj,
			PMinor: pMin,
		}
	}}
}

// PhaseMix yields branches whose bias follows the benchmark's global
// program phase (hi in one phase, lo in the other, randomly swapped
// per branch): the source of bursty, history-detectable
// mispredictions.
func PhaseMix(weight, hi, lo float64) MixEntry {
	return MixEntry{Weight: weight, Extreme: true, Make: func(rng *Rand) Behavior {
		return PhaseBiased{P1: hi, P0: lo}
	}}
}

// RandomMix yields 50/50 unpredictable branches.
func RandomMix(weight float64) MixEntry {
	return MixEntry{Weight: weight, Make: func(rng *Rand) Behavior {
		return Random{}
	}}
}

// Table2Target records the paper's measured branch mispredicts per
// 1000 uops for each benchmark (Table 2, column 1), the calibration
// target for the profiles below.
var Table2Target = map[string]float64{
	"gzip": 5.2, "vpr": 6.6, "gcc": 2.3, "mcf": 16, "crafty": 3.4,
	"link": 4.6, "eon": 0.5, "perlbmk": 0.7, "gap": 1.7, "vortex": 0.2,
	"bzip": 1.1, "twolf": 6.3,
}

// Profiles returns the 12 SPECint 2000 benchmark models in the
// paper's Table 2 order. Each call returns fresh copies.
func Profiles() []Profile {
	return []Profile{
		{
			// gzip: compression; moderate mispredicts, streaming memory.
			Name: "gzip", Seed: 101, Blocks: 300, MeanBlockLen: 6,
			LoadFrac: 0.24, StoreFrac: 0.10, FPFrac: 0,
			LoopFrac: 0.011, LoopMin: 6, LoopMax: 20,
			Mix: []MixEntry{
				BiasedMix(0.6725, 0.995, 0.9998),
				BiasedMix(0.5072, 0.90, 0.97),
				GCorrMix(0.0428, 12, 0.01),
				PatternMix(0.0181, 3, 6),
				PhaseMix(0.0195, 0.97, 0.15),
				CtxBiasMix(0.7492, 17, 28, 0.985, 0.08),
				RandomMix(0.0269),
			},
			Mem: MemProfile{SeqFrac: 0.7, StrideFrac: 0.2, ChaseFrac: 0.1, WorkingSetBytes: 256 << 10},
		},
		{
			// vpr: place & route; data-dependent branches, strided grids.
			Name: "vpr", Seed: 102, Blocks: 400, MeanBlockLen: 6,
			LoadFrac: 0.26, StoreFrac: 0.09, FPFrac: 0.06,
			LoopFrac: 0.0145, LoopMin: 6, LoopMax: 20,
			Mix: []MixEntry{
				BiasedMix(0.5843, 0.995, 0.9998),
				BiasedMix(0.1026, 0.90, 0.97),
				GCorrMix(0.0544, 12, 0.01),
				PatternMix(0.0036, 3, 6),
				PhaseMix(0.0167, 0.97, 0.15),
				CtxBiasMix(0.2330, 17, 30, 0.985, 0.08),
				RandomMix(0.0054),
			},
			Mem: MemProfile{SeqFrac: 0.3, StrideFrac: 0.5, ChaseFrac: 0.2, WorkingSetBytes: 1 << 20, StrideBytes: 128},
		},
		{
			// gcc: huge static footprint, mostly well-predicted.
			Name: "gcc", Seed: 103, Blocks: 1200, MeanBlockLen: 6,
			LoadFrac: 0.25, StoreFrac: 0.11, FPFrac: 0,
			LoopFrac: 0.0045, LoopMin: 6, LoopMax: 20,
			Mix: []MixEntry{
				BiasedMix(0.8551, 0.995, 0.9998),
				BiasedMix(0.1172, 0.90, 0.97),
				GCorrMix(0.0189, 12, 0.01),
				PatternMix(0.0043, 3, 6),
				PhaseMix(0.0081, 0.97, 0.15),
				CtxBiasMix(0.2665, 17, 29, 0.985, 0.08),
				RandomMix(0.0063),
			},
			Mem: MemProfile{SeqFrac: 0.45, StrideFrac: 0.25, ChaseFrac: 0.3, WorkingSetBytes: 2 << 20},
		},
		{
			// mcf: network simplex; terrible branches and pointer chasing.
			Name: "mcf", Seed: 104, Blocks: 250, MeanBlockLen: 5,
			LoadFrac: 0.32, StoreFrac: 0.08, FPFrac: 0,
			LoopFrac: 0.0173, LoopMin: 6, LoopMax: 20,
			Mix: []MixEntry{
				BiasedMix(0.1366, 0.995, 0.9998),
				BiasedMix(0.1289, 0.90, 0.97),
				GCorrMix(0.1129, 12, 0.01),
				PatternMix(0.0045, 3, 6),
				PhaseMix(0.0210, 0.97, 0.15),
				CtxBiasMix(0.2927, 16, 31, 0.985, 0.08),
				RandomMix(0.0068),
			},
			Mem: MemProfile{SeqFrac: 0.1, StrideFrac: 0.1, ChaseFrac: 0.8, WorkingSetBytes: 16 << 20},
		},
		{
			// crafty: chess; long correlated chains, bitboard ALU mix.
			Name: "crafty", Seed: 105, Blocks: 500, MeanBlockLen: 7,
			LoadFrac: 0.22, StoreFrac: 0.07, FPFrac: 0,
			LoopFrac: 0.0079, LoopMin: 6, LoopMax: 20,
			Mix: []MixEntry{
				BiasedMix(0.7554, 0.995, 0.9998),
				BiasedMix(0.6298, 0.90, 0.97),
				GCorrMix(0.0320, 12, 0.01),
				PatternMix(0.0917, 3, 6),
				PhaseMix(0.0143, 0.97, 0.15),
				CtxBiasMix(0.6298, 17, 27, 0.985, 0.08),
				RandomMix(0.1398),
			},
			Mem: MemProfile{SeqFrac: 0.4, StrideFrac: 0.3, ChaseFrac: 0.3, WorkingSetBytes: 512 << 10},
		},
		{
			// link (parser): dictionary walks over linked structures.
			Name: "link", Seed: 106, Blocks: 450, MeanBlockLen: 6,
			LoadFrac: 0.27, StoreFrac: 0.10, FPFrac: 0,
			LoopFrac: 0.0096, LoopMin: 6, LoopMax: 20,
			Mix: []MixEntry{
				BiasedMix(0.7103, 0.995, 0.9998),
				BiasedMix(0.1447, 0.90, 0.97),
				GCorrMix(0.0379, 12, 0.01),
				PatternMix(0.0051, 3, 6),
				PhaseMix(0.0117, 0.97, 0.15),
				CtxBiasMix(0.3283, 17, 29, 0.985, 0.08),
				RandomMix(0.0076),
			},
			Mem: MemProfile{SeqFrac: 0.25, StrideFrac: 0.25, ChaseFrac: 0.5, WorkingSetBytes: 4 << 20},
		},
		{
			// eon: ray tracing; FP heavy, very predictable branches.
			Name: "eon", Seed: 107, Blocks: 350, MeanBlockLen: 9,
			LoadFrac: 0.22, StoreFrac: 0.10, FPFrac: 0.25,
			LoopFrac: 0.0011, LoopMin: 6, LoopMax: 20,
			Mix: []MixEntry{
				BiasedMix(0.9550, 0.995, 0.9998),
				BiasedMix(0.0980, 0.90, 0.97),
				GCorrMix(0.0059, 12, 0.01),
				PatternMix(0.0036, 3, 6),
				PhaseMix(0.0032, 0.97, 0.15),
				CtxBiasMix(0.2229, 18, 26, 0.985, 0.08),
				RandomMix(0.0056),
			},
			Mem: MemProfile{SeqFrac: 0.55, StrideFrac: 0.35, ChaseFrac: 0.1, WorkingSetBytes: 256 << 10},
		},
		{
			// perlbmk: interpreter; big dispatch but predictable overall.
			Name: "perlbmk", Seed: 1108, Blocks: 900, MeanBlockLen: 7,
			LoadFrac: 0.26, StoreFrac: 0.12, FPFrac: 0,
			LoopFrac: 0.0013, LoopMin: 6, LoopMax: 20,
			Mix: []MixEntry{
				BiasedMix(0.9496, 0.995, 0.9998),
				BiasedMix(0.0217, 0.90, 0.97),
				GCorrMix(0.0066, 12, 0.01),
				PatternMix(0.0006, 3, 6),
				PhaseMix(0.0036, 0.97, 0.15),
				CtxBiasMix(0.0491, 17, 28, 0.985, 0.08),
				RandomMix(0.0012),
			},
			Mem: MemProfile{SeqFrac: 0.3, StrideFrac: 0.2, ChaseFrac: 0.5, WorkingSetBytes: 1 << 20},
		},
		{
			// gap: group theory; loop-dominated, arrays.
			Name: "gap", Seed: 7109, Blocks: 400, MeanBlockLen: 7,
			LoadFrac: 0.25, StoreFrac: 0.10, FPFrac: 0.02,
			LoopFrac: 0.0031, LoopMin: 6, LoopMax: 20,
			Mix: []MixEntry{
				BiasedMix(0.8777, 0.995, 0.9998),
				BiasedMix(0.3880, 0.90, 0.97),
				GCorrMix(0.0160, 12, 0.01),
				PatternMix(0.0662, 3, 6),
				PhaseMix(0.0683, 0.97, 0.15),
				CtxBiasMix(0.3880, 17, 28, 0.985, 0.08),
				RandomMix(0.0991),
			},
			Mem: MemProfile{SeqFrac: 0.5, StrideFrac: 0.3, ChaseFrac: 0.2, WorkingSetBytes: 512 << 10},
		},
		{
			// vortex: OO database; famously predictable branches.
			Name: "vortex", Seed: 5110, Blocks: 800, MeanBlockLen: 7,
			LoadFrac: 0.28, StoreFrac: 0.13, FPFrac: 0,
			LoopFrac: 0.0004, LoopMin: 6, LoopMax: 20,
			Mix: []MixEntry{
				BiasedMix(0.9856, 0.995, 0.9998),
				BiasedMix(0.0035, 0.90, 0.97),
				GCorrMix(0.0019, 12, 0.01),
				PatternMix(0.0001, 3, 6),
				PhaseMix(0.0006, 0.97, 0.15),
				CtxBiasMix(0.0081, 18, 24, 0.985, 0.08),
				RandomMix(0.0002),
			},
			Mem: MemProfile{SeqFrac: 0.35, StrideFrac: 0.25, ChaseFrac: 0.4, WorkingSetBytes: 2 << 20},
		},
		{
			// bzip: compression; predictable with bursts.
			Name: "bzip", Seed: 111, Blocks: 280, MeanBlockLen: 6,
			LoadFrac: 0.24, StoreFrac: 0.10, FPFrac: 0,
			LoopFrac: 0.0017, LoopMin: 6, LoopMax: 20,
			Mix: []MixEntry{
				BiasedMix(0.9307, 0.995, 0.9998),
				BiasedMix(0.0991, 0.90, 0.97),
				GCorrMix(0.0091, 12, 0.01),
				PatternMix(0.0036, 3, 6),
				PhaseMix(0.0123, 0.97, 0.15),
				CtxBiasMix(0.2244, 17, 28, 0.985, 0.08),
				RandomMix(0.0053),
			},
			Mem: MemProfile{SeqFrac: 0.75, StrideFrac: 0.15, ChaseFrac: 0.1, WorkingSetBytes: 1 << 20},
		},
		{
			// twolf: placement; hard data-dependent branches.
			Name: "twolf", Seed: 112, Blocks: 420, MeanBlockLen: 6,
			LoadFrac: 0.26, StoreFrac: 0.09, FPFrac: 0.04,
			LoopFrac: 0.0138, LoopMin: 6, LoopMax: 20,
			Mix: []MixEntry{
				BiasedMix(0.6032, 0.995, 0.9998),
				BiasedMix(0.2368, 0.90, 0.97),
				GCorrMix(0.0519, 12, 0.01),
				PatternMix(0.0084, 3, 6),
				PhaseMix(0.0160, 0.97, 0.15),
				CtxBiasMix(0.5378, 16, 30, 0.985, 0.08),
				RandomMix(0.0126),
			},
			Mem: MemProfile{SeqFrac: 0.25, StrideFrac: 0.45, ChaseFrac: 0.3, WorkingSetBytes: 2 << 20, StrideBytes: 128},
		},
	}
}

// ByName returns the profile for a benchmark name.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
}

// Names returns the benchmark names in Table 2 order.
func Names() []string {
	ps := Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// SortedNames returns the benchmark names sorted alphabetically.
func SortedNames() []string {
	n := Names()
	sort.Strings(n)
	return n
}
