package perceptron

// kernel.go holds the branchless scalar dot-product and training
// kernels every perceptron in the repository runs on. The paper
// observes (§5.4.2) that perceptron hardware needs no multiplier
// because the inputs are ±1: each weight is added or subtracted. The
// software analogue is that no *branch* is needed either: the
// add/subtract select is computed with the two's-complement sign-mask
// identity
//
//	x = +w  when b = 1:  m = 0  → (w ^ 0)  - 0  =  w
//	x = -w  when b = 0:  m = -1 → (w ^ -1) - -1 = ^w + 1 = -w
//
// with m = int(b) - 1, unrolled 4-wide over a re-sliced window (the
// slice-advance form is what lets the compiler drop every bounds
// check) with independent accumulators so the adds do not serialize
// into one dependency chain.
//
// On amd64 the production kernels are the SSE2 kernels in
// kernel_amd64.s (PMADDWD against a ±1 sign-vector table), which
// compute the identical exact integer results eight lanes at a time
// and use the same sign-mask identity for their sub-8-weight tail.
// kernel_generic.go routes everything through the scalar kernels here
// on other architectures.
//
// The original per-bit branchy loops survive in reference.go as the
// executable specification; the fuzz and property tests in
// kernel_test.go hold both kernels — scalar and SSE2 — bit-exact
// against them.

// dotScalar computes w[0] + Σ w[i+1]·x[i] where x[i] = +1 if history
// bit i is set and -1 otherwise. w must hold the bias at w[0].
func dotScalar(w []Weight, hist uint64) int {
	y := int(w[0])
	x := w[1:]
	b := hist
	var y0, y1, y2, y3 int
	for len(x) >= 4 {
		m0 := int(b&1) - 1
		m1 := int(b>>1&1) - 1
		m2 := int(b>>2&1) - 1
		m3 := int(b>>3&1) - 1
		y0 += (int(x[0]) ^ m0) - m0
		y1 += (int(x[1]) ^ m1) - m1
		y2 += (int(x[2]) ^ m2) - m2
		y3 += (int(x[3]) ^ m3) - m3
		x = x[4:]
		b >>= 4
	}
	for i := range x {
		m := int(b&1) - 1
		y0 += (int(x[i]) ^ m) - m
		b >>= 1
	}
	return y + y0 + y1 + y2 + y3
}

// trainScalar applies one perceptron update toward target t (±1): the
// bias moves by t, and w[i+1] moves by t·x[i], saturating at
// [min, max]. The add/subtract select uses the same sign-mask identity
// as dotScalar; the saturation clamp is a pair of compare+select
// operations (CMOV on amd64), not a branch.
func trainScalar(w []Weight, hist uint64, t int, min, max Weight) {
	w[0] = sat(int(w[0])+t, min, max)
	x := w[1:]
	b := hist
	for len(x) >= 4 {
		m0 := int(b&1) - 1
		m1 := int(b>>1&1) - 1
		m2 := int(b>>2&1) - 1
		m3 := int(b>>3&1) - 1
		x[0] = sat(int(x[0])+((t^m0)-m0), min, max)
		x[1] = sat(int(x[1])+((t^m1)-m1), min, max)
		x[2] = sat(int(x[2])+((t^m2)-m2), min, max)
		x[3] = sat(int(x[3])+((t^m3)-m3), min, max)
		x = x[4:]
		b >>= 4
	}
	for i := range x {
		m := int(b&1) - 1
		x[i] = sat(int(x[i])+((t^m)-m), min, max)
		b >>= 1
	}
}

// sat clamps v to [min, max]. Written as two selects so the compiler
// emits conditional moves rather than branches.
func sat(v int, min, max Weight) Weight {
	if v > int(max) {
		v = int(max)
	}
	if v < int(min) {
		v = int(min)
	}
	return Weight(v)
}
