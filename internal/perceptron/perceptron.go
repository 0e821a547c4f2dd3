// Package perceptron implements the single-layer perceptron used by
// both the confidence estimator (the paper's contribution, §3) and the
// Jimenez/Lin perceptron branch predictor (used as a baseline predictor
// in §5.2 and as the perceptron_tnt confidence baseline in §5.3).
//
// A perceptron is a vector of small signed saturating-integer weights
// w[0..n]; w[0] is the bias weight with an implicit always-1 input.
// The inputs x[1..n] are the global branch history bits mapped to ±1
// (taken = +1). The output is the dot product
//
//	y = w[0] + Σ w[i]·x[i]
//
// Because inputs are ±1 no multiplier is needed: each weight is added
// or subtracted (paper §5.4.2). The add/subtract select is computed
// branchlessly with a sign mask (see kernel.go); the original branchy
// loops survive in reference.go as the executable specification the
// kernels are fuzzed against.
package perceptron

import "fmt"

// Weight is the storage type for perceptron weights. int16 comfortably
// holds any configured width up to 15 bits plus sign.
type Weight = int16

// Perceptron is one standalone weight vector. Construct with New; the
// zero value has no weights and is unusable. Table-resident perceptrons
// live in a Table's flat backing array and are reached with Lookup or
// the Table.Output/Table.Train fast paths.
type Perceptron struct {
	// w[0] is the bias weight; w[1..n] pair with history bits 0..n-1.
	w        []Weight
	max, min Weight
	bounds   int64 // packBounds(min, max), preformatted for trainStep
}

// New returns a perceptron with n history inputs (n+1 weights, all
// zero) and `bits`-bit saturating weights (2..15). With bits = 8 the
// weights saturate at [-128, 127], the paper's default.
func New(n, bits int) *Perceptron {
	if n < 1 {
		panic(fmt.Sprintf("perceptron: need at least 1 input, got %d", n))
	}
	max, min := weightRange(bits)
	return &Perceptron{w: make([]Weight, n+1), max: max, min: min, bounds: packBounds(min, max)}
}

// packBounds formats the saturation bounds as the single word
// trainStep takes: min in the low 16 bits, max sign-extended above.
// One packed argument instead of two keeps the Train wrappers inside
// the inlining budget, which is what keeps the train hot path a single
// call deep.
func packBounds(min, max Weight) int64 {
	return int64(max)<<16 | int64(uint16(min))
}

// weightRange returns the saturation bounds for a bits-bit weight,
// validating the width.
func weightRange(bits int) (max, min Weight) {
	if bits < 2 || bits > 15 {
		panic(fmt.Sprintf("perceptron: weight bits %d outside [2,15]", bits))
	}
	max = Weight(1<<(bits-1) - 1)
	return max, -max - 1
}

// Inputs returns the number of history inputs n.
func (p *Perceptron) Inputs() int { return len(p.w) - 1 }

// WeightRange returns the saturation bounds [min, max].
func (p *Perceptron) WeightRange() (min, max Weight) { return p.min, p.max }

// Weights exposes the raw weight vector (w[0] is the bias). The slice
// aliases the perceptron's storage; callers must not modify it.
func (p *Perceptron) Weights() []Weight { return p.w }

// Output computes the dot product of the weights with the ±1 inputs
// derived from hist: history bit i (0 = most recent branch, 1 = taken)
// contributes +w[i+1] when set and -w[i+1] when clear. The bias w[0]
// always contributes positively.
func (p *Perceptron) Output(hist uint64) int {
	return dot(p.w, hist)
}

// Train adjusts the weights toward target t (±1) for the given history:
// w[i] += t·x[i] with saturation, where x[0] = 1 and x[i] = ±1 from
// hist. The caller decides *whether* to train (the threshold tests
// differ between the predictor and the confidence estimator).
// Target validation lives inside trainStep (the assembly kernel checks
// and panics on a non-±1 target): a Go-side check would push this
// wrapper past the inlining budget and cost the hot path a second
// call level.
func (p *Perceptron) Train(hist uint64, t int) {
	trainStep(p.w, hist, t, p.bounds)
}

// Reset zeroes all weights.
func (p *Perceptron) Reset() {
	clear(p.w)
}

// Table is an array of perceptrons indexed by branch address, "just
// like in a regular branch predictor" (paper §3, Figure 3).
//
// The storage is struct-of-arrays: one contiguous []Weight backing
// array holding every row back to back, with no per-entry slice
// headers. A lookup is an offset computation into that array, rows
// shared by nearby branches stay in the same cache lines, and Reset is
// a single clear of the backing array. The array is materialized
// lazily on first access, so constructing a Table only to read its
// geometry — the result-cache key derivation does this for every
// estimator on every sweep job, hits included — allocates no weight
// storage at all.
type Table struct {
	// w is the flat backing array, entries × stride weights, row i at
	// w[i*stride : (i+1)*stride]. Nil until the first access.
	w        []Weight
	entries  int
	stride   int // hlen + 1 (bias first, then one weight per history bit)
	hlen     int
	bits     int
	max, min Weight
	bounds   int64  // packBounds(min, max), preformatted for trainStep
	mask     uint64 // entries - 1; entries is always a power of two
}

// NewTable returns a table of `entries` perceptrons, each with hlen
// history inputs and bits-bit weights. The paper's default estimator is
// 128 entries × 32 history × 8 bits = 4 KB + bias weights.
//
// Hardware tables are power-of-two indexed, so entries is rounded UP to
// the next power of two: NewTable(96, ...) builds a 128-entry table.
// Every observable property reflects the rounded size — Entries
// returns it and SizeBytes charges for it — so an equal-budget
// comparison (Table 6) that asks for a non-power-of-two entry count is
// silently comparing against the next size up. Pick power-of-two entry
// counts when the storage budget is the point of the experiment.
func NewTable(entries, hlen, bits int) *Table {
	if entries < 1 {
		panic("perceptron: table needs at least one entry")
	}
	if hlen < 1 {
		panic(fmt.Sprintf("perceptron: table needs at least 1 history input, got %d", hlen))
	}
	size := 1
	for size < entries {
		size <<= 1
	}
	max, min := weightRange(bits)
	return &Table{
		entries: size,
		stride:  hlen + 1,
		hlen:    hlen,
		bits:    bits,
		max:     max,
		min:     min,
		bounds:  packBounds(min, max),
		mask:    uint64(size - 1),
	}
}

// Entries returns the number of perceptrons actually built — the
// requested count rounded up to a power of two (see NewTable).
func (t *Table) Entries() int { return t.entries }

// HistoryLen returns the history inputs per perceptron.
func (t *Table) HistoryLen() int { return t.hlen }

// WeightBits returns the configured weight width.
func (t *Table) WeightBits() int { return t.bits }

// SizeBytes returns the storage the table would occupy in hardware:
// entries × (hlen+1) weights × bits, rounded up to whole bytes. The
// entry count is the rounded power-of-two size, not the count NewTable
// was asked for — the Table 6 equal-budget comparisons depend on the
// charge matching the table that actually runs.
func (t *Table) SizeBytes() int {
	totalBits := t.entries * t.stride * t.bits
	return (totalBits + 7) / 8
}

// index maps a branch address to a row number.
func (t *Table) index(pc uint64) int { return int((pc >> 2) & t.mask) }

// row returns pc's row of the backing array, materializing the array on
// first use. The three-index slice caps the row so the kernels' bounds
// checks fold into the one computed here.
func (t *Table) row(pc uint64) []Weight {
	w := t.w
	if w == nil {
		w = t.materialize()
	}
	off := t.index(pc) * t.stride
	return w[off : off+t.stride : off+t.stride]
}

// materialize allocates the flat backing array: one allocation for the
// whole table, kept out of row so the hot path stays inlineable.
func (t *Table) materialize() []Weight {
	t.w = make([]Weight, t.entries*t.stride)
	return t.w
}

// Output computes pc's perceptron output against hist. This is the
// predictor/estimator hot path: an offset computation plus the
// branchless dot-product kernel, no intermediate views.
func (t *Table) Output(pc, hist uint64) int {
	return dot(t.row(pc), hist)
}

// Train applies one training step toward target tgt (±1) to pc's
// perceptron for the given history snapshot.
func (t *Table) Train(pc, hist uint64, tgt int) {
	trainStep(t.row(pc), hist, tgt, t.bounds) // trainStep validates tgt
}

// Row is a view of one table entry, aliasing the table's backing array.
// It exists for inspection and tests; the simulation hot paths go
// through Table.Output and Table.Train directly.
type Row struct {
	w        []Weight
	max, min Weight
	bounds   int64
}

// Lookup returns a view of the perceptron for a branch address.
func (t *Table) Lookup(pc uint64) Row {
	return Row{w: t.row(pc), max: t.max, min: t.min, bounds: t.bounds}
}

// Index returns the table row number a branch address maps to.
func (t *Table) Index(pc uint64) int { return t.index(pc) }

// Output computes the row's perceptron output for hist.
func (r Row) Output(hist uint64) int { return dot(r.w, hist) }

// Train applies one training step toward target t (±1).
func (r Row) Train(hist uint64, t int) {
	trainStep(r.w, hist, t, r.bounds) // trainStep validates t
}

// Weights exposes the row's weight vector (bias first), aliasing the
// table's storage; callers must not modify it.
func (r Row) Weights() []Weight { return r.w }

// Reset zeroes every perceptron in the table: one clear of the flat
// backing array, reusing it in place (no re-allocation, so sweep loops
// that reset between segments generate no garbage). A table that was
// never accessed has nothing to clear.
func (t *Table) Reset() {
	clear(t.w)
}
