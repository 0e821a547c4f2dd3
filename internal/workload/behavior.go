// Package workload synthesizes the 12 SPECint 2000 benchmark traces
// the paper evaluates on (Table 2). Real LIT traces are proprietary,
// so each benchmark is modeled as a synthetic program: a control-flow
// graph of basic blocks whose conditional branches draw their outcomes
// from per-branch behavior models, with per-benchmark uop mixes,
// register-dependence structure and memory-address streams. The
// behavior mixes are calibrated so the baseline hybrid predictor
// reproduces each benchmark's mispredicts-per-1000-uops from Table 2.
//
// See DESIGN.md §1 for why this substitution preserves what the
// paper's experiments exercise.
package workload

import "fmt"

// BranchState is the per-static-branch mutable state a Behavior may
// use (loop trip counters, pattern positions, mode flags).
type BranchState struct {
	Counter int
	Pos     int
}

// Env is the dynamic context a behavior may consult: the global
// outcome history (bit 0 = most recent conditional branch outcome,
// 1 = taken — the same information a hardware history register holds)
// and the program phase (a benchmark-global mode bit that toggles
// slowly, modeling program phase behavior; see Profile.PhaseLen).
type Env struct {
	Ghist uint64
	Phase bool
}

// Behavior decides the outcome of one dynamic instance of a static
// branch.
type Behavior interface {
	// Outcome returns taken/not-taken for the next dynamic instance.
	Outcome(st *BranchState, env Env, rng *Rand) bool
	// Kind names the behavior class for workload inspection tools.
	Kind() string
}

// Biased takes one direction with fixed probability; the bread and
// butter of real branch populations (error checks, guard clauses).
type Biased struct {
	// PTaken is the probability of taken on each instance.
	PTaken float64
}

// Outcome implements Behavior.
func (b Biased) Outcome(st *BranchState, env Env, rng *Rand) bool {
	return rng.Float64() < b.PTaken
}

// Kind implements Behavior.
func (b Biased) Kind() string { return fmt.Sprintf("biased(%.2f)", b.PTaken) }

// Loop models a backward loop branch: taken Period-1 consecutive
// times, then not taken once (loop exit).
type Loop struct {
	// Period is the trip count; must be >= 2.
	Period int
}

// Outcome implements Behavior.
func (l Loop) Outcome(st *BranchState, env Env, rng *Rand) bool {
	st.Counter++
	if st.Counter >= l.Period {
		st.Counter = 0
		return false
	}
	return true
}

// Kind implements Behavior.
func (l Loop) Kind() string { return fmt.Sprintf("loop(%d)", l.Period) }

// Pattern repeats a fixed local outcome sequence (e.g. T,T,N,T),
// modeling data-structure traversals with periodic structure. Local
// or global-history predictors learn it once the period is in reach.
type Pattern struct {
	Seq []bool
}

// Outcome implements Behavior.
func (p Pattern) Outcome(st *BranchState, env Env, rng *Rand) bool {
	out := p.Seq[st.Pos]
	st.Pos = (st.Pos + 1) % len(p.Seq)
	return out
}

// Kind implements Behavior.
func (p Pattern) Kind() string { return fmt.Sprintf("pattern(%d)", len(p.Seq)) }

// GlobalCorr computes the outcome as a (possibly noisy) linear
// function of selected global-history bits: taken iff
// Σ sign_i·h[Bits[i]] > 0, with ties broken toward taken, then flipped
// with probability Noise. Bits within the baseline predictor's
// history reach (< 16) make the branch learnable by gshare; deeper
// bits leave the predictor struggling while the 32-bit-history
// confidence perceptron can still see the correlation.
type GlobalCorr struct {
	Bits  []int
	Signs []int // ±1 per bit; nil means all +1
	Noise float64
}

// Outcome implements Behavior.
func (g GlobalCorr) Outcome(st *BranchState, env Env, rng *Rand) bool {
	sum := 0
	for i, b := range g.Bits {
		v := -1
		if env.Ghist>>uint(b)&1 == 1 {
			v = 1
		}
		if g.Signs != nil {
			v *= g.Signs[i]
		}
		sum += v
	}
	out := sum >= 0
	if g.Noise > 0 && rng.Float64() < g.Noise {
		out = !out
	}
	return out
}

// Kind implements Behavior.
func (g GlobalCorr) Kind() string { return fmt.Sprintf("gcorr(%v,%.2f)", g.Bits, g.Noise) }

// ContextBiased is the construction that gives confidence estimators
// something to learn (DESIGN.md §1): the branch follows a strong
// majority bias except in a *rare minority context* — a conjunction of
// global-history bits placed (partly) beyond the baseline predictor's
// reach — where it swings the other way. The predictor saturates on
// the majority direction, so its mispredictions concentrate in the
// minority context; a conjunction of history bits is linearly
// separable, so the 32-bit-history confidence perceptron can learn to
// flag exactly those instances while a 16-bit-history gshare cannot
// see the deciding bits.
type ContextBiased struct {
	// Bits are the deciding global-history bit positions (use >= 16
	// to exceed the baseline gshare's reach).
	Bits []int
	// Want are the per-bit values defining the minority context: the
	// context holds when every Bits[i] equals Want[i].
	Want []bool
	// PMajor and PMinor are the taken probabilities outside and inside
	// the minority context.
	PMajor, PMinor float64
}

// Outcome implements Behavior.
func (c ContextBiased) Outcome(st *BranchState, env Env, rng *Rand) bool {
	minority := true
	for i, b := range c.Bits {
		bit := env.Ghist>>uint(b)&1 == 1
		if bit != c.Want[i] {
			minority = false
			break
		}
	}
	p := c.PMajor
	if minority {
		p = c.PMinor
	}
	return rng.Float64() < p
}

// Kind implements Behavior.
func (c ContextBiased) Kind() string {
	return fmt.Sprintf("ctxbias(h%v=%v:%.2f/%.2f)", c.Bits, c.Want, c.PMajor, c.PMinor)
}

// PhaseBiased ties the branch's bias to the benchmark's global
// program phase: taken with probability P1 in phase 1 and P0 in
// phase 0. Because phases last hundreds of branches, mispredictions
// arrive in bursts — the clustering that gives resetting-counter
// estimators (JRS) their high coverage, and that a history-driven
// perceptron can detect from the phase-distorted recent outcome
// history.
type PhaseBiased struct {
	P1, P0 float64
}

// Outcome implements Behavior.
func (p PhaseBiased) Outcome(st *BranchState, env Env, rng *Rand) bool {
	pr := p.P0
	if env.Phase {
		pr = p.P1
	}
	return rng.Float64() < pr
}

// Kind implements Behavior.
func (p PhaseBiased) Kind() string {
	return fmt.Sprintf("phase(%.2f/%.2f)", p.P1, p.P0)
}

// Random is a 50/50 data-dependent branch no predictor can learn;
// pure misprediction (and JRS coverage) fodder.
type Random struct{}

// Outcome implements Behavior.
func (Random) Outcome(st *BranchState, env Env, rng *Rand) bool {
	return rng.Intn(2) == 0
}

// Kind implements Behavior.
func (Random) Kind() string { return "random" }

// BlendPart is one component of a Blend.
type BlendPart struct {
	// Weight is the probability mass of this component (normalized
	// over the blend).
	Weight float64
	// B is the component behavior; it must be stateless (no use of
	// BranchState), which all mix classes except Pattern satisfy.
	B Behavior
}

// Blend mixes several behaviors on one static branch: each dynamic
// instance draws its outcome from one component, chosen by weight.
// The generator synthesizes blends for branches so hot that no single
// class's dynamic budget could absorb them — real hot branches are
// rarely pure archetypes either.
type Blend struct {
	Parts []BlendPart
	total float64
}

// NewBlend returns a blend over the given parts. It panics on an
// empty or zero-weight part list.
func NewBlend(parts []BlendPart) *Blend {
	var total float64
	for _, p := range parts {
		total += p.Weight
	}
	if len(parts) == 0 || total <= 0 {
		panic("workload: empty blend")
	}
	return &Blend{Parts: parts, total: total}
}

// Outcome implements Behavior.
func (b *Blend) Outcome(st *BranchState, env Env, rng *Rand) bool {
	pick := rng.Float64() * b.total
	for _, p := range b.Parts {
		pick -= p.Weight
		if pick < 0 {
			return p.B.Outcome(st, env, rng)
		}
	}
	return b.Parts[len(b.Parts)-1].B.Outcome(st, env, rng)
}

// Kind implements Behavior.
func (b *Blend) Kind() string { return fmt.Sprintf("blend(%d)", len(b.Parts)) }

// MixEntry weights a behavior class within a Profile's static-branch
// population. Make is called once per static branch assigned to the
// class, so each branch gets its own parameter draw (its own loop
// period, bias level, context bit…).
type MixEntry struct {
	// Weight is the target *dynamic* share of conditional branches
	// drawing from this entry (weights are normalized over the mix).
	Weight float64
	// Make builds one static branch's behavior.
	Make func(rng *Rand) Behavior
	// Extreme marks strongly directional classes (Biased); the
	// generator places them on structurally directional branches so
	// the hotness probe can anticipate their paths.
	Extreme bool
	// Stateful marks classes whose behaviors use BranchState
	// (Pattern); they cannot participate in synthesized blends.
	Stateful bool
}
