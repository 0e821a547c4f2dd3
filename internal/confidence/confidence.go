// Package confidence implements branch confidence estimators: the
// paper's perceptron estimator trained on correct/incorrect outcomes
// (PerceptronCIC, §3), and every baseline it is measured against —
// the enhanced JRS resetting-counter estimator, the perceptron_tnt
// scheme of Jimenez/Lin (§5.3), Smith's self-confidence counters, and
// Tyson's pattern-history estimator (§2.3).
//
// # Protocol
//
// For every dynamic conditional branch, in program order:
//
//	tok := est.Estimate(pc, predictedTaken)   // at fetch
//	...
//	est.Train(pc, tok, mispredicted, taken)   // at retire
//
// Estimate captures everything the estimator needs to train later (the
// history and output it saw at prediction time) in the returned Token,
// mirroring hardware that carries the estimate down the pipeline with
// the branch. Wrong-path branches receive Estimates (they interact with
// pipeline gating) but are never Trained, because they never retire.
//
// # Classification
//
// Token.Class() maps the estimate onto the paper's three bands: high
// confidence, weakly low confidence (pipeline-gating candidates) and
// strongly low confidence (branch-reversal candidates, §5.5). Binary
// estimators only ever produce High and WeakLow.
package confidence

// Class is the confidence band assigned to a branch prediction.
type Class uint8

const (
	// High confidence: the prediction is likely correct.
	High Class = iota
	// WeakLow confidence: likely-enough wrong to gate fetch behind it
	// (paper: output between the gating and reversal thresholds).
	WeakLow
	// StrongLow confidence: likely wrong with enough margin that
	// reversing the prediction wins (paper: output above the reversal
	// threshold).
	StrongLow
)

// String returns the band name.
func (c Class) String() string {
	switch c {
	case High:
		return "high"
	case WeakLow:
		return "weak-low"
	case StrongLow:
		return "strong-low"
	default:
		return "class(?)"
	}
}

// Low reports whether the band is either low-confidence band.
func (c Class) Low() bool { return c != High }

// Token is one confidence estimate, produced at prediction time and
// handed back at training time. It carries the raw multi-valued output
// (for perceptron estimators), the assigned band, and the history
// snapshot training needs.
type Token struct {
	// Output is the estimator's raw output. For perceptron estimators
	// this is the dot product y; for counter estimators it is the
	// counter value. Its orientation is estimator-specific (a high CIC
	// output predicts a misprediction, a high JRS counter a correct
	// prediction), so decisions use Band, never Output.
	Output int
	// Band is the confidence band assigned at estimate time.
	Band Class
	// Hist is the estimator's history register at estimate time;
	// perceptron training replays it.
	Hist uint64
	// PredTaken is the front-end prediction direction the estimate was
	// made for (enhanced JRS folds it into its index).
	PredTaken bool
	// Sub carries member estimators' tokens through the pipeline for
	// composite estimators (Fused); nil otherwise.
	Sub []Token
}

// Class returns the band assigned at estimate time.
func (t Token) Class() Class { return t.Band }

// Estimator assigns confidence to conditional branch predictions.
type Estimator interface {
	// Estimate classifies the prediction for the branch at pc, made in
	// program order at fetch. predictedTaken is the front-end
	// prediction (after any hybrid selection, before any reversal).
	Estimate(pc uint64, predictedTaken bool) Token
	// Train updates the estimator at retirement. tok must be the Token
	// from this branch's Estimate; mispredicted says whether the
	// original front-end prediction was wrong; taken is the resolved
	// direction (estimators keep their own history registers).
	Train(pc uint64, tok Token, mispredicted, taken bool)
	// Name identifies the estimator in reports.
	Name() string
}

// TraceOracle is implemented by estimators that need ground truth at
// estimate time. The trace-driven pipeline knows each branch's real
// outcome when it fetches it, and calls ObserveNext immediately before
// Estimate for estimators implementing this interface. Only bounding
// experiments and tests use it.
type TraceOracle interface {
	// ObserveNext supplies whether the upcoming prediction is wrong.
	ObserveNext(mispredicted bool)
}

// Oracle is a perfect estimator for bounding experiments and tests: it
// must be told the truth before each Estimate (the pipeline does this
// automatically via the TraceOracle interface).
type Oracle struct {
	nextWrong bool
}

// NewOracle returns a perfect confidence estimator.
func NewOracle() *Oracle { return &Oracle{} }

// ObserveNext implements TraceOracle.
func (o *Oracle) ObserveNext(mispredicted bool) { o.nextWrong = mispredicted }

// Estimate implements Estimator.
func (o *Oracle) Estimate(pc uint64, predictedTaken bool) Token {
	band := High
	out := -1
	if o.nextWrong {
		band = StrongLow
		out = 1
	}
	return Token{Output: out, Band: band, PredTaken: predictedTaken}
}

// Train implements Estimator (nothing to learn).
func (o *Oracle) Train(pc uint64, tok Token, mispredicted, taken bool) {}

// Name implements Estimator.
func (o *Oracle) Name() string { return "oracle" }

var _ Estimator = (*Oracle)(nil)

// AlwaysHigh is a degenerate estimator that never flags low confidence;
// running the gating machinery with it must reproduce the ungated
// baseline exactly (used in tests and as the "gating off" control).
type AlwaysHigh struct{}

// Estimate implements Estimator.
func (AlwaysHigh) Estimate(pc uint64, predictedTaken bool) Token {
	return Token{Output: -1, Band: High, PredTaken: predictedTaken}
}

// Train implements Estimator.
func (AlwaysHigh) Train(pc uint64, tok Token, mispredicted, taken bool) {}

// Name implements Estimator.
func (AlwaysHigh) Name() string { return "always-high" }

var _ Estimator = AlwaysHigh{}
