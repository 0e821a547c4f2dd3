// Package report turns run manifests into the paper-fidelity
// scorecard: every reproduced metric next to its published HPCA 2004
// value, with bootstrap confidence intervals where per-benchmark
// samples exist, rendered as text and canonical JSON. It also diffs
// two runs for metric drift (the CI fidelity gate).
//
// The package reads manifests only — it never imports the experiment
// engine. Result payloads are decoded through mirror structs that
// match core's exported field names, so the report stays a pure
// consumer of the JSON contract.
package report

// paper.go pins the published numbers this reproduction is scored
// against: "Perceptron-Based Branch Confidence Estimation" (Akkary,
// Srinivasan, Koltur, Patil, Refaai; HPCA 2004). Values are
// transcribed from the paper's tables; they are the fixed axis the
// scorecard measures drift against and must never be regenerated from
// simulation output.

// paperTable2MispPerKuop is Table 2's per-benchmark branch
// mispredictions per 1000 uops (baseline 40c4w machine).
var paperTable2MispPerKuop = map[string]float64{
	"gzip":    5.2,
	"vpr":     6.6,
	"gcc":     2.3,
	"mcf":     16,
	"crafty":  3.4,
	"link":    4.6,
	"eon":     0.5,
	"perlbmk": 0.7,
	"gap":     1.7,
	"vortex":  0.2,
	"bzip":    1.1,
	"twolf":   6.3,
}

// paperTable2AvgMisp is Table 2's average misp/Kuop row.
const paperTable2AvgMisp = 4.1

// paperPVNSpec is one (PVN, Spec) pair from Table 3, in percent.
type paperPVNSpec struct {
	Lambda    int
	PVN, Spec float64
}

// paperTable3JRS and paperTable3Perceptron are Table 3's two halves:
// the enhanced JRS estimator swept over λ∈{3,7,11,15} and the
// perceptron (CIC) estimator over λ∈{25,0,-25,-50}.
var (
	paperTable3JRS = []paperPVNSpec{
		{3, 36, 85}, {7, 28, 92}, {11, 24, 94}, {15, 22, 96},
	}
	paperTable3Perceptron = []paperPVNSpec{
		{25, 77, 34}, {0, 74, 43}, {-25, 69, 54}, {-50, 61, 66},
	}
)

// paperUP is one (U, P) gating measurement in percent: uop reduction
// and performance loss.
type paperUP struct {
	Label string
	U, P  float64
}

// paperTable4JRS is Table 4's JRS half: λ∈{3,7,11,15} at pipeline
// gating thresholds PL1..PL3, labels matching core's GatingResult.
var paperTable4JRS = []paperUP{
	{"jrs λ=3 PL1", 26, 17}, {"jrs λ=7 PL1", 29, 25}, {"jrs λ=11 PL1", 31, 29}, {"jrs λ=15 PL1", 31, 32},
	{"jrs λ=3 PL2", 14, 4}, {"jrs λ=7 PL2", 19, 9}, {"jrs λ=11 PL2", 21, 12}, {"jrs λ=15 PL2", 22, 14},
	{"jrs λ=3 PL3", 9, 2}, {"jrs λ=7 PL3", 13, 4}, {"jrs λ=11 PL3", 14, 5}, {"jrs λ=15 PL3", 15, 7},
}

// paperTable4Perceptron is Table 4's CIC half (PL1).
var paperTable4Perceptron = []paperUP{
	{"cic λ=25 PL1", 8, 0}, {"cic λ=0 PL1", 11, 1}, {"cic λ=-25 PL1", 14, 2}, {"cic λ=-50 PL1", 18, 3},
}

// paperTable5BimodalGshare and paperTable5GsharePerceptron are Table
// 5: CIC gating (PL1) on the two baseline predictors.
var (
	paperTable5BimodalGshare = []paperUP{
		{"bimodal-gshare λ=25", 8, 0}, {"bimodal-gshare λ=0", 11, 1},
		{"bimodal-gshare λ=-25", 14, 2}, {"bimodal-gshare λ=-50", 18, 3},
	}
	paperTable5GsharePerceptron = []paperUP{
		{"gshare-perceptron λ=0", 4, 0}, {"gshare-perceptron λ=-25", 8, 1},
		{"gshare-perceptron λ=-50", 12, 2}, {"gshare-perceptron λ=-60", 14, 3},
	}
)

// paperTable6 is Table 6's size-sensitivity sweep (CIC λ=0, PL1),
// geometries from 4 KB down to 2 KB.
var paperTable6 = []paperUP{
	{"P128W8H32", 11, 1}, {"P96W8H32", 11, 1}, {"P128W6H32", 10, 2},
	{"P128W8H24", 10, 1}, {"P64W8H32", 10, 1}, {"P128W4H32", 8, 6},
	{"P128W8H16", 8, 1},
}

// paperFig8AvgUopReduction and paperFig9AvgUopReduction are the
// headline averages of Figures 8 and 9: combined gating + reversal
// cuts executed uops ~10% on the 40c4w machine and ~7% on 20c8w, at
// approximately zero average performance loss (paperCombinedSpeedup).
const (
	paperFig8AvgUopReduction = 10.0
	paperFig9AvgUopReduction = 7.0
	paperCombinedSpeedup     = 0.0
)
