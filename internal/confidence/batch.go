package confidence

// batch.go keeps the declarations of a retired batched estimator
// protocol. No estimator in this module implements BatchEstimator or
// BatchTrainer, and the pipeline never looks for them: every estimate
// and every training update goes through Estimator one branch at a
// time. The declarations stay only because the benchmark harness under
// benchmark/ type-asserts against them and is versioned separately
// from the simulator.

// TrainReq is one Train call in request form: the arguments Train
// would receive for a retiring branch. Declared for the benchmark
// harness only; nothing in this module uses it.
type TrainReq struct {
	PC           uint64
	Tok          Token
	Mispredicted bool
	Taken        bool
}

// BatchEstimator would classify a group of same-cycle predictions in
// one call, equivalent to toks[i] = Estimate(pcs[i], predTaken[i]) in
// order. Declared for the benchmark harness only: it has no
// implementer, and the pipeline never calls it.
type BatchEstimator interface {
	Estimator
	EstimateBatch(pcs []uint64, predTaken []bool, toks []Token)
}

// BatchTrainer would absorb a group of retirements in one call,
// equivalent to Train(r.PC, r.Tok, r.Mispredicted, r.Taken) per request
// in order. Declared for the benchmark harness only: it has no
// implementer, and the pipeline never calls it.
type BatchTrainer interface {
	Estimator
	TrainBatch(reqs []TrainReq)
}
