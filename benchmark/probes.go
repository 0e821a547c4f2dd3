package main

import (
	"fmt"
	"time"

	"bce/internal/confidence"
	"bce/internal/predictor"
	"bce/internal/trace"
	"bce/internal/workload"
)

// probes.go wraps the simulator's layer interfaces so the traced pass can
// count and time each layer from outside the program. A wrapper counts
// every call exactly but times only one call in sampleEvery: a workload
// Next costs tens of nanoseconds, about what reading the clock twice
// costs, so timing every call would distort the layers it measures.
// Samples fold into running sums and are never stored one by one.

const sampleEvery = 64

// meter is one wrapped method's call count and sampled time.
type meter struct {
	calls   uint64 // invocations
	items   uint64 // requests carried; a batched invocation carries several
	sampled uint64 // invocations timed
	ns      int64  // summed time of the timed invocations
}

// begin counts an invocation carrying n requests and returns its start
// time when this invocation is one of the timed ones.
func (m *meter) begin(n int) (time.Time, bool) {
	m.calls++
	m.items += uint64(n)
	if m.calls%sampleEvery != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (m *meter) end(start time.Time, timed bool) {
	if timed {
		m.ns += int64(time.Since(start))
		m.sampled++
	}
}

// totalNs estimates the time of all invocations: the mean timed
// invocation, less clockNs (what an empty timed region reads), times the
// invocation count.
func (m *meter) totalNs(clockNs float64) float64 {
	if m.sampled == 0 {
		return 0
	}
	per := float64(m.ns)/float64(m.sampled) - clockNs
	if per < 0 {
		per = 0
	}
	return per * float64(m.calls)
}

// probes holds the meters of every wrapped layer of one traced workload.
type probes struct {
	next, wrong               meter // workload: correct-path and wrong-path Next
	predict, update           meter // predictor
	estimate, train           meter // confidence, one branch per call
	estimateBatch, trainBatch meter // confidence, one cycle's group per call
}

// clockCost measures what an empty timed region reads; every timed
// invocation includes it on top of the call itself.
func clockCost() float64 {
	d := make([]float64, 1001)
	for i := range d {
		t := time.Now()
		d[i] = float64(time.Since(t))
	}
	return median(d)
}

type sourceProbe struct {
	src trace.Source
	m   *meter
}

func (s *sourceProbe) Next() (trace.Uop, bool) {
	t, timed := s.m.begin(1)
	u, ok := s.src.Next()
	s.m.end(t, timed)
	return u, ok
}

// pathProbe meters the wrong-path stream's Next; Restart, Stop and
// Active pass through untimed, so their cost counts as pipeline time.
type pathProbe struct {
	workload.PathSource
	m *meter
}

func (p *pathProbe) Next() (trace.Uop, bool) {
	t, timed := p.m.begin(1)
	u, ok := p.PathSource.Next()
	p.m.end(t, timed)
	return u, ok
}

type predictorProbe struct {
	pred predictor.Predictor
	p    *probes
}

func (w *predictorProbe) Predict(pc uint64) bool {
	t, timed := w.p.predict.begin(1)
	taken := w.pred.Predict(pc)
	w.p.predict.end(t, timed)
	return taken
}

func (w *predictorProbe) Update(pc uint64, taken bool) {
	t, timed := w.p.update.begin(1)
	w.pred.Update(pc, taken)
	w.p.update.end(t, timed)
}

func (w *predictorProbe) Name() string { return w.pred.Name() }

// estimatorProbe meters an estimator. The pipeline picks its batched or
// oracle path by type assertion, so wrapEstimator composes the probe with
// exactly the optional interfaces the wrapped estimator has: the traced
// pass must take the same path as the untraced one.
type estimatorProbe struct {
	est confidence.Estimator
	be  confidence.BatchEstimator
	bt  confidence.BatchTrainer
	or  confidence.TraceOracle
	p   *probes
}

func (w *estimatorProbe) Estimate(pc uint64, predictedTaken bool) confidence.Token {
	t, timed := w.p.estimate.begin(1)
	tok := w.est.Estimate(pc, predictedTaken)
	w.p.estimate.end(t, timed)
	return tok
}

func (w *estimatorProbe) Train(pc uint64, tok confidence.Token, mispredicted, taken bool) {
	t, timed := w.p.train.begin(1)
	w.est.Train(pc, tok, mispredicted, taken)
	w.p.train.end(t, timed)
}

func (w *estimatorProbe) Name() string { return w.est.Name() }

type batchEstimate struct{ w *estimatorProbe }

func (b batchEstimate) EstimateBatch(pcs []uint64, predTaken []bool, toks []confidence.Token) {
	t, timed := b.w.p.estimateBatch.begin(len(pcs))
	b.w.be.EstimateBatch(pcs, predTaken, toks)
	b.w.p.estimateBatch.end(t, timed)
}

type batchTrain struct{ w *estimatorProbe }

func (b batchTrain) TrainBatch(reqs []confidence.TrainReq) {
	t, timed := b.w.p.trainBatch.begin(len(reqs))
	b.w.bt.TrainBatch(reqs)
	b.w.p.trainBatch.end(t, timed)
}

// traceOracle forwards ground truth untimed: it is a field store.
type traceOracle struct{ w *estimatorProbe }

func (o traceOracle) ObserveNext(mispredicted bool) { o.w.or.ObserveNext(mispredicted) }

// wrapEstimator covers the combinations of optional interfaces the
// repository's estimators have: both batch interfaces (PerceptronCIC),
// the trace oracle alone (Oracle), or none. It panics on any other, so an
// estimator with a new combination cannot silently take another pipeline
// path when traced.
func wrapEstimator(est confidence.Estimator, p *probes) confidence.Estimator {
	w := &estimatorProbe{est: est, p: p}
	w.be, _ = est.(confidence.BatchEstimator)
	w.bt, _ = est.(confidence.BatchTrainer)
	w.or, _ = est.(confidence.TraceOracle)
	switch {
	case w.be != nil && w.bt != nil && w.or == nil:
		return struct {
			*estimatorProbe
			batchEstimate
			batchTrain
		}{w, batchEstimate{w}, batchTrain{w}}
	case w.be == nil && w.bt == nil && w.or != nil:
		return struct {
			*estimatorProbe
			traceOracle
		}{w, traceOracle{w}}
	case w.be == nil && w.bt == nil && w.or == nil:
		return w
	}
	panic(fmt.Sprintf("benchmark: no probe for estimator %s: BatchEstimator %v, BatchTrainer %v, TraceOracle %v",
		est.Name(), w.be != nil, w.bt != nil, w.or != nil))
}
