package runner

import (
	"context"
	"sync/atomic"
)

// jobFlagKey carries the per-job cache-classification flag through the
// context handed to job functions.
type jobFlagKey struct{}

// jobFlag classifies one job for progress/ETA accounting. States:
// 0 = untouched (counts as uncached), 1 = cached, 2 = computed
// (latched: any fresh computation makes the whole job uncached, even
// if other lookups inside it hit).
type jobFlag struct {
	state atomic.Int32
}

func newJobFlag() *jobFlag { return &jobFlag{} }

func (f *jobFlag) cached() bool { return f.state.Load() == 1 }

// MarkCached records that the current job's result came from a cache
// rather than a fresh computation, so progress ETAs exclude it from
// the pace estimate. Call it from inside a Map job function
// with the context that function received. A later MarkComputed wins.
func MarkCached(ctx context.Context) {
	if f, ok := ctx.Value(jobFlagKey{}).(*jobFlag); ok {
		f.state.CompareAndSwap(0, 1)
	}
}

// MarkComputed records that the current job performed real work; it
// overrides any MarkCached calls from cache lookups the job also made.
func MarkComputed(ctx context.Context) {
	if f, ok := ctx.Value(jobFlagKey{}).(*jobFlag); ok {
		f.state.Store(2)
	}
}

// LiveStats is a snapshot of the process-wide execution counters the
// debug endpoint (-debug-addr) serves: cumulative job counts since
// process start, current worker occupancy, and the most recent sweep's
// progress.
type LiveStats struct {
	// JobsStarted/JobsDone/JobsFailed/JobsCached are cumulative across
	// every sweep the process has run.
	JobsStarted uint64 `json:"jobs_started"`
	JobsDone    uint64 `json:"jobs_done"`
	JobsFailed  uint64 `json:"jobs_failed"`
	JobsCached  uint64 `json:"jobs_cached"`
	// StoreQuarantined counts cache entries moved aside as undecodable.
	StoreQuarantined uint64 `json:"store_quarantined"`
	// BusyWorkers is the number of workers executing a job right now;
	// Workers is the most recent sweep's worker bound.
	BusyWorkers int64 `json:"busy_workers"`
	Workers     int64 `json:"workers"`
	// SweepDone/SweepTotal track the most recently started sweep
	// (concurrent sweeps overwrite each other; the totals above stay
	// exact regardless).
	SweepDone  int64 `json:"sweep_done"`
	SweepTotal int64 `json:"sweep_total"`
}

// live is the process-wide counter set behind LiveSnapshot. Updates
// are a handful of atomic ops per job — invisible next to a job that
// is an entire timing simulation.
var live liveCounters

type liveCounters struct {
	jobsStarted      atomic.Uint64
	jobsDone         atomic.Uint64
	jobsFailed       atomic.Uint64
	jobsCached       atomic.Uint64
	storeQuarantined atomic.Uint64
	busyWorkers      atomic.Int64
	workers          atomic.Int64
	sweepDone        atomic.Int64
	sweepTotal       atomic.Int64
}

func (l *liveCounters) quarantine() { l.storeQuarantined.Add(1) }

func (l *liveCounters) sweepStart(total, workers int) {
	l.sweepTotal.Store(int64(total))
	l.sweepDone.Store(0)
	l.workers.Store(int64(workers))
}

func (l *liveCounters) jobStart() {
	l.jobsStarted.Add(1)
	l.busyWorkers.Add(1)
}

func (l *liveCounters) jobEnd(err error, cached bool) {
	l.busyWorkers.Add(-1)
	l.sweepDone.Add(1)
	if err != nil {
		l.jobsFailed.Add(1)
		return
	}
	l.jobsDone.Add(1)
	if cached {
		l.jobsCached.Add(1)
	}
}

// LiveSnapshot returns the current execution counters. It is safe to
// call from any goroutine (the debug endpoint samples it per request).
// A job bumps jobsStarted before it can bump jobsDone or jobsFailed,
// and jobsDone before jobsCached, so the counters are loaded in the
// reverse order: a snapshot never shows more jobs finished than
// started, or more cached than done.
func LiveSnapshot() LiveStats {
	cached := live.jobsCached.Load()
	done := live.jobsDone.Load()
	failed := live.jobsFailed.Load()
	return LiveStats{
		JobsStarted:      live.jobsStarted.Load(),
		JobsDone:         done,
		JobsFailed:       failed,
		JobsCached:       cached,
		StoreQuarantined: live.storeQuarantined.Load(),
		BusyWorkers:      live.busyWorkers.Load(),
		Workers:          live.workers.Load(),
		SweepDone:        live.sweepDone.Load(),
		SweepTotal:       live.sweepTotal.Load(),
	}
}
