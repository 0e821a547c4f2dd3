package dist

import "sync/atomic"

// live is the process-wide distributed-sweep counter set, mirrored by
// the runner's liveCounters: every field is an atomic so a debug
// endpoint can snapshot mid-sweep without locks and race-clean.
// One process is either a coordinator or a worker, so the two halves
// never contend.
var live liveCounters

type liveCounters struct {
	// Worker side.
	batchesServed atomic.Uint64
	batchesFailed atomic.Uint64
	jobsReceived  atomic.Uint64
	jobsOK        atomic.Uint64
	jobsFailed    atomic.Uint64
	// Coordinator side.
	batchesSent    atomic.Uint64
	jobsDispatched atomic.Uint64
	jobsMerged     atomic.Uint64
}

func (c *liveCounters) batchStart(jobs int) {
	c.jobsReceived.Add(uint64(jobs))
}

func (c *liveCounters) batchEnd(ok bool) {
	if ok {
		c.batchesServed.Add(1)
	} else {
		c.batchesFailed.Add(1)
	}
}

func (c *liveCounters) jobDone(ok bool) {
	if ok {
		c.jobsOK.Add(1)
	} else {
		c.jobsFailed.Add(1)
	}
}

// LiveStats is a point-in-time snapshot of the distributed-sweep
// counters. Worker fields count this process's batch service;
// coordinator fields count this process's dispatch. All zero for the
// role the process is not playing.
type LiveStats struct {
	// Worker side.
	BatchesServed uint64 `json:"batches_served"`
	BatchesFailed uint64 `json:"batches_failed"`
	JobsReceived  uint64 `json:"jobs_received"`
	JobsOK        uint64 `json:"jobs_ok"`
	JobsFailed    uint64 `json:"jobs_failed"`
	// Coordinator side.
	BatchesSent    uint64 `json:"batches_sent"`
	JobsDispatched uint64 `json:"jobs_dispatched"`
	JobsMerged     uint64 `json:"jobs_merged"`
}

// Snapshot returns the current counter values. Safe to call at any
// time from any goroutine; each field is individually consistent.
func Snapshot() LiveStats {
	return LiveStats{
		BatchesServed:  live.batchesServed.Load(),
		BatchesFailed:  live.batchesFailed.Load(),
		JobsReceived:   live.jobsReceived.Load(),
		JobsOK:         live.jobsOK.Load(),
		JobsFailed:     live.jobsFailed.Load(),
		BatchesSent:    live.batchesSent.Load(),
		JobsDispatched: live.jobsDispatched.Load(),
		JobsMerged:     live.jobsMerged.Load(),
	}
}

// ResetStats zeroes every counter (tests).
func ResetStats() {
	live = liveCounters{}
}
