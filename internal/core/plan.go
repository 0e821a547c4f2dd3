package core

// plan.go is the sweep planner behind distributed execution. A sweep
// in this package is ordinary Go code — nested loops calling
// runTiming — so the job space is not reified anywhere. CollectJobs
// recovers it: it re-runs the sweep function in a recording mode where
// every timing simulation is intercepted at the cache boundary,
// recorded as a wire-form JobSpec, and answered with a zero result.
// Control flow never branches on simulation results (jobs are
// independent by construction; see internal/runner), so the recording
// pass visits exactly the jobs a real pass would execute, in seconds
// instead of minutes.
//
// Every timing job is wire-expressible (TimingSpec names its estimator
// by confidence.Spec), so the recorded set is every distinct timing job
// except those whose results are already on hand (in-memory cache,
// checkpoint journal, or on-disk store): a resumed coordinator must not
// re-dispatch finished simulations.
//
// Functional (confidence-only) runs are also skipped during recording:
// they are orders of magnitude cheaper than timing runs and are not
// distributed, so the planner must not pay for them twice. They
// execute normally during the aggregation pass.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Plan is the enumerated job space of one sweep.
type Plan struct {
	// Jobs are the wire-form timing jobs to execute, sorted by cache
	// key so sharding is deterministic for any recording schedule.
	Jobs []JobSpec
	// Keys[i] is Jobs[i]'s content-addressed cache key.
	Keys []string
	// Stored counts distinct jobs skipped because a result was already
	// cached, journaled, or stored on disk.
	Stored int
}

// planState is the process-wide recorder. planning is read on the hot
// path of every timing run, so it is an atomic flag; the rest is only
// touched while recording, under the mutex (sweeps fan out across the
// worker pool, so records arrive concurrently).
var planState struct {
	planning atomic.Bool
	mu       sync.Mutex
	seen     map[string]struct{}
	jobs     []JobSpec
	keys     []string
	stored   int
}

// planRecording reports whether a CollectJobs pass is active.
func planRecording() bool { return planState.planning.Load() }

// planRecord records one intercepted timing job under its cache key.
func planRecord(spec TimingSpec, sz Sizes, speculativeTrain bool, key string) {
	planState.mu.Lock()
	defer planState.mu.Unlock()
	if _, dup := planState.seen[key]; dup {
		return
	}
	planState.seen[key] = struct{}{}
	if haveResult(key) {
		planState.stored++
		return
	}
	planState.jobs = append(planState.jobs, jobSpecOf(spec, sz, speculativeTrain))
	planState.keys = append(planState.keys, key)
}

// CollectJobs runs fn in recording mode and returns the sweep's
// enumerated job space. fn is typically the same closure the caller
// will run again afterwards for real — first against remote workers to
// fill the result store, then locally to aggregate and print.
//
// Only one CollectJobs may be active per process (the execution knobs
// in this package are process-wide; the planner follows suit).
func CollectJobs(fn func() error) (*Plan, error) {
	if !planState.planning.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("core: CollectJobs already active")
	}
	planState.mu.Lock()
	planState.seen = make(map[string]struct{})
	planState.jobs, planState.keys = nil, nil
	planState.stored = 0
	planState.mu.Unlock()

	err := fn()

	planState.planning.Store(false)
	planState.mu.Lock()
	p := &Plan{
		Jobs:   planState.jobs,
		Keys:   planState.keys,
		Stored: planState.stored,
	}
	planState.seen, planState.jobs, planState.keys = nil, nil, nil
	planState.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("core: job collection: %w", err)
	}

	// Sort by key: recording order depends on worker scheduling, the
	// plan must not.
	order := make([]int, len(p.Jobs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p.Keys[order[a]] < p.Keys[order[b]] })
	jobs := make([]JobSpec, len(order))
	keys := make([]string, len(order))
	for i, o := range order {
		jobs[i], keys[i] = p.Jobs[o], p.Keys[o]
	}
	p.Jobs, p.Keys = jobs, keys
	return p, nil
}
