package core

// exec.go wires the experiment engine onto the shared runner
// subsystem (internal/runner): one bounded worker pool drives every
// benchmark fan-out, and one content-addressed result cache serves
// identical timing runs — most importantly the ungated baseline that
// every gating table, figure and ablation measures against — once per
// suite instead of once per caller.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"bce/internal/confidence"
	"bce/internal/metrics"
	"bce/internal/runner"
	"bce/internal/workload"
)

// Execution settings. These are process-wide knobs meant to be set
// once at startup (or between sweeps in tests); they are not
// synchronized against concurrently running sweeps.
var (
	execWorkers  int // 0 = runtime.GOMAXPROCS
	execProgress func(runner.Progress)
	execCtx      context.Context

	execDirStore *runner.DirStore
	execJournal  *runner.Journal
)

// SetParallelism bounds the worker count for experiment fan-outs;
// n < 1 restores the default (GOMAXPROCS). Results are bit-identical
// under any worker count: jobs derive their randomness from stable
// hashes of their own configuration, never from scheduling order.
func SetParallelism(n int) {
	if n < 1 {
		n = 0
	}
	execWorkers = n
}

// SetProgress installs a progress/ETA hook called as sweep jobs
// complete; nil disables. Each table or figure regeneration reports
// Done/Total over its benchmark fan-out.
func SetProgress(fn func(runner.Progress)) { execProgress = fn }

// SetBaseContext installs the context every sweep runs under. Cancel
// it (e.g. from a SIGINT handler — see runner.ShutdownContext) and
// in-flight jobs finish, unstarted jobs are skipped, and the sweep
// returns the cancellation error. Nil restores context.Background().
func SetBaseContext(ctx context.Context) { execCtx = ctx }

func baseContext() context.Context {
	if execCtx != nil {
		return execCtx
	}
	return context.Background()
}

func corePool() *runner.Pool {
	return runner.New(runner.Options{
		Workers:  execWorkers,
		Progress: execProgress,
	})
}

// JobRecord describes one completed simulation job for manifest
// emission: the cache key identifying its full configuration, which
// benchmark it ran, whether the result came from the cache, and the
// result itself (exactly one of Run/Confusion is set, by Kind).
type JobRecord struct {
	// Key is the content-addressed cache key ("timing" jobs) or an
	// equivalent canonical configuration string ("functional" jobs).
	Key string
	// Kind is "timing" (full pipeline model) or "functional"
	// (predictor+estimator state machines only).
	Kind string
	// Bench is the benchmark name.
	Bench string
	// Cached reports whether the result was served from the result
	// cache rather than freshly simulated.
	Cached bool
	// Run is the timing result (nil for functional jobs).
	Run *metrics.Run
	// Confusion is the functional result (nil for timing jobs).
	Confusion *metrics.Confusion
}

// jobObserver, when set, is called once per completed simulation job.
// Sweeps fan out over the worker pool, so the observer is invoked from
// multiple goroutines concurrently and must synchronize internally
// (manifest.Builder does). Set it once at startup, like the other
// execution knobs.
var jobObserver func(JobRecord)

// SetJobObserver installs the per-job observer manifest emission uses;
// nil disables. The observer must be safe for concurrent use.
func SetJobObserver(fn func(JobRecord)) { jobObserver = fn }

func observeJob(rec JobRecord) {
	if jobObserver != nil {
		jobObserver(rec)
	}
}

// mapBench runs fn for every benchmark on the shared pool and returns
// the per-benchmark results in workload.Names() order, regardless of
// completion order. Errors are tagged with the benchmark name; a
// panicking benchmark surfaces its configuration instead of killing
// the sweep. The context carries the job's cache-classification flag
// (runner.MarkCached); pass it down to runTiming so fully cached jobs
// are excluded from progress ETAs.
func mapBench[R any](fn func(ctx context.Context, bench string) (R, error)) ([]R, error) {
	return runner.Map(baseContext(), corePool(), workload.Names(),
		func(ctx context.Context, _ int, name string) (R, error) {
			r, err := fn(ctx, name)
			if err != nil {
				var zero R
				return zero, fmt.Errorf("%s: %w", name, err)
			}
			return r, nil
		})
}

// resultCache memoizes timing runs by their full configuration
// (machine, predictor, estimator, gating, workload, sizes). Timing
// simulations are pure functions of that configuration, so the cache
// is exact, not approximate.
var resultCache = runner.NewCache[metrics.Run]()

// ResetResultCache drops every cached timing result and zeroes the
// hit/miss counters (the on-disk store, if configured, is untouched).
func ResetResultCache() { resultCache.Reset() }

// ResultCacheStats returns the timing-run cache counters: hits are
// runs served from memory or disk, misses are fresh simulations.
func ResultCacheStats() (hits, misses uint64) { return resultCache.Stats() }

// SetResultCacheDir attaches an on-disk result cache rooted at dir,
// persisting timing runs across invocations (bcetables -cache). An
// empty dir detaches both the store and any checkpoint journal.
func SetResultCacheDir(dir string) error {
	if dir == "" {
		execDirStore = nil
		execJournal = nil
		installResultStore()
		return nil
	}
	store, err := runner.NewDirStore(dir)
	if err != nil {
		return err
	}
	execDirStore = store
	installResultStore()
	return nil
}

// CheckpointPath returns where the sweep checkpoint journal lives for
// the configured cache directory ("" when no cache is attached): an
// append-only JSONL log next to the DirStore's entries.
func CheckpointPath() string {
	if execDirStore == nil {
		return ""
	}
	return filepath.Join(execDirStore.Dir(), "sweep.journal")
}

// SetCheckpoint opens the crash-safe checkpoint journal next to the
// result-cache DirStore and stacks it in front of the store, so every
// finished simulation is fsynced before the sweep moves on. With
// resume true an existing journal's records replay (a killed sweep
// picks up where it stopped); with resume false any stale journal is
// ignored and overwritten. Returns the number of replayed records.
// Requires SetResultCacheDir first.
func SetCheckpoint(resume bool) (int, error) {
	path := CheckpointPath()
	if path == "" {
		return 0, fmt.Errorf("core: checkpointing needs a result-cache directory (SetResultCacheDir)")
	}
	if execJournal != nil {
		execJournal.Close()
		execJournal = nil
	}
	if !resume {
		// Start a fresh journal: drop any leftover from a previous run
		// whose results are already merged into the DirStore.
		os.Remove(path)
	}
	j, err := runner.OpenJournal(path)
	if err != nil {
		return 0, err
	}
	execJournal = j
	installResultStore()
	return j.Replayed(), nil
}

// CloseCheckpoint flushes and closes the checkpoint journal; with
// remove true (a sweep that finished cleanly, its results all in the
// DirStore) the journal file is deleted so the next run starts fresh.
func CloseCheckpoint(remove bool) error {
	if execJournal == nil {
		return nil
	}
	j := execJournal
	execJournal = nil
	installResultStore()
	if remove {
		return j.Remove()
	}
	return j.Close()
}

// installResultStore points the result cache at the current
// journal/DirStore stack (either may be nil).
func installResultStore() {
	store := runner.Tiered(journalStore(), dirStoreOrNil())
	if store == nil {
		resultCache.SetStore(nil, nil, nil)
		return
	}
	resultCache.SetStore(store,
		func(r metrics.Run) ([]byte, error) { return json.Marshal(r) },
		func(b []byte) (metrics.Run, error) {
			var r metrics.Run
			err := json.Unmarshal(b, &r)
			return r, err
		})
}

// haveResult reports whether a timing result for key is already on
// hand — in the in-memory cache, the checkpoint journal, or the
// on-disk store — without computing anything. The distributed planner
// uses it to exclude already-finished simulations from remote
// dispatch, so a resumed coordinator reassigns only missing work.
func haveResult(key string) bool {
	if resultCache.Contains(key) {
		return true
	}
	if store := runner.Tiered(journalStore(), dirStoreOrNil()); store != nil {
		if _, ok := store.Load(key); ok {
			return true
		}
	}
	return false
}

// InjectResult seeds the timing-result cache with an externally
// computed run — a result a remote worker produced — under its cache
// key. The write goes through the normal compute path, so an attached
// store and checkpoint journal persist it exactly as a local
// simulation would be. A key already present keeps its existing value
// (simulations are pure, so both values are identical anyway).
func InjectResult(key string, r metrics.Run) {
	resultCache.Do(key, func() (metrics.Run, error) { return r, nil }) //nolint:errcheck // compute cannot fail
}

// journalStore and dirStoreOrNil exist because a nil *T in an
// interface value is not a nil interface; Tiered drops true nils only.
func journalStore() runner.Store {
	if execJournal == nil {
		return nil
	}
	return execJournal
}

func dirStoreOrNil() runner.Store {
	if execDirStore == nil {
		return nil
	}
	return execDirStore
}

// timingKey canonicalizes a timing run's full configuration into its
// cache key. The estimator is identified by constructing one instance
// and taking its Name(), which encodes geometry and thresholds;
// estimator constructors are cheap next to a timing simulation. mkEst
// is the resolved factory from TimingSpec.makeEstimator.
func timingKey(spec TimingSpec, mkEst func() confidence.Estimator, sz Sizes, speculativeTrain bool) string {
	est := "none"
	if mkEst != nil {
		est = mkEst().Name()
	}
	return runner.KeyOf(
		"timing", 2, // schema version: bump when Run or the sim semantics change (2: Run.Segments)
		spec.Bench,
		fmt.Sprintf("%+v", spec.Machine),
		spec.Predictor,
		est,
		spec.Gating.Threshold, spec.Gating.Latency,
		spec.Reversal, spec.Perfect, speculativeTrain,
		sz.Warmup, sz.Measure, sz.segments(),
	)
}
