// Package runner is the shared parallel experiment-execution
// subsystem. Every table, figure and ablation in this repository is a
// fan-out of independent, deterministic simulations; runner gives them
// one scheduler instead of a bespoke goroutine pool each:
//
//   - a bounded worker pool sized from runtime.GOMAXPROCS with
//     context-based cancellation (the first failing job stops the
//     sweep) and per-job panic recovery that surfaces the failing
//     job's configuration instead of crashing the whole run;
//   - deterministic sharding: results are returned in item order, and
//     Seed derives per-job RNG seeds from a stable hash of the job's
//     configuration, so a sweep's output is bit-identical regardless
//     of worker count or scheduling order;
//   - a content-addressed result cache (Cache) with singleflight
//     deduplication and an optional on-disk store, so identical runs —
//     like the ungated baseline shared by every gating table —
//     execute once per suite instead of once per caller;
//   - a progress/ETA hook for long sweeps.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"bce/internal/metrics"
)

// Progress is one progress report: Done jobs out of Total have
// finished (Cached of them served from a result cache), Elapsed
// wall-clock has passed, and ETA extrapolates the remaining time from
// the pace of the *uncached* jobs only — cache hits complete in
// microseconds and would otherwise skew the projected rate toward
// zero right when the remaining work is the expensive kind. ETA is
// zero until the first uncached job completes.
type Progress struct {
	Done, Total int
	// Cached counts completed jobs that reported themselves served
	// from a cache (see MarkCached).
	Cached  int
	Elapsed time.Duration
	ETA     time.Duration
}

// Options configures a Pool.
type Options struct {
	// Workers bounds concurrent jobs; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when set, is called after each job completes. Calls are
	// serialized (never concurrent) but may come from any worker
	// goroutine.
	Progress func(Progress)
}

// Pool is a bounded parallel executor. Construct with New; a nil Pool
// is valid and behaves like New(Options{}).
type Pool struct {
	workers  int
	progress func(Progress)
}

// New returns a pool with the given options.
func New(opts Options) *Pool {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers:  w,
		progress: opts.Progress,
	}
}

// Workers returns the configured worker bound.
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.workers
}

func (p *Pool) progressFunc() func(Progress) {
	if p == nil {
		return nil
	}
	return p.progress
}

// PanicError is returned by Map when a job panicked. It
// carries the job's configuration (its item formatted with %+v) so a
// crashing sweep reports which experiment died, not just where.
type PanicError struct {
	// Job is the panicking job's item, formatted with %+v.
	Job string
	// Index is the job's position in the item slice.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	stack := strings.TrimSpace(string(e.Stack))
	return fmt.Sprintf("runner: job %d (%s) panicked: %v\n%s", e.Index, e.Job, e.Value, stack)
}

// Unwrap exposes the recovered panic value when it is itself an error,
// so errors.As reaches structured aborts — like the pipeline
// watchdog's *WatchdogError — through the sweep's panic recovery.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Map runs fn over every item on the pool and returns the results in
// item order (never completion order), which keeps downstream
// aggregation deterministic under any worker count. The first job
// error cancels the context passed to remaining jobs and unstarted
// jobs are skipped; the first error is returned. A panicking job is
// converted to a *PanicError naming the job's configuration.
func Map[T, R any](ctx context.Context, p *Pool, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	if len(items) == 0 {
		return out, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := p.Workers()
	if workers > len(items) {
		workers = len(items)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
		cached   int
	)
	start := time.Now()
	report := p.progressFunc()
	total := len(items)
	live.sweepStart(total, workers)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue // drain remaining indices after cancellation
				}
				flag := newJobFlag()
				live.jobStart()
				r, err := runJob(context.WithValue(ctx, jobFlagKey{}, flag), i, items[i], fn)
				live.jobEnd(err, flag.cached())
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
						cancel()
					}
					mu.Unlock()
					continue
				}
				out[i] = r
				done++
				if flag.cached() {
					cached++
				}
				d, c := done, cached
				elapsed := time.Since(start)
				var eta time.Duration
				// Rate from uncached completions only: cache hits are
				// effectively free and must not dilute the projection.
				if u := d - c; u > 0 && d < total {
					eta = time.Duration(int64(elapsed) / int64(u) * int64(total-d))
				}
				if report != nil {
					report(Progress{Done: d, Total: total, Cached: c, Elapsed: elapsed, ETA: eta})
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range items {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, ctx.Err()
}

// runJob executes one job with panic recovery.
func runJob[T, R any](ctx context.Context, i int, item T, fn func(ctx context.Context, i int, item T) (R, error)) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{
				Job:   fmt.Sprintf("%+v", item),
				Index: i,
				Value: p,
				Stack: debug.Stack(),
			}
		}
	}()
	return fn(ctx, i, item)
}

// KeyOf canonicalizes the given configuration parts into a single
// stable key string. Parts are formatted with %v and joined with an
// unambiguous separator; use it to build cache keys and seed inputs
// from heterogeneous config values.
func KeyOf(parts ...any) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%v", p)
	}
	return b.String()
}

// Seed derives a deterministic RNG seed from the job's configuration
// parts. Two jobs with the same configuration always draw the same
// seed; scheduling order and worker count never enter the derivation.
func Seed(parts ...any) int64 {
	return metrics.SeedFrom(KeyOf(parts...))
}
