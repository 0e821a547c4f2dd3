package dist

// integration_test.go is the multi-process conformance suite: real
// worker processes (this test binary re-executed in worker mode), real
// HTTP, real simulations, asserting the distributed sweep's defining
// property — byte-identity with single-process execution — including
// across worker death and coordinator crash/resume.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bce/internal/core"
	"bce/internal/manifest"
	"bce/internal/metrics"
)

const (
	workerEnvName = "BCE_DIST_TEST_WORKER"
	workerEnvAddr = "BCE_DIST_TEST_ADDRFILE"
)

// TestMain doubles as the worker-process entry point: when the worker
// env vars are set, this test binary serves the dist worker API (with
// real core.ExecJob simulations) instead of running tests.
func TestMain(m *testing.M) {
	if name := os.Getenv(workerEnvName); name != "" {
		workerProcMain(name, os.Getenv(workerEnvAddr))
		return
	}
	os.Exit(m.Run())
}

func workerProcMain(name, addrFile string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	// Publish the picked port atomically: write-then-rename so the
	// parent never reads a half-written file.
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	w := NewWorker(WorkerOptions{Name: name})
	if err := http.Serve(ln, w.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

// startWorkerProc launches one real worker process and waits until it
// is serving. The process is SIGKILLed at test cleanup.
func startWorkerProc(t *testing.T, name string) (string, *exec.Cmd) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), workerEnvName+"="+name, workerEnvAddr+"="+addrFile)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start worker %s: %v", name, err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck // may already be dead
		cmd.Wait()         //nolint:errcheck
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			url := "http://" + string(data)
			c, err := NewCoordinator(Options{
				Workers:  []string{url},
				OnResult: func(string, Job, metrics.Run) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Ping(context.Background()); err == nil {
				return url, cmd
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s did not come up", name)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// integSizes keeps the multi-process sweeps fast: the byte-identity
// property does not depend on run length.
func integSizes() core.Sizes {
	return core.Sizes{Warmup: 1_000, Measure: 3_000, Segments: 1}
}

// renderTable4 runs the quick Table 4 sweep in-process and returns its
// rendered (stdout) form plus the result-cache miss delta — zero
// misses means every timing result was already on hand.
func renderTable4(t *testing.T, sz core.Sizes) (string, uint64) {
	t.Helper()
	_, missesBefore := core.ResultCacheStats()
	tbl, err := core.Table4(sz)
	if err != nil {
		t.Fatal(err)
	}
	_, missesAfter := core.ResultCacheStats()
	return tbl.String(), missesAfter - missesBefore
}

// planTable4 enumerates the Table 4 job space.
func planTable4(t *testing.T, sz core.Sizes) *core.Plan {
	t.Helper()
	plan, err := core.CollectJobs(func() error {
		_, err := core.Table4(sz)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// dispatchTable4 plans the Table 4 sweep and executes it against the
// given worker URLs, injecting every remote result into the local cache
// and recording it in mb (when non-nil). onMerge (when non-nil) sees
// the running count of merged jobs.
func dispatchTable4(t *testing.T, sz core.Sizes, urls []string, mb *manifest.Builder, onMerge func(n int)) error {
	t.Helper()
	plan := planTable4(t, sz)
	if len(plan.Jobs) == 0 {
		t.Fatal("empty plan: nothing to distribute")
	}
	var mu sync.Mutex
	merged := 0
	opts := Options{
		Workers:   urls,
		BatchSize: 4,
		OnResult: func(worker string, job Job, run metrics.Run) {
			core.InjectResult(job.Key, run)
			if mb != nil {
				r := run
				mb.AddJob(manifest.Job{
					Key: job.Key, Kind: "timing", Bench: job.Spec.Bench,
					Worker: worker, Run: &r,
				})
			}
			mu.Lock()
			merged++
			n := merged
			mu.Unlock()
			if onMerge != nil {
				onMerge(n)
			}
		},
	}
	coord, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	return coord.Run(context.Background(), plan.Jobs, plan.Keys)
}

// distributeTable4 runs dispatchTable4 to completion, then renders the
// table locally. It returns the rendered table and the manifest's
// canonical job bytes (operational fields stripped).
func distributeTable4(t *testing.T, sz core.Sizes, urls []string) (string, []byte) {
	t.Helper()
	mb := manifest.NewBuilder("disttest", nil)
	if err := dispatchTable4(t, sz, urls, mb, nil); err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	out, misses := renderTable4(t, sz)
	if misses != 0 {
		t.Errorf("aggregation pass simulated %d jobs locally; every result should have come from the workers", misses)
	}
	m := mb.Finish(core.ResultCacheStats())
	return out, canonicalJobs(t, m.Jobs)
}

// canonicalJobs strips the operational fields (which worker ran a job,
// cache counters) and marshals the rest: the comparable identity of a
// sweep's result set. Finish already sorted by key.
func canonicalJobs(t *testing.T, jobs []manifest.Job) []byte {
	t.Helper()
	c := make([]manifest.Job, len(jobs))
	copy(c, jobs)
	for i := range c {
		c[i].Worker = ""
		c[i].Cached = false
		c[i].Hits = 0
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDistributedByteIdentity is the conformance core: quick Table 4
// run single-process, with 1 worker, and with 3 workers must produce
// byte-identical rendered output, and the 1- vs 3-worker manifests
// must agree on every job result.
func TestDistributedByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep in -short mode")
	}
	sz := integSizes()

	core.ResetResultCache()
	single, misses := renderTable4(t, sz)
	if misses == 0 {
		t.Fatal("single-process pass did not simulate anything")
	}

	u1, _ := startWorkerProc(t, "w1")
	core.ResetResultCache()
	dist1, jobs1 := distributeTable4(t, sz, []string{u1})

	u2, _ := startWorkerProc(t, "w2")
	u3, _ := startWorkerProc(t, "w3")
	core.ResetResultCache()
	dist3, jobs3 := distributeTable4(t, sz, []string{u1, u2, u3})

	if dist1 != single {
		t.Errorf("1-worker distributed output differs from single-process:\n--- single ---\n%s\n--- distributed ---\n%s", single, dist1)
	}
	if dist3 != single {
		t.Errorf("3-worker distributed output differs from single-process:\n--- single ---\n%s\n--- distributed ---\n%s", single, dist3)
	}
	if string(jobs1) != string(jobs3) {
		t.Error("1-worker and 3-worker manifests disagree on job results")
	}
}

// TestDistributedWorkerSIGKILL is the chaos conformance test: one of
// three workers is SIGKILLed mid-sweep. The sweep must fail naming it,
// and a resumed sweep against the two survivors — dispatching only
// what the first leg did not merge — must render output byte-identical
// to a single-process run.
func TestDistributedWorkerSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep in -short mode")
	}
	sz := integSizes()

	core.ResetResultCache()
	single, _ := renderTable4(t, sz)

	u1, victim := startWorkerProc(t, "victim")
	u2, _ := startWorkerProc(t, "s1")
	u3, _ := startWorkerProc(t, "s2")

	var once sync.Once
	core.ResetResultCache()
	err := dispatchTable4(t, sz, []string{u1, u2, u3}, nil, func(n int) {
		// Kill the victim early in the sweep, while most of the queue
		// is still waiting.
		if n >= 3 {
			once.Do(func() {
				victim.Process.Signal(syscall.SIGKILL) //nolint:errcheck
			})
		}
	})
	if err == nil || !strings.Contains(err.Error(), u1) {
		t.Fatalf("sweep with a SIGKILLed worker: err = %v, want a failure naming %s", err, u1)
	}
	resumed, _ := distributeTable4(t, sz, []string{u2, u3})
	if resumed != single {
		t.Errorf("resumed distributed output differs from single-process:\n--- single ---\n%s\n--- resumed ---\n%s", single, resumed)
	}
}

// TestDistributedResumeSkipsStored covers the coordinator-crash path:
// a sweep interrupted mid-dispatch leaves its merged results in the
// checkpoint journal; a resumed plan must exclude them (no
// recomputation) and the finished output must be byte-identical.
func TestDistributedResumeSkipsStored(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep in -short mode")
	}
	sz := integSizes()

	core.ResetResultCache()
	single, _ := renderTable4(t, sz)
	core.ResetResultCache()

	dir := t.TempDir()
	if err := core.SetResultCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		core.CloseCheckpoint(false) //nolint:errcheck
		core.SetResultCacheDir("")  //nolint:errcheck
		core.ResetResultCache()
	}()
	if _, err := core.SetCheckpoint(false); err != nil {
		t.Fatal(err)
	}

	url, _ := startWorkerProc(t, "w")
	plan := planTable4(t, sz)
	totalJobs := len(plan.Jobs)

	// First leg: cancel the coordinator partway through the sweep — a
	// coordinator crash with the journal intact.
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	merged := 0
	coord, err := NewCoordinator(Options{
		Workers: []string{url}, BatchSize: 4,
		OnResult: func(_ string, job Job, run metrics.Run) {
			core.InjectResult(job.Key, run)
			mu.Lock()
			merged++
			if merged == totalJobs/2 {
				cancel()
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(ctx, plan.Jobs, plan.Keys); err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	cancel()
	mu.Lock()
	checkpointed := merged
	mu.Unlock()
	if checkpointed == 0 {
		t.Fatal("nothing merged before the simulated crash")
	}

	// Simulated restart: drop the in-memory cache, replay the journal.
	if err := core.CloseCheckpoint(false); err != nil {
		t.Fatal(err)
	}
	core.ResetResultCache()
	replayed, err := core.SetCheckpoint(true)
	if err != nil {
		t.Fatal(err)
	}
	if replayed < checkpointed {
		t.Errorf("journal replayed %d records, want >= %d merged before crash", replayed, checkpointed)
	}

	// Resumed plan: checkpointed results must be excluded.
	plan2 := planTable4(t, sz)
	if plan2.Stored < checkpointed {
		t.Errorf("resumed plan skips %d stored jobs, want >= %d", plan2.Stored, checkpointed)
	}
	if len(plan2.Jobs)+plan2.Stored != totalJobs {
		t.Errorf("resumed plan: %d jobs + %d stored != %d total", len(plan2.Jobs), plan2.Stored, totalJobs)
	}

	// Second leg finishes only the missing work, then aggregate.
	coord2, err := NewCoordinator(Options{
		Workers: []string{url}, BatchSize: 4,
		OnResult: func(_ string, job Job, run metrics.Run) {
			core.InjectResult(job.Key, run)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord2.Run(context.Background(), plan2.Jobs, plan2.Keys); err != nil {
		t.Fatal(err)
	}
	resumed, misses := renderTable4(t, sz)
	if misses != 0 {
		t.Errorf("aggregation after resume simulated %d jobs locally", misses)
	}
	if resumed != single {
		t.Errorf("resumed distributed output differs from single-process:\n--- single ---\n%s\n--- resumed ---\n%s", single, resumed)
	}
}
