package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/core"
	"bce/internal/metrics"
	"bce/internal/runner"
)

// jobSet builds n distinct valid jobs (distinct CIC thresholds) plus
// their key slice, sorted the way core.CollectJobs delivers them.
func jobSet(t *testing.T, n int) ([]core.JobSpec, []string) {
	t.Helper()
	type pair struct {
		spec core.JobSpec
		key  string
	}
	pairs := make([]pair, n)
	for i := range pairs {
		spec := core.JobSpec{
			Bench:     "gzip",
			Machine:   config.Baseline40x4(),
			Predictor: "bimodal-gshare",
			Estimator: confidence.SpecCIC(i),
			Sizes:     core.JobSizes{Warmup: 1000, Measure: 3000, Segments: 1},
		}
		key, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = pair{spec, key}
	}
	for i := 0; i < len(pairs); i++ { // insertion sort by key: n is tiny
		for j := i; j > 0 && pairs[j].key < pairs[j-1].key; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	jobs := make([]core.JobSpec, n)
	keys := make([]string, n)
	for i, p := range pairs {
		jobs[i], keys[i] = p.spec, p.key
	}
	return jobs, keys
}

// mergeSink is a concurrency-safe OnResult recorder.
type mergeSink struct {
	mu      sync.Mutex
	byKey   map[string]metrics.Run
	workers map[string]int
	dups    int
}

func newMergeSink() *mergeSink {
	return &mergeSink{byKey: map[string]metrics.Run{}, workers: map[string]int{}}
}

func (s *mergeSink) OnResult(worker string, job Job, run metrics.Run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, seen := s.byKey[job.Key]; seen {
		s.dups++
	}
	s.byKey[job.Key] = run
	s.workers[worker]++
}

func (s *mergeSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byKey)
}

func testWorkerServer(name string, exec func(context.Context, core.JobSpec) (metrics.Run, error)) *httptest.Server {
	if exec == nil {
		exec = stubExec
	}
	return httptest.NewServer(NewWorker(WorkerOptions{Name: name, Exec: exec}).Handler())
}

// spreadWorkers starts one stub worker per name on which every worker
// provably merges work. Each worker's jobs wait until every worker has
// received one, so no worker can drain the shared queue alone, and only
// the first delivery of a batch is served: a tail hedge of a batch that
// is already running elsewhere hangs until cancelled, so it never
// steals a worker's first result.
func spreadWorkers(t *testing.T, names ...string) []string {
	t.Helper()
	var all sync.WaitGroup
	all.Add(len(names))
	var mu sync.Mutex
	delivered := map[[2]int]bool{}
	urls := make([]string, len(names))
	for i, name := range names {
		var once sync.Once
		exec := func(ctx context.Context, j core.JobSpec) (metrics.Run, error) {
			once.Do(all.Done)
			all.Wait()
			return stubExec(ctx, j)
		}
		inner := NewWorker(WorkerOptions{Name: name, Exec: exec}).Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			if req.URL.Path == PathExec {
				body, err := io.ReadAll(req.Body)
				if err != nil {
					return
				}
				req.Body = io.NopCloser(bytes.NewReader(body))
				if b, err := DecodeBatch(body); err == nil {
					mu.Lock()
					dup := delivered[[2]int{b.Shard, b.Seq}]
					delivered[[2]int{b.Shard, b.Seq}] = true
					mu.Unlock()
					if dup {
						<-req.Context().Done()
						return
					}
				}
			}
			inner.ServeHTTP(rw, req)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

func fastOpts(urls []string, sink *mergeSink) Options {
	return Options{
		Workers:      urls,
		BatchSize:    2,
		Retries:      1,
		RetryBackoff: time.Millisecond,
		OnResult:     sink.OnResult,
	}
}

func TestCoordinatorMergesEveryJob(t *testing.T) {
	jobs, keys := jobSet(t, 11)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts(spreadWorkers(t, "w1", "w2"), sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatal(err)
	}
	if sink.len() != len(jobs) {
		t.Errorf("merged %d of %d jobs", sink.len(), len(jobs))
	}
	if sink.dups != 0 {
		t.Errorf("%d duplicate merges (each key must merge exactly once)", sink.dups)
	}
	// Shared queue: both workers must have done work.
	if sink.workers["w1"] == 0 || sink.workers["w2"] == 0 {
		t.Errorf("one worker did all the work: %v", sink.workers)
	}
}

func TestCoordinatorReassignsFromDeadWorker(t *testing.T) {
	ResetStats()
	// The live worker is slow enough that the dead one exhausts its
	// in-place retries and is evicted before the queue runs dry; a
	// faster sweep would rescue its batch by a tail hedge instead.
	alive := testWorkerServer("alive", slowExec(3*time.Millisecond))
	defer alive.Close()
	dead := testWorkerServer("dead", nil)
	dead.Close() // every request refused: connection error from the start

	jobs, keys := jobSet(t, 9)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{alive.URL, dead.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatalf("sweep must survive one dead worker: %v", err)
	}
	if sink.len() != len(jobs) {
		t.Errorf("merged %d of %d jobs after reassignment", sink.len(), len(jobs))
	}
	if sink.workers["dead"] != 0 {
		t.Errorf("results attributed to the dead worker: %v", sink.workers)
	}
	if got := Snapshot().WorkersLost; got == 0 {
		t.Error("WorkersLost counter not bumped")
	}
}

func TestCoordinatorKilledMidSweep(t *testing.T) {
	// The flaky worker serves its first batch, then drops the
	// connection on every later request — a worker SIGKILLed mid-shard
	// as seen from the coordinator. The sweep must still merge every
	// job exactly once via the survivor.
	var served atomic32
	flakyWorker := NewWorker(WorkerOptions{Name: "flaky", Exec: stubExec})
	flaky := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, PathExec) && served.add(1) > 1 {
			hj, ok := rw.(http.Hijacker)
			if !ok {
				t.Error("no hijacker")
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close() // mid-request death: no HTTP response at all
			}
			return
		}
		flakyWorker.Handler().ServeHTTP(rw, req)
	}))
	defer flaky.Close()
	survivor := testWorkerServer("survivor", nil)
	defer survivor.Close()

	jobs, keys := jobSet(t, 12)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{flaky.URL, survivor.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatalf("sweep must survive a worker dying mid-shard: %v", err)
	}
	if sink.len() != len(jobs) {
		t.Errorf("merged %d of %d jobs", sink.len(), len(jobs))
	}
	if sink.dups != 0 {
		t.Errorf("%d duplicate merges", sink.dups)
	}
}

func TestCoordinatorAbortsOnDeterministicFailure(t *testing.T) {
	exec := func(_ context.Context, j core.JobSpec) (metrics.Run, error) {
		if j.Estimator != nil && j.Estimator.CIC != nil && j.Estimator.CIC.Lambda == 3 {
			return metrics.Run{}, errors.New("poisoned configuration")
		}
		return stubExec(context.Background(), j)
	}
	w1 := testWorkerServer("w1", exec)
	defer w1.Close()

	jobs, keys := jobSet(t, 6)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{w1.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	err = coord.Run(context.Background(), jobs, keys)
	if err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("deterministic job failure must abort the sweep: err = %v", err)
	}
}

func TestCoordinatorAllWorkersDead(t *testing.T) {
	s := testWorkerServer("gone", nil)
	url := s.URL
	s.Close()
	jobs, keys := jobSet(t, 4)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{url}, sink))
	if err != nil {
		t.Fatal(err)
	}
	err = coord.Run(context.Background(), jobs, keys)
	if err == nil {
		t.Fatal("sweep with zero live workers must fail")
	}
	if sink.len() != 0 {
		t.Errorf("merged %d jobs from a dead cluster", sink.len())
	}
}

func TestCoordinatorRequeuesTransientJobFailures(t *testing.T) {
	ResetStats()
	// Every job fails transiently exactly once, then succeeds: the
	// worker-side deadline-expiry pattern.
	var mu sync.Mutex
	failed := map[string]bool{}
	exec := func(_ context.Context, j core.JobSpec) (metrics.Run, error) {
		key := fmt.Sprintf("%v", j.Estimator.CIC.Lambda)
		mu.Lock()
		first := !failed[key]
		failed[key] = true
		mu.Unlock()
		if first {
			return metrics.Run{}, runner.Transient(errors.New("deadline"))
		}
		return stubExec(context.Background(), j)
	}
	w1 := testWorkerServer("w1", exec)
	defer w1.Close()
	w2 := testWorkerServer("w2", exec)
	defer w2.Close()

	jobs, keys := jobSet(t, 8)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{w1.URL, w2.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatalf("transient job failures must be retried to success: %v", err)
	}
	if sink.len() != len(jobs) {
		t.Errorf("merged %d of %d jobs", sink.len(), len(jobs))
	}
	if got := Snapshot().JobsRequeued; got == 0 {
		t.Error("JobsRequeued counter not bumped")
	}
}

func TestCoordinatorPingRejectsSchemaSkew(t *testing.T) {
	impostor := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(rw, `{"schema":%d,"worker":"future"}`+"\n", SchemaVersion+5)
	}))
	defer impostor.Close()
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{impostor.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Ping(context.Background()); !errors.Is(err, ErrSchema) {
		t.Errorf("ping against schema-skewed worker: err = %v, want ErrSchema", err)
	}
}

func TestCoordinatorOptionValidation(t *testing.T) {
	sink := newMergeSink()
	if _, err := NewCoordinator(Options{OnResult: sink.OnResult}); err == nil {
		t.Error("no workers accepted")
	}
	if _, err := NewCoordinator(Options{Workers: []string{"http://x"}}); err == nil {
		t.Error("nil OnResult accepted")
	}
	if _, err := NewCoordinator(Options{Workers: []string{""}, OnResult: sink.OnResult}); err == nil {
		t.Error("empty worker URL accepted")
	}
}

// atomic32 is a tiny counter (sync/atomic with less ceremony).
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) add(d int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n += d
	return a.n
}
