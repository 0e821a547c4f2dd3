package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/core"
	"bce/internal/metrics"
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
// provably merges work: each worker's jobs wait until every worker has
// received one, so no worker can drain the shared queue alone.
func spreadWorkers(t *testing.T, names ...string) []string {
	t.Helper()
	var all sync.WaitGroup
	all.Add(len(names))
	urls := make([]string, len(names))
	for i, name := range names {
		var once sync.Once
		exec := func(ctx context.Context, j core.JobSpec) (metrics.Run, error) {
			once.Do(all.Done)
			all.Wait()
			return stubExec(ctx, j)
		}
		srv := testWorkerServer(name, exec)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

func fastOpts(urls []string, sink *mergeSink) Options {
	return Options{
		Workers:   urls,
		BatchSize: 2,
		OnResult:  sink.OnResult,
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

// TestCoordinatorKilledMidSweep: the flaky worker serves its first
// batch, then dies on its second request with no HTTP response at all —
// a worker SIGKILLed mid-shard as seen from the coordinator. The sweep
// must fail naming it, and exactly the batches answered before the
// death must have merged, once each. The survivor answers at most two
// batches, so the flaky worker is sure to ask for a second, and none
// after the death, so the answered set is exact.
func TestCoordinatorKilledMidSweep(t *testing.T) {
	var (
		mu       sync.Mutex
		dead     bool
		answered []string
		served   int
	)
	merged := make(chan struct{}, 1)
	sink := newMergeSink()
	onResult := func(worker string, job Job, run metrics.Run) {
		sink.OnResult(worker, job, run)
		select {
		case merged <- struct{}{}:
		default:
		}
	}
	// answer serves one exec request through h and records the keys of
	// a batch answered 200.
	answer := func(h http.Handler, rw http.ResponseWriter, req *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			if r, err := DecodeBatchResult(rec.Body.Bytes()); err == nil {
				for _, jr := range r.Results {
					answered = append(answered, jr.Key)
				}
			}
		}
		for k, vs := range rec.Header() {
			rw.Header()[k] = vs
		}
		rw.WriteHeader(rec.Code)
		rw.Write(rec.Body.Bytes()) //nolint:errcheck // test server
	}

	flakyWorker := NewWorker(WorkerOptions{Name: "flaky", Exec: stubExec}).Handler()
	var flakyCalls atomic32
	flaky := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if !strings.HasSuffix(req.URL.Path, PathExec) {
			flakyWorker.ServeHTTP(rw, req)
			return
		}
		if flakyCalls.add(1) == 1 {
			mu.Lock()
			answer(flakyWorker, rw, req)
			mu.Unlock()
			return
		}
		mu.Lock()
		dead = true
		want := len(answered)
		mu.Unlock()
		// Die only once every answered batch has merged.
		for sink.len() < want {
			select {
			case <-merged:
			case <-req.Context().Done():
				return
			}
		}
		hj, ok := rw.(http.Hijacker)
		if !ok {
			t.Error("no hijacker")
			return
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close() // mid-request death: no HTTP response at all
		}
	}))
	defer flaky.Close()
	survivorWorker := NewWorker(WorkerOptions{Name: "survivor", Exec: stubExec}).Handler()
	survivor := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if !strings.HasSuffix(req.URL.Path, PathExec) {
			survivorWorker.ServeHTTP(rw, req)
			return
		}
		mu.Lock()
		if dead || served == 2 {
			mu.Unlock()
			// Read the body first: the server notices the client hang
			// up, and cancels the request context, only after that.
			io.Copy(io.Discard, req.Body) //nolint:errcheck // test server
			<-req.Context().Done()
			return
		}
		served++
		answer(survivorWorker, rw, req)
		mu.Unlock()
	}))
	defer survivor.Close()

	jobs, keys := jobSet(t, 12)
	opts := fastOpts([]string{flaky.URL, survivor.URL}, sink)
	opts.OnResult = onResult
	coord, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	err = coord.Run(context.Background(), jobs, keys)
	if err == nil || !strings.Contains(err.Error(), flaky.URL) {
		t.Fatalf("sweep with a worker dying mid-shard: err = %v, want a failure naming %s", err, flaky.URL)
	}
	mu.Lock()
	defer mu.Unlock()
	if sink.len() != len(answered) {
		t.Errorf("merged %d jobs, %d were answered before the death", sink.len(), len(answered))
	}
	for _, key := range answered {
		if _, ok := sink.byKey[key]; !ok {
			t.Errorf("answered job %s never merged", key)
		}
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
