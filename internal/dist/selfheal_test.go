package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bce/internal/core"
	"bce/internal/metrics"
	"bce/internal/telemetry"
)

// selfheal_test.go covers the coordinator's self-healing machinery:
// worker eviction with half-open probing and re-admission, tail
// hedging, exactly-once merging under partial/duplicated replies, and
// concurrent observability reads.

// slowExec wraps stubExec with a fixed per-job delay, stretching a
// sweep so background machinery (probes, hedges) has time to act.
func slowExec(d time.Duration) func(context.Context, core.JobSpec) (metrics.Run, error) {
	return func(ctx context.Context, j core.JobSpec) (metrics.Run, error) {
		select {
		case <-ctx.Done():
			return metrics.Run{}, ctx.Err()
		case <-time.After(d):
		}
		return stubExec(ctx, j)
	}
}

// tamperExecOnce wraps a worker handler, rewriting the first
// successful exec reply with tamper and restamping the content digest
// so only the tampered payload itself — not transport corruption — is
// what the coordinator sees.
func tamperExecOnce(inner http.Handler, tamper func([]byte) []byte) http.Handler {
	var done atomic.Bool
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != PathExec || done.Load() {
			inner.ServeHTTP(rw, req)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && !done.Swap(true) {
			body = tamper(body)
		}
		for k, vs := range rec.Header() {
			if k == HeaderDigest {
				continue
			}
			for _, v := range vs {
				rw.Header().Add(k, v)
			}
		}
		rw.Header().Set(HeaderDigest, ContentDigest(body))
		rw.WriteHeader(rec.Code)
		rw.Write(body) //nolint:errcheck // test server
	})
}

// TestCoordinatorRejectsPartialReplyWithoutMerging is the duplicate-
// merge regression test: a reply whose final entry names an unknown key
// must be rejected wholesale BEFORE any of its valid entries reach
// OnResult. The old behavior merged the valid prefix, requeued the
// batch, and merged those jobs a second time on the healthy worker.
func TestCoordinatorRejectsPartialReplyWithoutMerging(t *testing.T) {
	ResetStats()
	poison := func(body []byte) []byte {
		var r BatchResult
		if err := json.Unmarshal(body, &r); err != nil || len(r.Results) == 0 {
			return body
		}
		r.Results[len(r.Results)-1].Key = "bogus-key-never-planned"
		out, err := EncodeBatchResult(r)
		if err != nil {
			return body
		}
		return out
	}
	w1 := httptest.NewServer(tamperExecOnce(
		NewWorker(WorkerOptions{Name: "w1", Exec: stubExec}).Handler(), poison))
	defer w1.Close()
	w2 := testWorkerServer("w2", nil)
	defer w2.Close()

	jobs, keys := jobSet(t, 10)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{w1.URL, w2.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatalf("sweep must absorb one poisoned reply: %v", err)
	}
	if sink.len() != len(jobs) {
		t.Errorf("merged %d of %d jobs", sink.len(), len(jobs))
	}
	if sink.dups != 0 {
		t.Errorf("%d duplicate merges: the poisoned reply's valid prefix leaked into OnResult", sink.dups)
	}
	if got := Snapshot().DupsSuppressed; got != 0 {
		t.Errorf("DupsSuppressed = %d: valid prefix was merged before the reply was validated", got)
	}
}

// flappingWorker serves 503 on every endpoint while down, then recovers
// after recoverAfter failed pings — a worker mid-restart.
type flappingWorker struct {
	inner        http.Handler
	down         atomic.Bool
	failedPings  atomic.Int64
	recoverAfter int64
}

func (f *flappingWorker) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if f.down.Load() {
		if req.URL.Path == PathPing && f.failedPings.Add(1) >= f.recoverAfter {
			f.down.Store(false)
		}
		http.Error(rw, "restarting", http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(rw, req)
}

// TestCoordinatorBreakerTripsAndReadmits drives a sweep with one
// healthy-but-slow worker and one that is down at sweep start and
// recovers during it. The breaker must trip, evict the flapping worker,
// probe it on cooldown, and re-admit it once a probe passes — all
// observable on the live counters and the Breakers snapshot.
func TestCoordinatorBreakerTripsAndReadmits(t *testing.T) {
	ResetStats()
	w1 := testWorkerServer("steady", slowExec(8*time.Millisecond))
	defer w1.Close()
	flap := &flappingWorker{
		inner:        NewWorker(WorkerOptions{Name: "flappy", Exec: stubExec}).Handler(),
		recoverAfter: 2,
	}
	flap.down.Store(true)
	w2 := httptest.NewServer(flap)
	defer w2.Close()

	jobs, keys := jobSet(t, 16)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{w1.URL, w2.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatalf("sweep must survive a flapping worker: %v", err)
	}
	if sink.len() != len(jobs) || sink.dups != 0 {
		t.Errorf("merged %d of %d jobs with %d dups", sink.len(), len(jobs), sink.dups)
	}
	s := Snapshot()
	if s.BreakerTrips == 0 {
		t.Error("breaker never tripped on the flapping worker")
	}
	if s.BreakerProbes < 2 {
		t.Errorf("BreakerProbes = %d, want >= 2 (recovery takes 2 failed pings)", s.BreakerProbes)
	}
	if s.BreakerReadmits == 0 {
		t.Error("flapping worker never re-admitted")
	}
	if s.WorkersLost == 0 {
		t.Error("WorkersLost not bumped on eviction")
	}
	if st := coord.Breakers()[w2.URL]; st.State != "closed" || st.Readmissions == 0 {
		t.Errorf("flapping worker's final breaker = %+v, want closed with readmissions", st)
	}
}

// TestPingToleratesUnreachableWorker: a worker partitioned away at
// sweep start must not abort the run — Ping trips its breaker, the
// live worker carries the sweep, and the half-open probe loop
// re-admits the stray when its network heals. Only schema skew (a
// build mismatch) or a fully unreachable fleet aborts.
func TestPingToleratesUnreachableWorker(t *testing.T) {
	ResetStats()
	w1 := testWorkerServer("steady", slowExec(3*time.Millisecond))
	defer w1.Close()
	flap := &flappingWorker{
		inner:        NewWorker(WorkerOptions{Name: "stray", Exec: stubExec}).Handler(),
		recoverAfter: 1,
	}
	flap.down.Store(true)
	w2 := httptest.NewServer(flap)
	defer w2.Close()

	jobs, keys := jobSet(t, 12)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{w1.URL, w2.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Ping(context.Background()); err != nil {
		t.Fatalf("ping with one live worker must succeed, got: %v", err)
	}
	if st := coord.Breakers()[w2.URL]; st.State == "closed" {
		t.Error("unreachable worker's breaker not tripped by startup ping")
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatalf("sweep with a startup-partitioned worker failed: %v", err)
	}
	if sink.len() != len(jobs) || sink.dups != 0 {
		t.Errorf("merged %d of %d jobs with %d dups", sink.len(), len(jobs), sink.dups)
	}
}

func TestPingFailsWhenAllWorkersUnreachable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{url}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Ping(context.Background()); err == nil {
		t.Error("ping with every worker unreachable must fail")
	}
}

// TestCoordinatorHedgesStragglers pins a straggler: after serving its
// first two jobs, the primary worker hangs forever on every job it is
// given. The rescuer drains the rest of the shared queue; once the
// queue runs dry, the tail hedge must re-issue the hung batch to the
// rescuer, take its result, and cancel the straggler — with every job
// still merged exactly once.
func TestCoordinatorHedgesStragglers(t *testing.T) {
	ResetStats()
	jobs, keys := jobSet(t, 36)
	var served atomic.Int64
	hangingExec := func(ctx context.Context, j core.JobSpec) (metrics.Run, error) {
		if served.Add(1) > 2 {
			<-ctx.Done()
			return metrics.Run{}, ctx.Err()
		}
		return stubExec(ctx, j)
	}
	w1 := testWorkerServer("straggler", hangingExec)
	defer w1.Close()
	w2 := testWorkerServer("rescuer", nil)
	defer w2.Close()

	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{w1.URL, w2.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- coord.Run(context.Background(), jobs, keys) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sweep must hedge around the straggler: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep hung: the straggler batch was never hedged")
	}
	if sink.len() != len(jobs) || sink.dups != 0 {
		t.Errorf("merged %d of %d jobs with %d dups", sink.len(), len(jobs), sink.dups)
	}
	s := Snapshot()
	if s.HedgesIssued == 0 {
		t.Error("no hedges issued for a hung batch")
	}
	if s.HedgeWins == 0 {
		t.Error("hedge never won against a worker that hangs forever")
	}
}

// TestConcurrentSnapshotsDuringChaoticSweep hammers every
// observability read path — breaker snapshots and live counters —
// while a sweep is rebalancing around a flapping worker. Run under -race this is the
// data-race property test for the self-healing machinery.
func TestConcurrentSnapshotsDuringChaoticSweep(t *testing.T) {
	ResetStats()
	w1 := testWorkerServer("steady", slowExec(3*time.Millisecond))
	defer w1.Close()
	flap := &flappingWorker{
		inner:        NewWorker(WorkerOptions{Name: "flappy", Exec: stubExec}).Handler(),
		recoverAfter: 2,
	}
	flap.down.Store(true)
	w2 := httptest.NewServer(flap)
	defer w2.Close()

	jobs, keys := jobSet(t, 20)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{w1.URL, w2.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = coord.Breakers()
				_ = Snapshot()
			}
		}()
	}
	err = coord.Run(context.Background(), jobs, keys)
	close(stop)
	readers.Wait()
	if err != nil {
		t.Fatalf("sweep failed under concurrent observation: %v", err)
	}
	if sink.len() != len(jobs) || sink.dups != 0 {
		t.Errorf("merged %d of %d jobs with %d dups", sink.len(), len(jobs), sink.dups)
	}
}

// TestWorkerMetricsExposeRetryAndQuarantine validates — through the
// same Prometheus parser promcheck uses — that a worker's /metrics
// page carries the runner's retry and store-quarantine counters, the
// sick-host signals an operator scrapes.
func TestWorkerMetricsExposeRetryAndQuarantine(t *testing.T) {
	w := testWorkerServer("w", nil)
	defer w.Close()
	resp, err := http.Get(w.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := telemetry.ParsePromText(resp.Body)
	if err != nil {
		t.Fatalf("worker /metrics is not parseable Prometheus text: %v", err)
	}
	for _, name := range []string{
		"bce_runner_jobs_retried",
		"bce_runner_store_quarantined",
		"bce_dist_batches_served",
		"bce_dist_jobs_failed",
	} {
		if _, ok := m.Get(name); !ok {
			t.Errorf("worker /metrics missing %s", name)
		}
	}
}

// TestWorkerAnswersCorruptionWith409 posts a valid batch under a
// mismatched content digest: the worker must answer 409 (transient to
// the coordinator) before parsing, and stamp its own reply digest.
func TestWorkerAnswersCorruptionWith409(t *testing.T) {
	w := NewWorker(WorkerOptions{Name: "w", Exec: stubExec})
	payload, err := EncodeBatch(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, PathExec, bytesReader(payload))
	req.Header.Set(HeaderDigest, ContentDigest([]byte("what was actually sent")))
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Fatalf("digest mismatch answered %d, want 409", rec.Code)
	}
	if got := rec.Header().Get(HeaderDigest); got != ContentDigest(rec.Body.Bytes()) {
		t.Errorf("409 reply digest %q does not match its body", got)
	}
}

// TestWorkerStampsReplyDigest checks the success path carries a digest
// the coordinator can verify.
func TestWorkerStampsReplyDigest(t *testing.T) {
	w := NewWorker(WorkerOptions{Name: "w", Exec: stubExec})
	payload, err := EncodeBatch(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, PathExec, bytesReader(payload))
	req.Header.Set(HeaderDigest, ContentDigest(payload))
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("valid batch answered %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(HeaderDigest); got != ContentDigest(rec.Body.Bytes()) {
		t.Errorf("reply digest %q does not match reply body", got)
	}
	// Malformed batches are still deterministic 400s — stamped, so the
	// coordinator can tell them from transit damage.
	bad := []byte(`{"schema":1,"jobs":[]}`)
	req = httptest.NewRequest(http.MethodPost, PathExec, bytesReader(bad))
	req.Header.Set(HeaderDigest, ContentDigest(bad))
	rec = httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch answered %d, want 400", rec.Code)
	}
	if got := rec.Header().Get(HeaderDigest); got != ContentDigest(rec.Body.Bytes()) {
		t.Errorf("400 reply digest %q does not match its body", got)
	}
}

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }
