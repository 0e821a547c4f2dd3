package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bce/internal/core"
	"bce/internal/metrics"
	"bce/internal/runner"
	"bce/internal/telemetry"
)

// failure_test.go covers the coordinator's failure model — any failed
// batch fails the sweep and merges nothing of its own — plus the
// worker's content digests and concurrent observability reads.

// slowExec wraps stubExec with a fixed per-job delay, stretching a
// sweep so concurrent readers overlap it.
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

// TestCoordinatorRejectsPartialReplyWithoutMerging: a reply whose
// final entry names an unknown key must fail the sweep and be rejected
// wholesale, before any of its valid entries reach OnResult.
func TestCoordinatorRejectsPartialReplyWithoutMerging(t *testing.T) {
	var (
		mu       sync.Mutex
		poisoned []string
	)
	poison := func(body []byte) []byte {
		var r BatchResult
		if err := json.Unmarshal(body, &r); err != nil || len(r.Results) == 0 {
			return body
		}
		mu.Lock()
		for _, jr := range r.Results {
			poisoned = append(poisoned, jr.Key)
		}
		mu.Unlock()
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
	err = coord.Run(context.Background(), jobs, keys)
	if err == nil || !strings.Contains(err.Error(), w1.URL) || !strings.Contains(err.Error(), "unknown key") {
		t.Fatalf("poisoned reply: err = %v, want an unknown-key failure naming %s", err, w1.URL)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(poisoned) == 0 {
		t.Fatal("no reply was poisoned; the test exercised nothing")
	}
	for _, key := range poisoned {
		if _, ok := sink.byKey[key]; ok {
			t.Errorf("job %s of the poisoned reply merged", key)
		}
	}
	if sink.dups != 0 {
		t.Errorf("%d duplicate merges", sink.dups)
	}
}

// TestPingFailsWhenAllWorkersUnreachable: Ping fails when every
// worker is unreachable, and also when only one of two is.
func TestPingFailsWhenAllWorkersUnreachable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()
	live := testWorkerServer("live", nil)
	defer live.Close()
	for _, urls := range [][]string{{url}, {live.URL, url}} {
		coord, err := NewCoordinator(fastOpts(urls, newMergeSink()))
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Ping(context.Background()); err == nil || !strings.Contains(err.Error(), url) {
			t.Errorf("ping %v: err = %v, want a failure naming the unreachable %s", urls, err, url)
		}
	}
}

// TestConcurrentSnapshotsDuringChaoticSweep hammers both live counter
// sets — the coordinator's and the runner's — while a sweep runs and
// then fails on a worker that starts answering 503. Run under -race
// this is the data-race property test for the observability reads.
func TestConcurrentSnapshotsDuringChaoticSweep(t *testing.T) {
	ResetStats()
	w1 := testWorkerServer("steady", slowExec(3*time.Millisecond))
	defer w1.Close()
	inner := NewWorker(WorkerOptions{Name: "failing", Exec: stubExec}).Handler()
	var served atomic.Int64
	w2 := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == PathExec && served.Add(1) > 2 {
			http.Error(rw, "restarting", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(rw, req)
	}))
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
				_ = Snapshot()
				_ = runner.LiveSnapshot()
			}
		}()
	}
	err = coord.Run(context.Background(), jobs, keys)
	close(stop)
	readers.Wait()
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("sweep against a worker answering 503: err = %v, want the 503", err)
	}
	if sink.dups != 0 {
		t.Errorf("%d duplicate merges", sink.dups)
	}
	if s := Snapshot(); s.JobsMerged != uint64(sink.len()) {
		t.Errorf("JobsMerged = %d, sink holds %d", s.JobsMerged, sink.len())
	}
}

// TestWorkerMetricsExposeRetryAndQuarantine validates — through the
// same Prometheus parser promcheck uses — that a worker's /metrics
// page carries the runner's store-quarantine counter, the sick-host
// signal an operator scrapes, and the worker's batch counters.
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
// mismatched content digest: the worker must answer 409 before
// parsing, and stamp its own reply digest.
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
	// Malformed batches are 400s, stamped too.
	bad := []byte(fmt.Sprintf(`{"schema":%d,"jobs":[]}`, SchemaVersion))
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
