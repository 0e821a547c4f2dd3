package dist

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bce/internal/core"
	"bce/internal/metrics"
)

// stubExec returns a canned run without simulating, keyed by bench so
// results are distinguishable.
func stubExec(_ context.Context, j core.JobSpec) (metrics.Run, error) {
	return metrics.Run{Retired: uint64(len(j.Bench)), Cycles: 7, Segments: 1}, nil
}

func postBatch(t *testing.T, url string, b Batch) (*http.Response, []byte) {
	t.Helper()
	payload, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+PathExec, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestWorkerExecutesBatch(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerOptions{Name: "wtest", Exec: stubExec}).Handler())
	defer srv.Close()

	resp, body := postBatch(t, srv.URL, sampleBatch())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec: HTTP %d: %s", resp.StatusCode, body)
	}
	reply, err := DecodeBatchResult(body)
	if err != nil {
		t.Fatalf("reply: %v\n%s", err, body)
	}
	if reply.Worker != "wtest" || reply.Schema != SchemaVersion {
		t.Errorf("reply header: %+v", reply)
	}
	if len(reply.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(reply.Results))
	}
	for _, jr := range reply.Results {
		if jr.Run == nil {
			t.Errorf("job %s failed: %s", jr.Key, jr.Err)
		}
	}
}

func TestWorkerRejectsKeyMismatch(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerOptions{Exec: stubExec}).Handler())
	defer srv.Close()

	b := sampleBatch()
	b.Jobs = b.Jobs[:1]
	b.Jobs[0].Key = b.Jobs[0].Key + "-tampered"
	resp, body := postBatch(t, srv.URL, b)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec: HTTP %d: %s", resp.StatusCode, body)
	}
	reply, err := DecodeBatchResult(body)
	if err != nil {
		t.Fatal(err)
	}
	jr := reply.Results[0]
	if jr.Run != nil || !strings.Contains(jr.Err, "mismatch") {
		t.Errorf("tampered key: want a mismatch error, got %+v", jr)
	}
}

// TestWorkerClassifiesFailures: a failed job carries its own error,
// and a failure fails only that job, not its batch.
func TestWorkerClassifiesFailures(t *testing.T) {
	exec := func(_ context.Context, j core.JobSpec) (metrics.Run, error) {
		if j.Bench == "gcc" {
			return metrics.Run{}, errors.New("bad simulation")
		}
		return stubExec(context.Background(), j)
	}
	srv := httptest.NewServer(NewWorker(WorkerOptions{Exec: exec}).Handler())
	defer srv.Close()

	resp, body := postBatch(t, srv.URL, sampleBatch()) // gzip + gcc
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec: HTTP %d: %s", resp.StatusCode, body)
	}
	reply, err := DecodeBatchResult(body)
	if err != nil {
		t.Fatal(err)
	}
	byBench := map[string]JobResult{}
	for i, jr := range reply.Results {
		byBench[sampleBatch().Jobs[i].Spec.Bench] = jr
	}
	// Results come back in batch order (runner.Map preserves order).
	if jr := byBench["gzip"]; jr.Run == nil || jr.Err != "" {
		t.Errorf("healthy job failed alongside a broken one: %+v", jr)
	}
	if jr := byBench["gcc"]; jr.Run != nil || jr.Err != "bad simulation" {
		t.Errorf("failed job does not carry its error: %+v", jr)
	}
}

func TestWorkerHTTPDiscipline(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerOptions{Exec: stubExec}).Handler())
	defer srv.Close()

	if resp, _ := http.Get(srv.URL + PathExec); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET exec: HTTP %d, want 405", resp.StatusCode)
	}
	if resp, err := http.Post(srv.URL+PathPing, "", nil); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST ping: HTTP %d, want 405", resp.StatusCode)
	}
	resp, err := http.Post(srv.URL+PathExec, "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed batch: HTTP %d, want 400", resp.StatusCode)
	}
	// Version skew: a batch from the future must be refused outright.
	b := sampleBatch()
	b.Schema = SchemaVersion + 1
	if resp, body := postBatch(t, srv.URL, b); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("future schema: HTTP %d (%s), want 400", resp.StatusCode, body)
	}
}

func TestWorkerPing(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerOptions{Name: "pingy", Exec: stubExec}).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + PathPing)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var reply struct {
		Schema int    `json:"schema"`
		Worker string `json:"worker"`
	}
	if err := decodeStrict(body, &reply); err != nil {
		t.Fatalf("ping reply: %v\n%s", err, body)
	}
	if reply.Schema != SchemaVersion || reply.Worker != "pingy" {
		t.Errorf("ping = %+v", reply)
	}
}
