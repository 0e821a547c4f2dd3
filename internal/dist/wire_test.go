package dist

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/core"
	"bce/internal/metrics"
)

// sampleJob builds a valid wire job (key derived, spec validated).
// Shared with the fuzz seeds, so it panics instead of taking a *T.
func sampleJob(bench string, lambda int) Job {
	spec := core.JobSpec{
		Bench:     bench,
		Machine:   config.Baseline40x4(),
		Predictor: "bimodal-gshare",
		Estimator: confidence.SpecCIC(lambda),
		Sizes:     core.JobSizes{Warmup: 1000, Measure: 3000, Segments: 1},
	}
	key, err := spec.Key()
	if err != nil {
		panic("sample spec invalid: " + err.Error())
	}
	return Job{Key: key, Spec: spec}
}

func sampleBatch() Batch {
	return Batch{
		Schema: SchemaVersion,
		Shard:  1,
		Seq:    2,
		Jobs:   []Job{sampleJob("gzip", 0), sampleJob("gcc", 25)},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	want := sampleBatch()
	data, err := EncodeBatch(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != want.Schema || got.Shard != want.Shard || got.Seq != want.Seq ||
		len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("round trip mangled batch: got %+v want %+v", got, want)
	}
	for i := range want.Jobs {
		if got.Jobs[i].Key != want.Jobs[i].Key {
			t.Errorf("job %d key: got %q want %q", i, got.Jobs[i].Key, want.Jobs[i].Key)
		}
		// The specs must survive well enough to re-derive the same key.
		rekey, err := got.Jobs[i].Spec.Key()
		if err != nil {
			t.Fatalf("job %d: re-derive key: %v", i, err)
		}
		if rekey != want.Jobs[i].Key {
			t.Errorf("job %d: key drifted across the wire: %q -> %q", i, want.Jobs[i].Key, rekey)
		}
	}
}

func TestBatchResultRoundTrip(t *testing.T) {
	run := metrics.Run{Retired: 1234, Cycles: 500}
	want := BatchResult{
		Schema: SchemaVersion,
		Worker: "w1",
		Results: []JobResult{
			{Key: "k1", Run: &run},
			{Key: "k2", Err: "bad spec"},
		},
	}
	data, err := EncodeBatchResult(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Worker != "w1" || len(got.Results) != 2 {
		t.Fatalf("round trip mangled result: %+v", got)
	}
	if got.Results[0].Run == nil || got.Results[0].Run.Retired != 1234 {
		t.Errorf("run payload mangled: %+v", got.Results[0])
	}
	if got.Results[1].Run != nil || got.Results[1].Err != "bad spec" {
		t.Errorf("failure entry mangled: %+v", got.Results[1])
	}
}

func TestDecodeBatchRejects(t *testing.T) {
	valid := sampleBatch()
	cases := []struct {
		name string
		mut  func(b *Batch)
		want string
	}{
		{"schema zero", func(b *Batch) { b.Schema = 0 }, "schema"},
		{"schema future", func(b *Batch) { b.Schema = SchemaVersion + 1 }, "schema"},
		{"no jobs", func(b *Batch) { b.Jobs = nil }, "no jobs"},
		{"empty key", func(b *Batch) { b.Jobs[0].Key = "" }, "empty key"},
		{"duplicate key", func(b *Batch) { b.Jobs[1].Key = b.Jobs[0].Key }, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := valid
			b.Jobs = append([]Job(nil), valid.Jobs...)
			tc.mut(&b)
			data, err := EncodeBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeBatch(data); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("DecodeBatch = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestDecodeBatchSchemaSkewIsErrSchema(t *testing.T) {
	b := sampleBatch()
	b.Schema = SchemaVersion + 3
	data, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeBatch(data)
	if !errors.Is(err, ErrSchema) {
		t.Errorf("future schema: err = %v, want ErrSchema", err)
	}
}

func TestDecodeBatchStrictness(t *testing.T) {
	for _, tc := range []struct {
		name, payload string
	}{
		{"unknown field", `{"schema":2,"surprise":true,"jobs":[{"key":"k","spec":{}}]}`},
		{"trailing garbage", `{"schema":2,"jobs":[{"key":"k","spec":{}}]} {"more":1}`},
		{"not json", `hello`},
		{"wrong type", `[1,2,3]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeBatch([]byte(tc.payload)); err == nil {
				t.Error("malformed payload decoded cleanly")
			}
		})
	}
}

func TestDecodeBatchResultRejects(t *testing.T) {
	run := metrics.Run{Retired: 1}
	for _, tc := range []struct {
		name string
		r    BatchResult
		want string
	}{
		{"schema", BatchResult{Schema: 99, Results: []JobResult{{Key: "k", Run: &run}}}, "schema"},
		{"empty key", BatchResult{Schema: SchemaVersion, Results: []JobResult{{Run: &run}}}, "empty key"},
		{"duplicate key", BatchResult{Schema: SchemaVersion, Results: []JobResult{{Key: "k", Run: &run}, {Key: "k", Run: &run}}}, "duplicate"},
		{"neither run nor err", BatchResult{Schema: SchemaVersion, Results: []JobResult{{Key: "k"}}}, "exactly one"},
		{"both run and err", BatchResult{Schema: SchemaVersion, Results: []JobResult{{Key: "k", Run: &run, Err: "x"}}}, "exactly one"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := EncodeBatchResult(tc.r)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeBatchResult(data); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("DecodeBatchResult = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	huge := make([]byte, maxMessageBytes+1)
	for i := range huge {
		huge[i] = ' '
	}
	if _, err := DecodeBatch(huge); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("oversize message: err = %v, want byte-cap error", err)
	}
}

// TestBatchRoundTripWrapperSpecs: the band-remapping wrapper kinds
// cross the wire intact, so jobs that use them re-derive their keys on
// the worker.
func TestBatchRoundTripWrapperSpecs(t *testing.T) {
	b := sampleBatch()
	for i, est := range []*confidence.Spec{
		confidence.SpecPromoteLow(confidence.SpecJRS(15)),
		confidence.SpecDemoteStrong(confidence.SpecCICWith(confidence.CICConfig{Lambda: -75, Reversal: 50})),
	} {
		b.Jobs[i].Spec.Estimator = est
		key, err := b.Jobs[i].Spec.Key()
		if err != nil {
			t.Fatalf("job %d: Key: %v", i, err)
		}
		b.Jobs[i].Key = key
	}
	data, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range got.Jobs {
		rekey, err := j.Spec.Key()
		if err != nil {
			t.Fatalf("job %d: re-derive key: %v", i, err)
		}
		if rekey != b.Jobs[i].Key {
			t.Errorf("job %d: key drifted across the wire: %q -> %q", i, b.Jobs[i].Key, rekey)
		}
	}
}

// TestWorkerRejectsHostileWrapperSpecs: DecodeBatch leaves job specs to
// the worker, which must fail a malformed wrapper spec as a
// deterministic job error, never build it.
func TestWorkerRejectsHostileWrapperSpecs(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerOptions{Exec: stubExec}).Handler())
	defer srv.Close()
	for _, tc := range []struct {
		name string
		est  *confidence.Spec
		want string
	}{
		{"nested wrappers", confidence.SpecPromoteLow(confidence.SpecDemoteStrong(confidence.SpecCIC(0))), "inner spec"},
		{"missing inner", &confidence.Spec{Kind: confidence.KindDemoteStrong}, "needs exactly the inner"},
		{"inner none", confidence.SpecPromoteLow(confidence.SpecNone()), "inner spec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := sampleBatch()
			b.Jobs = b.Jobs[:1]
			b.Jobs[0].Spec.Estimator = tc.est
			data, err := EncodeBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeBatch(data)
			if err != nil {
				t.Fatalf("DecodeBatch: %v", err)
			}
			if _, err := got.Jobs[0].Spec.Key(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Key = %v, want error containing %q", err, tc.want)
			}
			resp, body := postBatch(t, srv.URL, b)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("exec: HTTP %d: %s", resp.StatusCode, body)
			}
			reply, err := DecodeBatchResult(body)
			if err != nil {
				t.Fatalf("reply: %v\n%s", err, body)
			}
			if jr := reply.Results[0]; jr.Run != nil || !strings.Contains(jr.Err, tc.want) {
				t.Errorf("hostile spec: want a validation error, got %+v", jr)
			}
		})
	}
}
