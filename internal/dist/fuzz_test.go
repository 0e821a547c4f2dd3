package dist

import "testing"

// The wire decoders face bytes from the network; fuzz them for panics
// and for decode/encode/decode instability. Seed corpora cover the
// happy path, every validation branch, and a few JSON edge shapes.

func FuzzDecodeBatch(f *testing.F) {
	valid := sampleBatch()
	if data, err := EncodeBatch(valid); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"schema":2,"jobs":[{"key":"k","spec":{}}]}`))
	f.Add([]byte(`{"schema":0,"jobs":[]}`))
	f.Add([]byte(`{"schema":2,"jobs":[{"key":"","spec":{}}]}`))
	f.Add([]byte(`{"schema":2,"jobs":[{"key":"a","spec":{}},{"key":"a","spec":{}}]}`))
	f.Add([]byte(`{"schema":1,"job_timeout_ms":5,"jobs":[{"key":"k","spec":{}}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte("{\"schema\":1e9}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and decode to the same
		// validated shape (idempotent normalization).
		out, err := EncodeBatch(b)
		if err != nil {
			t.Fatalf("decoded batch failed to encode: %v", err)
		}
		b2, err := DecodeBatch(out)
		if err != nil {
			t.Fatalf("re-decode of encoded batch failed: %v\npayload: %s", err, out)
		}
		if len(b2.Jobs) != len(b.Jobs) || b2.Schema != b.Schema {
			t.Fatalf("round trip drift: %+v -> %+v", b, b2)
		}
	})
}

func FuzzDecodeBatchResult(f *testing.F) {
	f.Add([]byte(`{"schema":2,"worker":"w","results":[{"key":"k","run":{}}]}`))
	f.Add([]byte(`{"schema":1,"results":[{"key":"k","err":"boom","transient":true}]}`))
	f.Add([]byte(`{"schema":2,"results":[{"key":"k"}]}`))
	f.Add([]byte(`{"schema":2,"results":[{"key":"k","run":{},"err":"x"}]}`))
	f.Add([]byte(`{"schema":3,"results":[]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeBatchResult(data)
		if err != nil {
			return
		}
		out, err := EncodeBatchResult(r)
		if err != nil {
			t.Fatalf("decoded result failed to encode: %v", err)
		}
		r2, err := DecodeBatchResult(out)
		if err != nil {
			t.Fatalf("re-decode of encoded result failed: %v\npayload: %s", err, out)
		}
		if len(r2.Results) != len(r.Results) || r2.Schema != r.Schema {
			t.Fatalf("round trip drift: %+v -> %+v", r, r2)
		}
	})
}
