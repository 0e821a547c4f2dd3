// Package dist distributes a sweep's timing simulations across worker
// processes. The coordinator enumerates the job space with
// core.CollectJobs, shards it deterministically over N workers, ships
// batches over HTTP in the versioned JSON wire form defined here, and
// merges the results back into the local store under the same
// content-addressed cache keys the in-process path uses — which is what
// makes a distributed sweep byte-identical to a single-process one (see
// docs/distributed.md).
package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"bce/internal/core"
	"bce/internal/metrics"
)

// HeaderDigest carries a sha256 content digest of the message body, in
// both directions. It tells damage in transit from a bad message: the
// worker answers a request whose body fails its digest with 409 before
// parsing it, and the coordinator refuses a reply whose body fails its
// digest, so a byte flip on the wire fails the sweep as corruption and
// is never merged as a result. The digest rides HTTP headers, outside
// the wire schema.
const HeaderDigest = "Bce-Content-Digest"

// ContentDigest returns the hex sha256 of body, the HeaderDigest
// value.
func ContentDigest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// SchemaVersion is the wire-schema version stamped on every Batch and
// BatchResult. Workers reject batches from a newer coordinator (they
// could carry fields the worker would silently drop); coordinators
// reject replies from a mismatched worker. Bump on any change to the
// message shapes below or to the semantics of core.JobSpec fields.
const SchemaVersion = 2

// HTTP endpoints served by a worker. The version segment is the schema
// major version, so incompatible workers 404 instead of misparsing.
const (
	PathExec = "/dist/v2/exec"
	PathPing = "/dist/v2/ping"
)

// maxMessageBytes bounds a single decoded wire message. A full-fidelity
// sweep is a few thousand jobs of ~1KB each; 32 MiB is two orders of
// magnitude of headroom while keeping a hostile peer from ballooning
// memory.
const maxMessageBytes = 32 << 20

// ErrSchema marks a schema-version mismatch between coordinator and
// worker, distinguished so callers can report "upgrade the worker"
// rather than a generic decode error.
var ErrSchema = errors.New("dist: wire schema mismatch")

// Job is one timing simulation plus the cache key the coordinator filed
// it under. The key is redundant — workers recompute it from the spec —
// and that redundancy is the point: a recompute mismatch means the two
// processes disagree about key derivation (version skew, dirty build)
// and the result would be merged under the wrong identity, silently
// breaking byte-reproducibility. Workers fail such jobs instead.
type Job struct {
	Key  string       `json:"key"`
	Spec core.JobSpec `json:"spec"`
}

// Batch is one shard-sized unit of work sent to a worker.
type Batch struct {
	// Schema is the wire-schema version (SchemaVersion).
	Schema int `json:"schema"`
	// Shard and Seq locate the batch in the sweep: shard index it was
	// cut from and sequence number within that shard. Diagnostic only —
	// results are keyed by cache key, never by position.
	Shard int `json:"shard"`
	Seq   int `json:"seq"`
	// Jobs is the work. Keys are unique within a batch.
	Jobs []Job `json:"jobs"`
}

// JobResult is one job's outcome. Exactly one of Run/Err is set.
type JobResult struct {
	// Key echoes the job's cache key.
	Key string `json:"key"`
	// Run is the simulation result on success.
	Run *metrics.Run `json:"run,omitempty"`
	// Err is the failure description on error.
	Err string `json:"err,omitempty"`
}

// BatchResult is a worker's reply to one Batch: a result per job, in
// any order, keyed by cache key.
type BatchResult struct {
	// Schema is the wire-schema version (SchemaVersion).
	Schema int `json:"schema"`
	// Worker names the replying worker (Options.Name) for manifests and
	// logs.
	Worker string `json:"worker,omitempty"`
	// Results holds one entry per job in the batch.
	Results []JobResult `json:"results"`
}

// EncodeBatch serializes b to wire form.
func EncodeBatch(b Batch) ([]byte, error) { return json.Marshal(b) }

// EncodeBatchResult serializes r to wire form.
func EncodeBatchResult(r BatchResult) ([]byte, error) { return json.Marshal(r) }

// DecodeBatch parses and validates one Batch from wire bytes: strict
// JSON (unknown fields rejected), schema version in range, at least one
// job, non-empty and duplicate-free keys. Job specs themselves are NOT
// validated here — the worker validates each spec as part of executing
// it, so one malformed job fails that job, not the whole batch.
func DecodeBatch(data []byte) (Batch, error) {
	var b Batch
	if err := decodeStrict(data, &b); err != nil {
		return Batch{}, fmt.Errorf("dist: batch: %w", err)
	}
	if err := checkSchema(b.Schema); err != nil {
		return Batch{}, fmt.Errorf("dist: batch: %w", err)
	}
	if len(b.Jobs) == 0 {
		return Batch{}, errors.New("dist: batch: no jobs")
	}
	seen := make(map[string]struct{}, len(b.Jobs))
	for i, j := range b.Jobs {
		if j.Key == "" {
			return Batch{}, fmt.Errorf("dist: batch: job %d: empty key", i)
		}
		if _, dup := seen[j.Key]; dup {
			return Batch{}, fmt.Errorf("dist: batch: duplicate key %q", j.Key)
		}
		seen[j.Key] = struct{}{}
	}
	return b, nil
}

// DecodeBatchResult parses and validates one BatchResult: strict JSON,
// schema version in range, non-empty duplicate-free keys, and exactly
// one of Run/Err per entry.
func DecodeBatchResult(data []byte) (BatchResult, error) {
	var r BatchResult
	if err := decodeStrict(data, &r); err != nil {
		return BatchResult{}, fmt.Errorf("dist: batch result: %w", err)
	}
	if err := checkSchema(r.Schema); err != nil {
		return BatchResult{}, fmt.Errorf("dist: batch result: %w", err)
	}
	seen := make(map[string]struct{}, len(r.Results))
	for i, jr := range r.Results {
		if jr.Key == "" {
			return BatchResult{}, fmt.Errorf("dist: batch result: entry %d: empty key", i)
		}
		if _, dup := seen[jr.Key]; dup {
			return BatchResult{}, fmt.Errorf("dist: batch result: duplicate key %q", jr.Key)
		}
		seen[jr.Key] = struct{}{}
		if (jr.Run == nil) == (jr.Err == "") {
			return BatchResult{}, fmt.Errorf("dist: batch result: entry %d: want exactly one of run/err", i)
		}
	}
	return r, nil
}

// decodeStrict decodes exactly one JSON value with unknown fields
// rejected and trailing garbage refused.
func decodeStrict(data []byte, v any) error {
	if len(data) > maxMessageBytes {
		return fmt.Errorf("message of %d bytes exceeds %d-byte cap", len(data), maxMessageBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := checkEOF(dec); err != nil {
		return err
	}
	return nil
}

func checkEOF(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after message")
	}
	return nil
}

func checkSchema(v int) error {
	if v != SchemaVersion {
		return fmt.Errorf("%w: got version %d, this build speaks %d", ErrSchema, v, SchemaVersion)
	}
	return nil
}

// readAllLimited reads a request/response body up to the message cap,
// failing loudly (rather than truncating) when the peer sends more.
func readAllLimited(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxMessageBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxMessageBytes {
		return nil, fmt.Errorf("dist: message exceeds %d-byte cap", maxMessageBytes)
	}
	return data, nil
}
