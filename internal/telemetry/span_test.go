package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestSpanLifecycleProperty is the concurrency property the tracer
// must hold: under a fan-out (many goroutines, each opening nested
// spans, some racing duplicate End calls), every started span ends
// exactly once and exactly the started spans are drained.
// Run with -race.
func TestSpanLifecycleProperty(t *testing.T) {
	tr := NewTracer("coordinator")
	root := tr.StartTrace("sweep")

	const shards = 8
	const jobsPerShard = 25
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			shard := tr.StartSpan("shard", root.Context())
			shard.SetAttr("shard", fmt.Sprint(sh))
			var jw sync.WaitGroup
			for j := 0; j < jobsPerShard; j++ {
				jw.Add(1)
				go func(j int) {
					defer jw.Done()
					job := tr.StartSpan("job", shard.Context())
					job.SetAttr("job", fmt.Sprint(j))
					// Duplicate End from a racing goroutine must be a no-op.
					var ew sync.WaitGroup
					for k := 0; k < 2; k++ {
						ew.Add(1)
						go func() { defer ew.Done(); job.End() }()
					}
					ew.Wait()
				}(j)
			}
			jw.Wait()
			shard.End()
			shard.End() // sequential duplicate, also a no-op
		}(sh)
	}
	wg.Wait()
	root.End()

	wantSpans := uint64(1 + shards + shards*jobsPerShard)
	started, ended := tr.Counts()
	if started != wantSpans || ended != wantSpans {
		t.Fatalf("started=%d ended=%d, want both %d", started, ended, wantSpans)
	}
	spans := tr.Drain()
	if uint64(len(spans)) != wantSpans {
		t.Fatalf("drained %d spans, want %d", len(spans), wantSpans)
	}
	// Every span shares the root's trace id and has a resolvable parent.
	ids := make(map[string]bool, len(spans))
	for _, s := range spans {
		if s.TraceID != root.Context().TraceID {
			t.Fatalf("span %s has trace id %s, want %s", s.SpanID, s.TraceID, root.Context().TraceID)
		}
		if ids[s.SpanID] {
			t.Fatalf("duplicate span id %s", s.SpanID)
		}
		ids[s.SpanID] = true
	}
	for _, s := range spans {
		if s.Parent != "" && !ids[s.Parent] {
			t.Fatalf("span %s has unresolvable parent %s", s.SpanID, s.Parent)
		}
	}
	if again := tr.Drain(); len(again) != 0 {
		t.Fatalf("second Drain returned %d spans, want 0", len(again))
	}
}

func TestSpanNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.StartTrace("sweep")
	if s != nil {
		t.Fatal("nil tracer must return nil spans")
	}
	// All of these must be safe no-ops.
	s.SetAttr("k", "v")
	s.End()
	if s.Context().Valid() {
		t.Fatal("nil span context must be invalid")
	}
	if tr.StartSpan("child", SpanContext{TraceID: "t", SpanID: "s"}) != nil {
		t.Fatal("nil tracer StartSpan must return nil")
	}
	if got := tr.Drain(); got != nil {
		t.Fatal("nil tracer Drain must return nil")
	}
	if st, en := tr.Counts(); st != 0 || en != 0 {
		t.Fatal("nil tracer counts must be zero")
	}

	// A live tracer refuses to start a child of an invalid parent: an
	// untraced request stays untraced.
	live := NewTracer("w")
	if live.StartSpan("child", SpanContext{}) != nil {
		t.Fatal("StartSpan with invalid parent must return nil")
	}
}

// testTracer returns a tracer with deterministic time and ids so span
// output can be asserted exactly. base offsets both the clock and the
// id counter, standing in for the distinct id space and clock skew of
// a separate process.
func testTracer(proc string, base int64) *Tracer {
	tr := NewTracer(proc)
	tick := base
	tr.now = func() time.Time {
		tick += 100 // µs per observation
		return time.UnixMicro(1_000_000 + tick)
	}
	n := base
	tr.newID = func(size int) string {
		n++
		return fmt.Sprintf("%0*x", size*2, n)
	}
	return tr
}

func TestAssignLanes(t *testing.T) {
	// Intervals (already sorted by start, longer first):
	//   root   [0,100)            -> lane 1
	//   a      [10,40) parent root -> nests on lane 1
	//   b      [20,40) parent root -> overlaps a, spills to lane 2
	//   c      [50,60) parent root -> a and b expired, nests on lane 1...
	// c's parent root is top of lane 1 again after a expires, so lane 1.
	//   late   [200,210) no parent -> everything expired, lane 1
	spans := []SpanData{
		{SpanID: "root", Start: 0, Dur: 100},
		{SpanID: "a", Parent: "root", Start: 10, Dur: 30},
		{SpanID: "b", Parent: "root", Start: 20, Dur: 20},
		{SpanID: "c", Parent: "root", Start: 50, Dur: 10},
		{SpanID: "late", Start: 200, Dur: 10},
	}
	lanes := assignLanes(spans)
	want := map[string]int{"root": 1, "a": 1, "b": 2, "c": 1, "late": 1}
	for id, lane := range want {
		if lanes[id] != lane {
			t.Errorf("span %s on lane %d, want %d (all: %v)", id, lanes[id], lane, lanes)
		}
	}
}

func TestAssignLanesOrphanOverlap(t *testing.T) {
	// Two parentless overlapping spans must not share a lane.
	spans := []SpanData{
		{SpanID: "x", Start: 0, Dur: 50},
		{SpanID: "y", Start: 10, Dur: 50},
	}
	lanes := assignLanes(spans)
	if lanes["x"] == lanes["y"] {
		t.Fatalf("overlapping spans share lane %d", lanes["x"])
	}
}

// buildTwoProcessSpans builds spans from two tracers with distinct
// process labels, clocks and id spaces: a coordinator tracer owning
// sweep/shard/batch spans and a worker tracer whose spans are children
// of the coordinator's batch span. It returns both tracers' drained
// spans, worker first, which WriteSpanTrace renders as one timeline
// with a lane group per process.
func buildTwoProcessSpans() []SpanData {
	coord := testTracer("coordinator", 0)
	sweep := coord.StartTrace("sweep")
	sweep.SetAttr("jobs", "4")

	shard0 := coord.StartSpan("shard", sweep.Context())
	shard0.SetAttr("shard", "0")
	batch0 := coord.StartSpan("batch", shard0.Context())

	// The worker has its own tracer and parents its spans on the
	// coordinator's batch span.
	worker := testTracer("worker-1", 0x100)
	wbatch := worker.StartSpan("exec", batch0.Context())
	dec := worker.StartSpan("decode", wbatch.Context())
	dec.End()
	for j := 0; j < 2; j++ {
		job := worker.StartSpan("job", wbatch.Context())
		job.SetAttr("key", fmt.Sprintf("k%d", j))
		job.End()
	}
	enc := worker.StartSpan("encode", wbatch.Context())
	enc.End()
	wbatch.End()

	batch0.End()
	shard0.End()
	sweep.End()
	return append(worker.Drain(), coord.Drain()...)
}

func TestWriteSpanTraceGolden(t *testing.T) {
	spans := buildTwoProcessSpans()
	var buf bytes.Buffer
	if err := WriteSpanTrace(&buf, spans); err != nil {
		t.Fatalf("WriteSpanTrace: %v", err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "span_trace_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("span trace differs from golden file %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestWriteSpanTraceMergesProcesses checks the structural invariants
// of a timeline merged from two tracers' drained spans, independent of
// golden bytes: valid JSON, one pid per process, a single shared trace
// id, and parent ids that resolve (possibly across processes).
func TestWriteSpanTraceMergesProcesses(t *testing.T) {
	spans := buildTwoProcessSpans()
	var buf bytes.Buffer
	if err := WriteSpanTrace(&buf, spans); err != nil {
		t.Fatalf("WriteSpanTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	procs := map[string]int{}
	traceIDs := map[string]bool{}
	spanIDs := map[string]bool{}
	var parents []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			procs[e.Args["name"].(string)] = e.PID
		}
		if e.Ph == "X" {
			traceIDs[e.Args["trace_id"].(string)] = true
			spanIDs[e.Args["span_id"].(string)] = true
			if p, ok := e.Args["parent_id"].(string); ok {
				parents = append(parents, p)
			}
		}
	}
	if len(procs) != 2 || procs["coordinator"] == procs["worker-1"] {
		t.Fatalf("want 2 distinct pids for coordinator and worker-1, got %v", procs)
	}
	if len(traceIDs) != 1 {
		t.Fatalf("want exactly one trace id across processes, got %v", traceIDs)
	}
	for _, p := range parents {
		if !spanIDs[p] {
			t.Fatalf("parent id %s does not resolve to any span in the merged trace", p)
		}
	}
	if err := WriteSpanTrace(&bytes.Buffer{}, nil); err != nil {
		t.Fatalf("WriteSpanTrace with no spans: %v", err)
	}
}
