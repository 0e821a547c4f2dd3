package dist

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"bce/internal/core"
	"bce/internal/metrics"
	"bce/internal/runner"
	"bce/internal/telemetry"
)

// WorkerOptions configures a batch-execution worker.
type WorkerOptions struct {
	// Name identifies the worker in replies, manifests and logs
	// (default "worker").
	Name string
	// Exec executes one job; nil means core.ExecJob, which runs the
	// simulation through the worker's local result cache (and any
	// attached store), so a job a resumed sweep sends again is served,
	// not re-run.
	Exec func(ctx context.Context, j core.JobSpec) (metrics.Run, error)
	// Pool bounds batch-internal parallelism; nil means a default pool
	// at GOMAXPROCS.
	Pool *runner.Pool
	// Logger receives structured request/shutdown logs; nil means
	// slog.Default().
	Logger *slog.Logger
}

// Worker executes job batches delivered over HTTP. It is stateless
// between batches apart from the result cache its Exec function
// maintains — killing a worker loses nothing but in-flight work.
type Worker struct {
	name  string
	exec  func(ctx context.Context, j core.JobSpec) (metrics.Run, error)
	pool  *runner.Pool
	log   *slog.Logger
	ready atomic.Bool

	// statsMu guards stats: the telemetry registry is unsynchronized
	// by design and handleExec runs concurrently.
	statsMu sync.Mutex
	stats   *telemetry.Registry
}

// NewWorker builds a Worker from opts.
func NewWorker(opts WorkerOptions) *Worker {
	w := &Worker{name: opts.Name, exec: opts.Exec, pool: opts.Pool, log: opts.Logger,
		stats: telemetry.NewRegistry()}
	// Register up front so /metrics carries the batch_ms gauges (count,
	// quantiles) from the first scrape, not the first batch.
	w.stats.Histogram("batch_ms")
	if w.name == "" {
		w.name = "worker"
	}
	if w.exec == nil {
		w.exec = core.ExecJob
	}
	if w.pool == nil {
		w.pool = runner.New(runner.Options{})
	}
	if w.log == nil {
		w.log = slog.Default()
	}
	w.ready.Store(true)
	return w
}

// SetReady flips the /readyz answer. cmd/bceworker marks the worker
// unready when shutdown begins, so a health checker (or load balancer)
// stops handing it new sweeps while in-flight batches drain.
func (w *Worker) SetReady(ready bool) { w.ready.Store(ready) }

// Handler returns the worker's HTTP surface: PathExec (batch
// execution), PathPing (liveness + schema handshake), and — so a
// scraper needs only the base URL the coordinator already has —
// /healthz, /readyz, and a Prometheus /metrics page. Mount it on any mux;
// cmd/bceworker serves it alongside the debug endpoints.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathExec, w.handleExec)
	mux.HandleFunc(PathPing, w.handlePing)
	mux.Handle("/healthz", telemetry.GetOnly(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ok")
	}))
	mux.Handle("/readyz", telemetry.GetOnly(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !w.ready.Load() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(rw, "not ready")
			return
		}
		fmt.Fprintln(rw, "ok")
	}))
	mux.Handle("/metrics", telemetry.GetOnly(w.serveMetrics))
	// The Go pprof surface on the API port, so a fleet can be profiled
	// from the base URLs the coordinator already has: `go tool pprof`
	// fetches /debug/pprof/profile from each worker and merges the
	// results itself. /debug/pprof/{heap,goroutine,...} come along via
	// the index handler.
	mux.Handle("/debug/pprof/", telemetry.GetOnly(pprof.Index))
	mux.Handle("/debug/pprof/profile", telemetry.GetOnly(pprof.Profile))
	return mux
}

// observeBatch records one completed batch's wall time in the
// worker-side latency histogram.
func (w *Worker) observeBatch(d time.Duration) {
	w.statsMu.Lock()
	w.stats.Histogram("batch_ms").Observe(uint64(d.Milliseconds()))
	w.statsMu.Unlock()
}

// Stats snapshots the worker-side registry (batch latency histogram).
func (w *Worker) Stats() telemetry.Snapshot {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.stats.Snapshot()
}

// serveMetrics renders the worker's counters in Prometheus text form
// on the API port, so a scraper uses the worker URL it already has
// instead of needing a second per-worker debug address.
func (w *Worker) serveMetrics(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WriteBuildInfo(rw)
	telemetry.WritePrometheus(rw, "bce_dist", Snapshot())
	telemetry.WritePrometheus(rw, "bce_worker", w.Stats())
	telemetry.WritePrometheus(rw, "bce_runner", runner.LiveSnapshot())
	hits, misses := core.ResultCacheStats()
	telemetry.WritePrometheus(rw, "bce_result_cache",
		map[string]uint64{"hits": hits, "misses": misses})
}

// replyError answers a request with a digest-stamped error body, so
// every body this handler writes can be checked against its digest.
func replyError(rw http.ResponseWriter, status int, msg string) {
	body := msg + "\n"
	rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rw.Header().Set(HeaderDigest, ContentDigest([]byte(body)))
	rw.WriteHeader(status)
	io.WriteString(rw, body) //nolint:errcheck // client hangup only
}

func (w *Worker) handlePing(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(rw, "ping is GET", http.StatusMethodNotAllowed)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(rw, `{"schema":%d,"worker":%q}`+"\n", SchemaVersion, w.name)
}

func (w *Worker) handleExec(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(rw, "exec is POST", http.StatusMethodNotAllowed)
		return
	}
	ctx := req.Context()
	body, err := readAllLimited(req.Body)
	if err != nil {
		replyError(rw, http.StatusBadRequest, err.Error())
		return
	}
	// Verify the coordinator's content digest before parsing anything:
	// a mismatch means the body was damaged in transit. Answering 409
	// makes the failed sweep report corruption, not a malformed batch.
	if want := req.Header.Get(HeaderDigest); want != "" && want != ContentDigest(body) {
		w.log.WarnContext(ctx, "batch corrupted in transit", "worker", w.name, "bytes", len(body))
		replyError(rw, http.StatusConflict, "dist: batch corrupted in transit (content digest mismatch)")
		return
	}
	batch, err := DecodeBatch(body)
	if err != nil {
		w.log.WarnContext(ctx, "rejected batch", "worker", w.name, "err", err)
		replyError(rw, http.StatusBadRequest, err.Error())
		return
	}
	live.batchStart(len(batch.Jobs))
	batchT0 := time.Now()
	w.log.DebugContext(ctx, "batch accepted",
		"worker", w.name, "shard", batch.Shard, "seq", batch.Seq, "jobs", len(batch.Jobs))

	// Execute every job; per-job failures become per-job results, so
	// Map's fn never errors and the batch always completes (unless the
	// coordinator hangs up, cancelling req.Context()).
	results, err := runner.Map(ctx, w.pool, batch.Jobs,
		func(ctx context.Context, _ int, job Job) (JobResult, error) {
			return w.runJob(ctx, job), nil
		})
	if err != nil {
		live.batchEnd(false)
		// Client gone; nothing useful to write.
		replyError(rw, http.StatusServiceUnavailable, err.Error())
		return
	}
	reply, err := EncodeBatchResult(BatchResult{
		Schema:  SchemaVersion,
		Worker:  w.name,
		Results: results,
	})
	if err != nil {
		live.batchEnd(false)
		replyError(rw, http.StatusInternalServerError, err.Error())
		return
	}
	live.batchEnd(true)
	w.observeBatch(time.Since(batchT0))
	rw.Header().Set("Content-Type", "application/json")
	rw.Header().Set(HeaderDigest, ContentDigest(reply))
	rw.Write(reply) //nolint:errcheck // client hangup only
}

// runJob executes one job and folds any failure into the JobResult.
func (w *Worker) runJob(ctx context.Context, job Job) JobResult {
	// Recompute the cache key from the spec. A mismatch means this
	// build derives different identities than the coordinator's —
	// merging the result would corrupt byte-reproducibility, so the job
	// fails instead.
	key, err := job.Spec.Key()
	if err != nil {
		live.jobDone(false)
		return JobResult{Key: job.Key, Err: fmt.Sprintf("invalid job spec: %v", err)}
	}
	if key != job.Key {
		live.jobDone(false)
		return JobResult{Key: job.Key, Err: fmt.Sprintf(
			"cache-key mismatch: coordinator sent %q, this worker derives %q (version skew?)", job.Key, key)}
	}
	run, err := w.exec(ctx, job.Spec)
	if err != nil {
		live.jobDone(false)
		w.log.DebugContext(ctx, "job failed", "worker", w.name, "key", job.Key, "err", err)
		return JobResult{Key: job.Key, Err: err.Error()}
	}
	live.jobDone(true)
	return JobResult{Key: job.Key, Run: &run}
}
