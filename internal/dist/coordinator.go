package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bce/internal/core"
	"bce/internal/metrics"
	"bce/internal/runner"
)

// Options configures a Coordinator.
type Options struct {
	// Workers is the list of worker base URLs (e.g.
	// "http://127.0.0.1:8371"). Required, at least one.
	Workers []string
	// Client issues the HTTP requests; nil means a default client with
	// no global timeout (batches legitimately run for minutes — the
	// per-job deadline and the Run context bound them instead).
	Client *http.Client
	// BatchSize is the number of jobs per request (default 8). Smaller
	// batches rebalance better when workers are uneven; larger ones
	// amortize request overhead.
	BatchSize int
	// JobTimeout bounds each job's execution on the worker; zero means
	// none. Expiry is a transient failure (runner.Transient semantics):
	// the job is requeued and may run on another worker.
	JobTimeout time.Duration
	// Retries is how many times a failed batch request is retried
	// in place against the same worker before the worker is evicted
	// (default 2). RetryBackoff is the initial backoff, doubled per
	// retry (default 250ms); an evicted worker's probe cooldown starts
	// at 4×RetryBackoff.
	Retries      int
	RetryBackoff time.Duration
	// OnResult is called once per successful job with the worker's name
	// and the result. Workers execute concurrently, so OnResult must be
	// safe for concurrent use. The coordinator guarantees exactly one
	// call per job key, however often the job was re-executed by
	// requeueing or hedging. Required.
	OnResult func(worker string, job Job, run metrics.Run)
	// Logger receives structured progress and rebalancing records
	// (worker eviction, probing, hedging, batch reassignment, retries).
	// Nil means slog.Default().
	Logger *slog.Logger
}

// Coordinator shards a planned job space across worker processes and
// merges the results. Every worker loop drains one shared batch queue,
// so an idle worker always takes the next batch, whoever it was cut
// for. Once the queue first runs dry, every batch still in flight is
// re-issued once to a second worker (the backup tasks of MapReduce,
// Dean & Ghemawat, OSDI 2004); the first success merges. Failure
// policy: transport errors and worker-reported transient failures are
// retried — first in place with backoff, then by evicting the worker
// and requeueing its batch — while deterministic job failures
// (validation, key-recompute mismatch, simulation error) abort the
// sweep, because they would fail identically everywhere. An evicted
// worker is probed on a doubling cooldown and re-admitted when a probe
// passes; a worker whose probe budget runs dry is permanently lost. A
// sweep completes when every job has merged or errors when jobs remain
// and no worker can take them.
type Coordinator struct {
	opts        Options
	client      *http.Client
	log         *slog.Logger
	maxAttempts int
	breakers    []*breaker

	mu       sync.Mutex
	firstErr error

	pending  atomic.Int64
	alive    atomic.Int64
	doneCh   chan struct{}
	doneOnce sync.Once
	cancel   context.CancelFunc

	// queue is the shared task queue every worker loop drains; requeued
	// tasks go back onto it. tail closes the first time a loop finds it
	// empty: from then on every batch is in flight, and runTask hedges.
	queue    chan *task
	tail     chan struct{}
	tailOnce sync.Once

	// merged is the exactly-once merge guard: job keys whose result has
	// been handed to OnResult. Requeueing and hedging can both legally
	// execute a job twice; only the first result merges.
	mergedMu sync.Mutex
	merged   map[string]struct{}
}

// task is one batch plus its delivery-attempt count. Attempts increment
// on every requeue; a task exceeding the coordinator's attempt
// budget aborts the sweep rather than cycling forever.
type task struct {
	batch    Batch
	attempts int
}

// NewCoordinator validates opts and builds a Coordinator.
func NewCoordinator(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("dist: coordinator needs at least one worker URL")
	}
	for _, w := range opts.Workers {
		if w == "" {
			return nil, errors.New("dist: empty worker URL")
		}
	}
	if opts.OnResult == nil {
		return nil, errors.New("dist: coordinator needs an OnResult sink")
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 8
	}
	if opts.Retries <= 0 {
		opts.Retries = 2
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 250 * time.Millisecond
	}
	c := &Coordinator{
		opts:   opts,
		client: opts.Client,
		log:    opts.Logger,
		// In-place retries per visit, times one visit per worker per
		// probe cycle: finite under total loss, roomy under repeated
		// trip/re-admit flapping.
		maxAttempts: (opts.Retries + 2) * len(opts.Workers) * (maxProbeFailures + 1),
	}
	c.breakers = make([]*breaker, len(opts.Workers))
	for i := range c.breakers {
		// Probe at the coordinator's own retry cadence: a breaker that
		// cools down for seconds under a millisecond-backoff test
		// configuration would stall the suite, and one that probes in
		// milliseconds against production backoffs would hammer a sick
		// worker.
		c.breakers[i] = newBreaker(4 * opts.RetryBackoff)
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.log == nil {
		c.log = slog.Default()
	}
	return c, nil
}

// Breakers snapshots every worker's circuit breaker, keyed by worker
// URL. Safe during a running sweep; bcetables serves it as the
// bce_breakers debug var.
func (c *Coordinator) Breakers() map[string]BreakerSnapshot {
	out := make(map[string]BreakerSnapshot, len(c.breakers))
	for i, b := range c.breakers {
		out[c.opts.Workers[i]] = b.Snapshot()
	}
	return out
}

// pickHedge chooses the next admitted worker after the primary, in
// rotation order, for a batch's backup dispatch.
func (c *Coordinator) pickHedge(primary int) (string, bool) {
	nw := len(c.opts.Workers)
	for i := 1; i < nw; i++ {
		wi := (primary + i) % nw
		if c.breakers[wi].Closed() {
			return c.opts.Workers[wi], true
		}
	}
	return "", false
}

// forceTrip evicts a worker: a batch exhausted its in-place retries
// there, or the pre-sweep Ping could not reach it.
func (c *Coordinator) forceTrip(wi int) {
	if c.breakers[wi].Trip() {
		live.breakerTrips.Add(1)
	}
}

// Ping checks every worker for liveness and schema agreement. Callers
// run it before a sweep so misconfiguration fails in milliseconds, not
// after the plan executes. Schema disagreement on any worker aborts —
// that is a build mismatch no amount of retrying fixes. A worker that
// is merely unreachable (partition, restart, flaky path) has its
// breaker tripped instead, so the sweep starts without it and the
// half-open probe loop re-admits it when its network heals; only when
// every worker is unreachable does Ping fail.
func (c *Coordinator) Ping(ctx context.Context) error {
	var firstErr error
	reachable := 0
	for i, w := range c.opts.Workers {
		err := c.pingOne(ctx, w)
		switch {
		case err == nil:
			reachable++
		case errors.Is(err, ErrSchema):
			return err
		default:
			if firstErr == nil {
				firstErr = err
			}
			c.forceTrip(i)
			c.log.Warn("worker unreachable at startup; tripping breaker and probing",
				"worker", w, "err", err)
		}
	}
	if reachable == 0 {
		return firstErr
	}
	return nil
}

// pingOne checks one worker for liveness and schema agreement. It
// doubles as the breaker's half-open probe: cheap, side-effect free,
// and it exercises the same HTTP path a batch would.
func (c *Coordinator) pingOne(ctx context.Context, w string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w+PathPing, nil)
	if err != nil {
		return fmt.Errorf("dist: ping %s: %w", w, err)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("dist: ping %s: %w", w, err)
	}
	body, rerr := readAllLimited(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return fmt.Errorf("dist: ping %s: %w", w, rerr)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: ping %s: HTTP %d: %s", w, resp.StatusCode, bytes.TrimSpace(body))
	}
	var reply struct {
		Schema int    `json:"schema"`
		Worker string `json:"worker"`
	}
	if err := decodeStrict(body, &reply); err != nil {
		return fmt.Errorf("dist: ping %s: %w", w, err)
	}
	if reply.Schema != SchemaVersion {
		return fmt.Errorf("dist: ping %s (%s): %w: worker speaks %d, this build speaks %d",
			w, reply.Worker, ErrSchema, reply.Schema, SchemaVersion)
	}
	return nil
}

// probeWorker runs one bounded half-open probe against a worker.
func (c *Coordinator) probeWorker(ctx context.Context, url string) bool {
	pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	return c.pingOne(pctx, url) == nil
}

// Run executes the planned jobs across the workers. jobs and keys are
// parallel slices, sorted by key (core.CollectJobs guarantees this),
// which makes the batching deterministic: job i goes to shard
// i mod len(Workers), shards are cut into BatchSize batches in order,
// and the batches enter the shared queue interleaved across shards.
// Run returns once every job has been merged through OnResult, or with
// the first deterministic failure, or when undeliverable work remains.
func (c *Coordinator) Run(ctx context.Context, jobs []core.JobSpec, keys []string) error {
	if len(jobs) != len(keys) {
		return fmt.Errorf("dist: %d jobs with %d keys", len(jobs), len(keys))
	}
	if len(jobs) == 0 {
		return nil
	}
	nw := len(c.opts.Workers)

	// Deterministic sharding: round-robin over the key-sorted job list
	// balances every benchmark mix across shards regardless of where
	// the expensive configurations cluster in key order.
	shards := make([][]Job, nw)
	for i := range jobs {
		w := i % nw
		shards[w] = append(shards[w], Job{Key: keys[i], Spec: jobs[i]})
	}
	// Cut each shard into BatchSize batches and interleave them: seq 0
	// of every shard, then seq 1, and so on.
	var tasks []*task
	for seq := 0; ; seq++ {
		before := len(tasks)
		for si, shard := range shards {
			if len(shard) == 0 {
				continue
			}
			n := min(c.opts.BatchSize, len(shard))
			tasks = append(tasks, &task{batch: Batch{
				Schema:       SchemaVersion,
				Shard:        si,
				Seq:          seq,
				JobTimeoutMS: c.opts.JobTimeout.Milliseconds(),
				Jobs:         shard[:n],
			}})
			shards[si] = shard[n:]
		}
		if len(tasks) == before {
			break
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.cancel = cancel
	c.doneCh = make(chan struct{})
	c.doneOnce = sync.Once{}
	c.tail = make(chan struct{})
	c.tailOnce = sync.Once{}
	c.firstErr = nil
	c.pending.Store(int64(len(tasks)))
	c.alive.Store(int64(nw))
	c.mergedMu.Lock()
	c.merged = make(map[string]struct{}, len(jobs))
	c.mergedMu.Unlock()
	live.jobsDispatched.Add(uint64(len(jobs)))

	// Sized so every task can be requeued at its full attempt budget
	// without a push ever blocking.
	c.queue = make(chan *task, len(tasks)*(c.maxAttempts+1)+nw)
	for _, t := range tasks {
		c.queue <- t
	}

	var wg sync.WaitGroup
	for wi, url := range c.opts.Workers {
		wg.Add(1)
		go func(wi int, url string) {
			defer wg.Done()
			c.workerLoop(runCtx, wi, url)
		}(wi, url)
	}
	wg.Wait()

	c.mu.Lock()
	err := c.firstErr
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if n := c.pending.Load(); n != 0 {
		return fmt.Errorf("dist: %d batches undelivered: every worker failed", n)
	}
	return nil
}

// abort records the sweep's first fatal error and cancels everything.
func (c *Coordinator) abort(err error) {
	c.mu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
	c.cancel()
}

// finish retires one task; the last one releases every worker loop.
func (c *Coordinator) finish() {
	if c.pending.Add(-1) == 0 {
		c.doneOnce.Do(func() { close(c.doneCh) })
	}
}

// requeue puts a task back on the shared queue, aborting if its
// attempt budget is spent or the queue is impossibly full.
func (c *Coordinator) requeue(t *task) bool {
	t.attempts++
	if t.attempts > c.maxAttempts {
		c.abort(fmt.Errorf("dist: shard %d batch %d undeliverable after %d attempts",
			t.batch.Shard, t.batch.Seq, t.attempts))
		return false
	}
	select {
	case c.queue <- t:
		live.jobsRequeued.Add(uint64(len(t.batch.Jobs)))
		return true
	default:
		c.abort(fmt.Errorf("dist: task queue overflow (shard %d batch %d)", t.batch.Shard, t.batch.Seq))
		return false
	}
}

// next takes a task off the shared queue, blocking until one arrives
// or the sweep ends. The first time any loop finds the queue empty it
// closes the tail latch.
func (c *Coordinator) next(ctx context.Context) (*task, bool) {
	select {
	case t := <-c.queue:
		return t, true
	default:
	}
	c.tailOnce.Do(func() { close(c.tail) })
	select {
	case <-ctx.Done():
		return nil, false
	case <-c.doneCh:
		return nil, false
	case t := <-c.queue:
		return t, true
	}
}

// workerLoop drives one worker: it takes batches off the shared queue
// until the sweep completes. When a batch exhausts its in-place
// retries the worker is evicted — the batch goes back on the queue for
// the other loops — and the loop switches to half-open probing; a
// passing probe re-admits the worker, and an exhausted probe budget
// declares it permanently lost. A worker that the pre-sweep Ping could
// not reach starts out evicted. The last loop to die with work still
// pending aborts the sweep.
func (c *Coordinator) workerLoop(ctx context.Context, wi int, url string) {
	br := c.breakers[wi]
	var failed *task
	for {
		if ctx.Err() != nil {
			return
		}
		if failed != nil || !br.Closed() {
			c.forceTrip(wi)
			live.workersLost.Add(1)
			c.log.WarnContext(ctx,
				"worker lost; reassigning its batch", "url", url, "requeued", failed != nil)
			if failed != nil {
				c.requeue(failed)
				failed = nil
			}
			readmitted, lost := c.probeUntilHealthy(ctx, wi, url)
			if lost {
				c.log.ErrorContext(ctx,
					"worker permanently lost: probe budget exhausted", "url", url)
				if c.alive.Add(-1) == 0 && c.pending.Load() > 0 {
					c.abort(errors.New("dist: all workers failed"))
				}
				return
			}
			if !readmitted {
				return // sweep finished or cancelled while probing
			}
			c.log.InfoContext(ctx,
				"worker re-admitted after successful probe", "url", url)
			continue
		}
		t, ok := c.next(ctx)
		if !ok {
			return
		}
		if !c.handle(ctx, wi, url, t) {
			failed = t
		}
	}
}

// probeUntilHealthy runs the breaker's half-open probe schedule until
// the worker is re-admitted (readmitted), the probe budget is spent
// (lost), or the sweep ends (neither).
func (c *Coordinator) probeUntilHealthy(ctx context.Context, wi int, url string) (readmitted, lost bool) {
	br := c.breakers[wi]
	for {
		if br.Exhausted() {
			return false, true
		}
		if wait := br.ProbeWait(); wait > 0 {
			select {
			case <-ctx.Done():
				return false, false
			case <-c.doneCh:
				return false, false
			case <-time.After(wait):
			}
		}
		if !br.BeginProbe() {
			if br.Closed() {
				return true, false
			}
			continue
		}
		live.breakerProbes.Add(1)
		ok := c.probeWorker(ctx, url)
		if br.ProbeResult(ok) {
			live.breakerReadmits.Add(1)
			return true, false
		}
		if ctx.Err() != nil {
			return false, false
		}
	}
}

// handle runs one task to completion on this worker. It returns false
// when the worker must be evicted (the caller requeues t and starts
// probing); fatal errors abort the whole sweep and return true so the
// loop winds down via context cancellation.
func (c *Coordinator) handle(ctx context.Context, wi int, url string, t *task) bool {
	requeueJobs, err := c.runTask(ctx, wi, url, t)
	if err != nil {
		if ctx.Err() != nil {
			return true // sweep is being torn down, not a worker problem
		}
		if runner.IsTransient(err) {
			return false // worker unreachable after in-place retries
		}
		c.abort(err)
		return true
	}
	if len(requeueJobs) > 0 {
		// Worker-side transient failures (per-job deadline expiry): the
		// failed jobs go back on the queue together as one task, created
		// before this one retires so the pending count never
		// momentarily hits zero.
		nt := &task{
			batch: Batch{
				Schema:       SchemaVersion,
				Shard:        t.batch.Shard,
				Seq:          t.batch.Seq,
				JobTimeoutMS: t.batch.JobTimeoutMS,
				Jobs:         requeueJobs,
			},
			attempts: t.attempts,
		}
		c.pending.Add(1)
		if c.requeue(nt) {
			c.log.InfoContext(ctx, "transient job failures requeued",
				"jobs", len(requeueJobs), "url", url)
		}
	}
	c.finish()
	return true
}

// postOutcome is one dispatch attempt's terminal result inside
// runTask: the primary's (after its in-place retries) or the hedge's.
type postOutcome struct {
	reply BatchResult
	err   error
	hedge bool
}

// runTask delivers one batch: it dispatches to the primary worker
// (with in-place retries) and, once the sweep reaches its tail (the
// shared queue has run dry), re-issues the batch once to the next
// admitted worker. The first successful reply merges and the loser is
// cancelled. Deterministic failures — malformed batch (HTTP 400 from
// the worker), schema skew, a job error the worker marked permanent —
// come back as non-transient errors.
func (c *Coordinator) runTask(ctx context.Context, wi int, url string, t *task) ([]Job, error) {
	payload, err := EncodeBatch(t.batch)
	if err != nil {
		return nil, fmt.Errorf("dist: encode batch: %w", err)
	}

	resCh := make(chan postOutcome, 2)
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	go func() {
		reply, err := c.postRetry(pctx, url, payload)
		resCh <- postOutcome{reply: reply, err: err}
	}()

	// Take the first success; cancel the loser, then drain it (fast —
	// its context is gone) so no goroutine outlives the task. The tail
	// latch fires at most once per task: a nil channel never selects.
	tail := c.tail
	var win *postOutcome
	var firstErr error
	issued, received := 1, 0
	for received < issued {
		select {
		case <-tail:
			tail = nil
			hurl, ok := c.pickHedge(wi)
			if !ok {
				continue
			}
			live.hedgesIssued.Add(1)
			c.log.InfoContext(ctx, "hedging tail batch",
				"shard", t.batch.Shard, "seq", t.batch.Seq, "primary", url, "hedge", hurl)
			go func() {
				reply, err := c.post(hctx, hurl, payload)
				resCh <- postOutcome{reply: reply, err: err, hedge: true}
			}()
			issued++
		case out := <-resCh:
			received++
			switch {
			case out.err == nil && win == nil:
				win = &out
				if out.hedge {
					live.hedgeWins.Add(1)
					pcancel()
				} else {
					hcancel()
				}
			case out.err != nil && win == nil:
				// Keep the most decisive error: deterministic beats
				// transient (it must abort the sweep, not evict a worker).
				if firstErr == nil || (!runner.IsTransient(out.err) && runner.IsTransient(firstErr)) {
					firstErr = out.err
				}
			}
		}
	}
	if issued == 2 && (win == nil || !win.hedge) {
		live.hedgeLosses.Add(1)
	}
	if win == nil {
		return nil, firstErr
	}
	return c.merge(t, win.reply)
}

// postRetry POSTs one batch to one worker, retrying transient
// transport failures in place with capped exponential backoff.
func (c *Coordinator) postRetry(ctx context.Context, url string, payload []byte) (BatchResult, error) {
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			live.batchRetries.Add(1)
			select {
			case <-ctx.Done():
				return BatchResult{}, ctx.Err()
			case <-time.After(runner.Backoff{Initial: c.opts.RetryBackoff}.Delay(attempt - 1)):
			}
		}
		reply, err := c.post(ctx, url, payload)
		if err == nil {
			return reply, nil
		}
		lastErr = err
		if !runner.IsTransient(err) || ctx.Err() != nil {
			return BatchResult{}, err
		}
		c.log.WarnContext(ctx, "batch attempt failed",
			"url", url, "attempt", attempt+1, "attempts", c.opts.Retries+1, "err", err)
	}
	return BatchResult{}, lastErr
}

// post sends one batch request and decodes the reply, classifying
// failures: transport errors, 5xx, digest mismatches (HTTP 409 from
// the worker, or a corrupted reply detected here) are transient, while
// a 4xx whose reply carries an intact digest — proof the worker itself
// produced it — is deterministic. A 4xx without a digest could be the
// HTTP server machinery answering a request corrupted in transit, so
// it is retried too.
func (c *Coordinator) post(ctx context.Context, url string, payload []byte) (BatchResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+PathExec, bytes.NewReader(payload))
	if err != nil {
		return BatchResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderDigest, ContentDigest(payload))
	live.batchesSent.Add(1)
	resp, err := c.client.Do(req)
	if err != nil {
		return BatchResult{}, runner.Transient(err)
	}
	defer resp.Body.Close()
	body, err := readAllLimited(resp.Body)
	if err != nil {
		return BatchResult{}, runner.Transient(err)
	}
	digest := resp.Header.Get(HeaderDigest)
	if digest != "" && digest != ContentDigest(body) {
		return BatchResult{}, runner.Transient(fmt.Errorf("dist: %s: reply corrupted in transit (content digest mismatch)", url))
	}
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusConflict:
		// The worker detected our request was corrupted in transit.
		return BatchResult{}, runner.Transient(fmt.Errorf("dist: %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body)))
	case resp.StatusCode >= 500:
		return BatchResult{}, runner.Transient(fmt.Errorf("dist: %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body)))
	case digest != "":
		// 4xx with an intact digest: the worker understood us and said
		// no — deterministic.
		return BatchResult{}, fmt.Errorf("dist: %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	default:
		// 4xx without a digest: possibly the server machinery rejecting
		// a request mangled by the network, not our handler. Retry.
		return BatchResult{}, runner.Transient(fmt.Errorf("dist: %s: HTTP %d (no content digest): %s", url, resp.StatusCode, bytes.TrimSpace(body)))
	}
	reply, err := DecodeBatchResult(body)
	if err != nil {
		if errors.Is(err, ErrSchema) {
			return BatchResult{}, err
		}
		// A garbled reply body could be a proxy or truncation artifact;
		// let the in-place retry take another look.
		return BatchResult{}, runner.Transient(err)
	}
	return reply, nil
}

// merge folds a worker's reply into the sweep: successes through
// OnResult, transient job failures into the requeue list, permanent
// job failures into a fatal error. The whole reply is validated before
// anything merges — a replies-then-fails-midway path would otherwise
// merge part of a batch, requeue it, and merge the rest twice. The
// merged-key guard makes every job's merge exactly-once even across
// hedges and reassignment.
func (c *Coordinator) merge(t *task, reply BatchResult) ([]Job, error) {
	byKey := make(map[string]Job, len(t.batch.Jobs))
	for _, j := range t.batch.Jobs {
		byKey[j.Key] = j
	}
	if len(reply.Results) != len(t.batch.Jobs) {
		return nil, runner.Transient(fmt.Errorf("dist: worker %q answered %d of %d jobs",
			reply.Worker, len(reply.Results), len(t.batch.Jobs)))
	}
	for _, jr := range reply.Results {
		if _, ok := byKey[jr.Key]; !ok {
			return nil, runner.Transient(fmt.Errorf("dist: worker %q answered unknown key %q", reply.Worker, jr.Key))
		}
	}
	var requeue []Job
	for _, jr := range reply.Results {
		job := byKey[jr.Key]
		switch {
		case jr.Run != nil:
			c.mergeOnce(reply.Worker, job, *jr.Run)
		case jr.Transient:
			requeue = append(requeue, job)
		default:
			return nil, fmt.Errorf("dist: job %s failed on worker %q: %s", jr.Key, reply.Worker, jr.Err)
		}
	}
	return requeue, nil
}

// mergeOnce hands one job result to OnResult unless the key already
// merged (a hedge duplicate or a re-executed reassignment), keeping
// manifest recording at exactly one record per job.
func (c *Coordinator) mergeOnce(worker string, job Job, run metrics.Run) {
	c.mergedMu.Lock()
	if _, dup := c.merged[job.Key]; dup {
		c.mergedMu.Unlock()
		live.dupsSuppressed.Add(1)
		return
	}
	c.merged[job.Key] = struct{}{}
	c.mergedMu.Unlock()
	c.opts.OnResult(worker, job, run)
	live.jobsMerged.Add(1)
}
