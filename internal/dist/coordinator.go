package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"

	"bce/internal/core"
	"bce/internal/metrics"
)

// Options configures a Coordinator.
type Options struct {
	// Workers is the list of worker base URLs (e.g.
	// "http://127.0.0.1:8371"). Required, at least one.
	Workers []string
	// Client issues the HTTP requests; nil means a default client with
	// no global timeout (batches legitimately run for minutes — the Run
	// context bounds them instead).
	Client *http.Client
	// BatchSize is the number of jobs per request (default 8). Smaller
	// batches rebalance better when workers are uneven; larger ones
	// amortize request overhead.
	BatchSize int
	// OnResult is called once per successful job with the worker's name
	// and the result. Workers execute concurrently, so OnResult must be
	// safe for concurrent use. Required.
	OnResult func(worker string, job Job, run metrics.Run)
	// Logger receives structured per-batch records. Nil means
	// slog.Default().
	Logger *slog.Logger
}

// Coordinator shards a planned job space across worker processes and
// merges the results. Every worker loop drains one shared batch queue,
// so an idle worker always takes the next batch, whoever it was cut
// for. Each batch is dispatched exactly once. Any failure — a transport
// error, a non-200 reply, a content-digest mismatch, a reply that does
// not cover its batch, a failed job — cancels the sweep with an error
// naming the worker: every simulation is a pure function of its
// configuration, so a retry would only repeat the failure or hide a
// fault. Every batch merged before the failure stays merged, and a
// resumed sweep (bcetables -resume) dispatches only the rest.
type Coordinator struct {
	opts   Options
	client *http.Client
	log    *slog.Logger
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
	c := &Coordinator{opts: opts, client: opts.Client, log: opts.Logger}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.log == nil {
		c.log = slog.Default()
	}
	return c, nil
}

// Ping checks every worker for liveness and schema agreement and fails
// on the first worker that is unreachable or speaks another schema.
// Callers run it before a sweep so misconfiguration fails in
// milliseconds, not after the plan executes.
func (c *Coordinator) Ping(ctx context.Context) error {
	for _, w := range c.opts.Workers {
		if err := c.pingOne(ctx, w); err != nil {
			return err
		}
	}
	return nil
}

// pingOne checks one worker for liveness and schema agreement.
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

// Run executes the planned jobs across the workers. jobs and keys are
// parallel slices, sorted by key (core.CollectJobs guarantees this),
// which makes the batching deterministic: job i goes to shard
// i mod len(Workers), shards are cut into BatchSize batches in order,
// and the batches enter the shared queue interleaved across shards.
// Run returns nil once every job has been merged through OnResult, the
// context's error if ctx is cancelled, or else the first batch failure.
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
	var batches []Batch
	for seq := 0; ; seq++ {
		before := len(batches)
		for si, shard := range shards {
			if len(shard) == 0 {
				continue
			}
			n := min(c.opts.BatchSize, len(shard))
			batches = append(batches, Batch{Schema: SchemaVersion, Shard: si, Seq: seq, Jobs: shard[:n]})
			shards[si] = shard[n:]
		}
		if len(batches) == before {
			break
		}
	}
	queue := make(chan Batch, len(batches)) // holds every batch, so filling it never blocks
	for _, b := range batches {
		queue <- b
	}
	close(queue)
	live.jobsDispatched.Add(uint64(len(jobs)))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		failOnce sync.Once
		firstErr error
	)
	for _, url := range c.opts.Workers {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for b := range queue {
				if runCtx.Err() != nil {
					return
				}
				if err := c.runBatch(runCtx, url, b); err != nil {
					failOnce.Do(func() {
						firstErr = fmt.Errorf("dist: worker %s: shard %d batch %d: %w", url, b.Shard, b.Seq, err)
						cancel()
					})
					return
				}
			}
		}(url)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// runBatch posts one batch to one worker and merges the reply.
func (c *Coordinator) runBatch(ctx context.Context, url string, b Batch) error {
	payload, err := EncodeBatch(b)
	if err != nil {
		return fmt.Errorf("encode batch: %w", err)
	}
	reply, err := c.post(ctx, url, payload)
	if err != nil {
		return err
	}
	if err := c.merge(b, reply); err != nil {
		return err
	}
	c.log.DebugContext(ctx, "batch merged",
		"worker", url, "shard", b.Shard, "seq", b.Seq, "jobs", len(b.Jobs))
	return nil
}

// post sends one batch request and returns the decoded reply. Anything
// but a 200 whose body matches its content digest is an error.
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
		return BatchResult{}, err
	}
	defer resp.Body.Close()
	body, err := readAllLimited(resp.Body)
	if err != nil {
		return BatchResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return BatchResult{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if resp.Header.Get(HeaderDigest) != ContentDigest(body) {
		return BatchResult{}, errors.New("reply corrupted in transit (content digest mismatch)")
	}
	return DecodeBatchResult(body)
}

// merge validates a worker's whole reply against its batch — one
// result per job, no unknown key, no failed job — and only then hands
// every result to OnResult, so a bad reply merges nothing.
func (c *Coordinator) merge(b Batch, reply BatchResult) error {
	byKey := make(map[string]Job, len(b.Jobs))
	for _, j := range b.Jobs {
		byKey[j.Key] = j
	}
	if len(reply.Results) != len(b.Jobs) {
		return fmt.Errorf("worker %q answered %d of %d jobs", reply.Worker, len(reply.Results), len(b.Jobs))
	}
	for _, jr := range reply.Results {
		if _, ok := byKey[jr.Key]; !ok {
			return fmt.Errorf("worker %q answered unknown key %q", reply.Worker, jr.Key)
		}
		if jr.Run == nil {
			return fmt.Errorf("job %s failed on worker %q: %s", jr.Key, reply.Worker, jr.Err)
		}
	}
	for _, jr := range reply.Results {
		c.opts.OnResult(reply.Worker, byKey[jr.Key], *jr.Run)
		live.jobsMerged.Add(1)
	}
	return nil
}
