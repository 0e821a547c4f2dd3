package dist

import (
	"sync"
	"time"

	"bce/internal/runner"
)

// breaker.go is the coordinator's per-worker circuit breaker. Each
// worker URL gets one breaker. A worker is evicted (Trip) when a batch
// exhausts its in-place retries there or the pre-sweep ping cannot
// reach it; its loop requeues the batch it held and stops taking work.
// While open, the breaker schedules half-open probes — cheap schema
// pings, not real batches — with a doubling cooldown; a passing probe
// re-admits the worker, and a worker whose probe budget runs dry is
// declared permanently lost. The breaker is advisory state for exactly
// one worker loop plus read-only snapshots, so a single mutex is
// plenty.

// maxProbeFailures is how many consecutive failed probes declare a
// worker permanently lost.
const maxProbeFailures = 6

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: the worker is healthy and takes batches.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the worker is evicted; a probe is scheduled.
	BreakerOpen
	// BreakerHalfOpen: a probe is in flight deciding re-admission.
	BreakerHalfOpen
)

// String renders the state for logs and breaker snapshots.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerSnapshot is one breaker's state for the bce_breakers view.
type BreakerSnapshot struct {
	State         string `json:"state"`
	Trips         uint64 `json:"trips"`
	Probes        uint64 `json:"probes"`
	Readmissions  uint64 `json:"readmissions"`
	ProbeFailures int    `json:"probe_failures"`
}

// breaker is one worker's circuit breaker. All methods are safe for
// concurrent use.
type breaker struct {
	// cooldown is the wait before the first probe of an eviction,
	// doubled per failed probe by runner.Backoff.
	cooldown time.Duration

	mu         sync.Mutex
	state      BreakerState
	openedAt   time.Time
	probeFails int // consecutive failed probes this episode chain
	trips      uint64
	probes     uint64
	readmits   uint64
}

func newBreaker(cooldown time.Duration) *breaker {
	return &breaker{cooldown: cooldown}
}

// Trip evicts the worker and reports whether this call did the
// tripping (false when the breaker was already open).
func (b *breaker) Trip() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerClosed {
		return false
	}
	b.state = BreakerOpen
	b.openedAt = time.Now()
	b.trips++
	return true
}

// Closed reports whether the worker may take batches.
func (b *breaker) Closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == BreakerClosed
}

// Exhausted reports whether the probe budget is spent: the worker is
// permanently lost.
func (b *breaker) Exhausted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != BreakerClosed && b.probeFails >= maxProbeFailures
}

// probeDueLocked is when the next half-open probe may begin.
func (b *breaker) probeDueLocked() time.Time {
	return b.openedAt.Add(runner.Backoff{Initial: b.cooldown}.Delay(b.probeFails))
}

// ProbeWait returns how long to wait before the next half-open probe
// may begin (zero when it is already due).
func (b *breaker) ProbeWait() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen {
		return 0
	}
	if d := time.Until(b.probeDueLocked()); d > 0 {
		return d
	}
	return 0
}

// BeginProbe transitions open → half-open when the cooldown has
// elapsed, reserving the probe for the caller. Returns false when no
// probe is due (still cooling down, already half-open, or closed).
func (b *breaker) BeginProbe() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen || time.Now().Before(b.probeDueLocked()) {
		return false
	}
	b.state = BreakerHalfOpen
	b.probes++
	return true
}

// ProbeResult resolves a half-open probe: success re-admits the worker
// (breaker closes, probe count resets) and returns true; failure
// reopens with a doubled cooldown.
func (b *breaker) ProbeResult(ok bool) (readmitted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerHalfOpen {
		return false
	}
	if ok {
		b.state = BreakerClosed
		b.probeFails = 0
		b.readmits++
		return true
	}
	b.state = BreakerOpen
	b.openedAt = time.Now()
	b.probeFails++
	return false
}

// Snapshot copies the breaker's observable state.
func (b *breaker) Snapshot() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{
		State:         b.state.String(),
		Trips:         b.trips,
		Probes:        b.probes,
		Readmissions:  b.readmits,
		ProbeFailures: b.probeFails,
	}
}
