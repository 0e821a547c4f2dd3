// Package gating implements the pipeline-gating controller of Manne et
// al. as used in the paper (§2.1, Figure 1): a counter of in-flight
// low-confidence branches that stalls fetch when it reaches the PL
// threshold, extended with the estimator-latency modeling of §5.4.2
// (a low-confidence branch only arms the counter some cycles after
// fetch, reflecting the time to compute the perceptron output).
package gating

import (
	"fmt"

	"bce/internal/telemetry"
)

// Policy configures pipeline gating.
type Policy struct {
	// Threshold is PL: fetch stalls while the armed low-confidence
	// branch count is >= Threshold. Zero disables gating.
	Threshold int
	// Latency is the estimator pipeline latency in cycles: a fetched
	// low-confidence branch increments the counter Latency cycles
	// later (§5.4.2 compares 1 vs 9). Zero means immediate.
	Latency int
}

// Disabled is the no-gating policy.
func Disabled() Policy { return Policy{} }

// PL returns a zero-latency policy with the given threshold, the
// paper's PL1/PL2/PL3 notation.
func PL(threshold int) Policy { return Policy{Threshold: threshold} }

// Controller tracks in-flight low-confidence branches. The zero value
// is unusable; construct with NewController.
type Controller struct {
	policy  Policy
	armed   map[uint64]bool // branch seq -> counted
	pending []pendingArm    // fetched, not yet counted (latency)
	count   int
	stalls  uint64
	events  uint64
	wasOn   bool

	sink      telemetry.Sink       // gate-on/gate-off events; nil = off
	episodes  *telemetry.Histogram // stall-episode lengths; nil = off
	episodeAt uint64               // cycle the current episode started
}

type pendingArm struct {
	seq   uint64
	armAt uint64
}

// NewController returns a controller for the policy.
func NewController(p Policy) *Controller {
	if p.Threshold < 0 || p.Latency < 0 {
		panic(fmt.Sprintf("gating: negative policy %+v", p))
	}
	return &Controller{policy: p, armed: make(map[uint64]bool)}
}

// SetTelemetry installs the telemetry hooks: sink receives gate-on /
// gate-off transition events, episodes records each stall episode's
// length in cycles. Either may be nil.
func (c *Controller) SetTelemetry(sink telemetry.Sink, episodes *telemetry.Histogram) {
	c.sink = sink
	c.episodes = episodes
}

// Enabled reports whether the policy can ever stall fetch.
func (c *Controller) Enabled() bool { return c.policy.Threshold > 0 }

// Policy returns the configured policy.
func (c *Controller) Policy() Policy { return c.policy }

// OnFetch records a low-confidence conditional branch fetched at the
// given cycle, identified by its pipeline sequence number.
func (c *Controller) OnFetch(seq uint64, cycle uint64) {
	if !c.Enabled() {
		return
	}
	if c.policy.Latency == 0 {
		c.armed[seq] = true
		c.count++
		return
	}
	c.pending = append(c.pending, pendingArm{seq: seq, armAt: cycle + uint64(c.policy.Latency)})
}

// OnResolve records that the branch resolved (executed) or was
// squashed; its contribution is removed whether armed or pending.
// Safe to call for branches never registered.
func (c *Controller) OnResolve(seq uint64) {
	if !c.Enabled() {
		return
	}
	if c.armed[seq] {
		delete(c.armed, seq)
		c.count--
		return
	}
	for i := range c.pending {
		if c.pending[i].seq == seq {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// Stalled reports whether fetch must stall this cycle, first arming
// any pending branches whose latency has elapsed. Call once per cycle
// (it also accumulates stall statistics).
func (c *Controller) Stalled(cycle uint64) bool {
	if !c.Enabled() {
		return false
	}
	kept := c.pending[:0]
	for _, p := range c.pending {
		if p.armAt <= cycle {
			c.armed[p.seq] = true
			c.count++
		} else {
			kept = append(kept, p)
		}
	}
	c.pending = kept
	on := c.count >= c.policy.Threshold
	if on {
		c.stalls++
		if !c.wasOn {
			c.events++
			c.episodeAt = cycle
			if c.sink != nil {
				c.sink.Emit(telemetry.Event{Kind: telemetry.EvGateOn, Cycle: cycle, N: uint64(c.count)})
			}
		}
	} else if c.wasOn {
		if c.episodes != nil {
			c.episodes.Observe(cycle - c.episodeAt)
		}
		if c.sink != nil {
			c.sink.Emit(telemetry.Event{Kind: telemetry.EvGateOff, Cycle: cycle, N: cycle - c.episodeAt})
		}
	}
	c.wasOn = on
	return on
}

// WouldStall reports whether Stalled(cycle) would stall fetch, without
// arming pending branches, counting a stalled cycle or emitting a
// transition: a read-only query for diagnostics.
func (c *Controller) WouldStall(cycle uint64) bool {
	if !c.Enabled() {
		return false
	}
	n := c.count
	for _, p := range c.pending {
		if p.armAt <= cycle {
			n++
		}
	}
	return n >= c.policy.Threshold
}

// Steady reports whether every coming Stalled call returns the same
// answer, holding, and changes nothing but the stalled-cycle count,
// until the next OnFetch or OnResolve: no arm is pending and no
// gate-on or gate-off transition is due.
func (c *Controller) Steady() (steady, holding bool) {
	if !c.Enabled() {
		return true, false
	}
	return len(c.pending) == 0 && (c.count >= c.policy.Threshold) == c.wasOn, c.wasOn
}

// Skip accounts for n consecutive Stalled calls made in a steady state
// (see Steady) exactly as making them would: each counts a stalled
// cycle when the gate holds.
func (c *Controller) Skip(n uint64) {
	if steady, holding := c.Steady(); !steady {
		panic("gating: Skip while an arm is pending or a transition is due")
	} else if holding {
		c.stalls += n
	}
}

// Count returns the current armed low-confidence branch count.
func (c *Controller) Count() int { return c.count }

// Stats returns total stalled cycles and distinct stall episodes.
func (c *Controller) Stats() (stalledCycles, episodes uint64) { return c.stalls, c.events }

// Reset clears branch tracking and statistics (between warmup and
// measurement the pipeline keeps its controller, so Reset only zeroes
// the *statistics*, not in-flight state).
func (c *Controller) ResetStats() { c.stalls, c.events = 0, 0 }
