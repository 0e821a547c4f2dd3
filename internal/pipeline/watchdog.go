package pipeline

import (
	"fmt"

	"bce/internal/trace"
)

// DefaultWatchdogInterval is the forward-progress watchdog's default
// patience: the number of consecutive cycles without a retirement
// after which Run aborts. It is orders of magnitude beyond any legal
// stall in the modeled machines (the longest is a full ROB of
// serialized memory-latency loads, tens of thousands of cycles).
const DefaultWatchdogInterval = 200_000

// HeadState is the ROB head's situation at watchdog time — the uop
// the whole machine is waiting on.
type HeadState struct {
	// Seq and PC identify the uop; Kind is its operation class.
	Seq, PC uint64
	Kind    trace.Kind
	// State is the pipeline stage name (fetched, dispatched, issued,
	// done).
	State string
	// WrongPath marks a uop that should have been squashed — a
	// wrong-path uop at the ROB head is itself an invariant violation.
	WrongPath bool
	// DispatchAt is the earliest dispatch cycle; DoneAt the scheduled
	// completion cycle (0 until issued). A DoneAt far in the future
	// points at a latency-modeling fault.
	DispatchAt, DoneAt uint64
	// WaitingOn counts the source operands whose producer has not
	// completed.
	WaitingOn int
}

// WatchdogError is the forward-progress watchdog's structured
// diagnostic: the simulator retired nothing for Interval cycles, and
// this is what the machine looked like when it was declared wedged.
// Run panics with it; runners recover the panic into a *PanicError
// whose Unwrap exposes this error, so sweeps can classify watchdog
// aborts with errors.As.
type WatchdogError struct {
	// Cycle is the abort cycle; LastRetire the last cycle a uop
	// retired; Interval the configured patience.
	Cycle, LastRetire, Interval uint64
	// ROB and FetchQ are the occupancy of the reorder buffer and the
	// fetch queue. Ready counts the dispatched uops whose operands are
	// all done (the ready queues), Executing the issued uops not yet
	// complete. FreeSlots is the uop pool's free-list size.
	ROB, FetchQ, Ready, Executing, FreeSlots int
	// Head describes the ROB head uop (nil when the ROB is empty — a
	// front-end livelock rather than a scheduling one).
	Head *HeadState
	// LastSquashSeq is the seq of the most recent diverging branch,
	// the prime suspect after a squash-recovery bug.
	LastSquashSeq uint64
	// GateStalled reports whether pipeline gating was holding fetch;
	// StallUntil is the current fetch-stall deadline (trace-cache miss
	// or redirect bubble).
	GateStalled bool
	StallUntil  uint64
}

// Error implements error.
func (e *WatchdogError) Error() string {
	head := "rob empty (front-end livelock)"
	if e.Head != nil {
		head = fmt.Sprintf("head seq %d pc %#x %s state=%s waitingOn=%d dispatchAt=%d doneAt=%d wrongPath=%v",
			e.Head.Seq, e.Head.PC, e.Head.Kind, e.Head.State,
			e.Head.WaitingOn, e.Head.DispatchAt, e.Head.DoneAt, e.Head.WrongPath)
	}
	return fmt.Sprintf("pipeline: watchdog: no retirement for %d cycles at cycle %d (last retire %d): "+
		"rob=%d fetchq=%d ready=%d executing=%d free=%d lastSquashSeq=%d gateStalled=%v stallUntil=%d; %s",
		e.Interval, e.Cycle, e.LastRetire,
		e.ROB, e.FetchQ, e.Ready, e.Executing, e.FreeSlots,
		e.LastSquashSeq, e.GateStalled, e.StallUntil, head)
}

var stateNames = [...]string{sFetched: "fetched", sDispatched: "dispatched", sIssued: "issued", sDone: "done"}

// watchdogError assembles the structured no-forward-progress
// diagnostic from the simulator's current state.
func (s *Sim) watchdogError(interval uint64) *WatchdogError {
	e := &WatchdogError{
		Cycle:         s.cycle,
		LastRetire:    s.lastRetireAt,
		Interval:      interval,
		ROB:           s.rob.len(),
		FetchQ:        s.fetchQ.len(),
		FreeSlots:     len(s.free),
		LastSquashSeq: s.divergeSeq,
		GateStalled:   s.gate.WouldStall(s.cycle),
		StallUntil:    s.stallUntil,
	}
	for cl := range s.readyQ {
		e.Ready += s.readyQ[cl].n
	}
	for i := 0; i < s.rob.len(); i++ {
		if s.pool[s.rob.at(i)].state == sIssued {
			e.Executing++
		}
	}
	if s.rob.len() > 0 {
		h := &s.pool[s.rob.at(0)]
		e.Head = &HeadState{
			Seq:        h.seq,
			PC:         h.u.PC,
			Kind:       h.u.Kind,
			State:      stateNames[h.state],
			WrongPath:  h.wrongPath,
			DispatchAt: h.dispatchAt,
			DoneAt:     h.doneAt,
			WaitingOn:  int(h.pendingSrc),
		}
	}
	return e
}
