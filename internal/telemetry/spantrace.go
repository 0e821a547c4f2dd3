package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// spantrace.go renders completed spans — drained from one or more
// Tracers — as a single Chrome trace_event timeline, sharing the
// document writer with the simulator's ChromeTrace sink. Each producing
// process label (SpanData.Proc) becomes a trace pid; within a process,
// spans are packed onto thread lanes so that a child span sits on its
// parent's lane when their intervals nest (the flame view) and
// overlapping siblings spill onto separate lanes instead of rendering
// on top of each other.

// spanLane is one open-span stack for a thread lane: the ids and end
// times of spans currently occupying the lane, innermost last.
type spanLane struct {
	ids  []string
	ends []int64
}

func (l *spanLane) top() (string, bool) {
	if len(l.ids) == 0 {
		return "", false
	}
	return l.ids[len(l.ids)-1], true
}

func (l *spanLane) expire(now int64) {
	for len(l.ends) > 0 && l.ends[len(l.ends)-1] <= now {
		l.ids = l.ids[:len(l.ids)-1]
		l.ends = l.ends[:len(l.ends)-1]
	}
}

func (l *spanLane) push(id string, end int64) {
	l.ids = append(l.ids, id)
	l.ends = append(l.ends, end)
}

// assignLanes gives each span (already sorted by start, then longer
// first) a 1-based lane number within its process. Greedy: a span goes
// on its parent's lane if the parent is the innermost span still open
// there, else on the first idle lane, else on a fresh one.
func assignLanes(spans []SpanData) map[string]int {
	lanes := make([]*spanLane, 0, 4)
	assigned := make(map[string]int, len(spans))
	for _, s := range spans {
		end := s.Start + s.Dur
		for _, l := range lanes {
			l.expire(s.Start)
		}
		lane := -1
		if s.Parent != "" {
			if pl, ok := assigned[s.Parent]; ok {
				if top, occupied := lanes[pl-1].top(); occupied && top == s.Parent {
					lane = pl - 1
				}
			}
		}
		if lane < 0 {
			for i, l := range lanes {
				if _, occupied := l.top(); !occupied {
					lane = i
					break
				}
			}
		}
		if lane < 0 {
			lanes = append(lanes, &spanLane{})
			lane = len(lanes) - 1
		}
		lanes[lane].push(s.SpanID, end)
		assigned[s.SpanID] = lane + 1
	}
	return assigned
}

// WriteSpanTrace writes the spans as one Chrome trace_event JSON
// document. Timestamps are rebased to the earliest span start so the
// timeline opens at t=0 regardless of wall-clock epoch; span identity
// (trace_id, span_id, parent_id) and attrs travel in each event's args
// so nesting can be checked programmatically, not just visually.
func WriteSpanTrace(w io.Writer, spans []SpanData) error {
	if len(spans) == 0 {
		return writeTraceDoc(w, nil)
	}
	// Stable processing order: by process, then start time, then longer
	// spans first (a parent sorts before children sharing its start),
	// then span id as the final determinism tiebreak.
	ordered := make([]SpanData, len(spans))
	copy(ordered, spans)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Dur != b.Dur {
			return a.Dur > b.Dur
		}
		return a.SpanID < b.SpanID
	})

	base := ordered[0].Start
	procPID := make(map[string]int)
	for _, s := range ordered {
		if s.Start < base {
			base = s.Start
		}
		if _, ok := procPID[s.Proc]; !ok {
			procPID[s.Proc] = len(procPID) + 1 // sorted-proc order: ordered is proc-sorted
		}
	}

	var events []chromeEvent
	for proc, pid := range procPID {
		events = append(events, chromeEvent{ts: 0, pid: pid, tid: 0, fields: map[string]any{
			"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
			"args": map[string]any{"name": proc},
		}})
	}

	// Lane allocation is per process; slice the proc-sorted spans into
	// contiguous groups.
	for lo := 0; lo < len(ordered); {
		hi := lo
		for hi < len(ordered) && ordered[hi].Proc == ordered[lo].Proc {
			hi++
		}
		group := ordered[lo:hi]
		pid := procPID[group[0].Proc]
		lanes := assignLanes(group)
		maxLane := 0
		for _, s := range group {
			tid := lanes[s.SpanID]
			if tid > maxLane {
				maxLane = tid
			}
			args := map[string]any{
				"trace_id": s.TraceID,
				"span_id":  s.SpanID,
			}
			if s.Parent != "" {
				args["parent_id"] = s.Parent
			}
			for k, v := range s.Attrs {
				args[k] = v
			}
			events = append(events, chromeEvent{ts: uint64(s.Start - base), pid: pid, tid: tid, fields: map[string]any{
				"name": s.Name, "ph": "X",
				"ts": s.Start - base, "dur": s.Dur,
				"pid": pid, "tid": tid,
				"args": args,
			}})
		}
		for tid := 1; tid <= maxLane; tid++ {
			events = append(events, chromeEvent{ts: 0, pid: pid, tid: tid, fields: map[string]any{
				"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
				"args": map[string]any{"name": fmt.Sprintf("lane %d", tid)},
			}})
		}
		lo = hi
	}
	return writeTraceDoc(w, events)
}
