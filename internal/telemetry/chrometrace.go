package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event thread ids: one lane per pipeline stage plus
// control lanes, so a uop's life shows as stacked slices across lanes
// and gating stalls as slices on their own lane.
const (
	tidFrontend = 1 // fetch → dispatch
	tidWindow   = 2 // dispatch → issue (scheduling window residency)
	tidExecute  = 3 // issue → complete
	tidCommit   = 4 // complete → retire
	tidGating   = 5 // fetch-gated intervals
	tidControl  = 6 // squashes, reversals, low-confidence marks
)

var tidNames = map[int]string{
	tidFrontend: "frontend",
	tidWindow:   "window",
	tidExecute:  "execute",
	tidCommit:   "commit",
	tidGating:   "gating",
	tidControl:  "control",
}

// chromeSpan tracks one in-flight uop's stage boundaries.
type chromeSpan struct {
	pc        uint64
	fetch     uint64
	dispatch  uint64
	issue     uint64
	complete  uint64
	wrongPath bool
	isBranch  bool
}

// chromeEvent is one buffered trace_event entry; Fields is marshaled
// verbatim (encoding/json sorts map keys, keeping output canonical).
// pid separates processes in a merged multi-process timeline; the
// single-process simulator trace leaves it 0.
type chromeEvent struct {
	ts     uint64
	pid    int
	tid    int
	fields map[string]any
}

// writeTraceDoc sorts events by (ts, pid, tid) stably and writes the
// trace_event JSON document: one event object per line, so goldens
// diff cleanly. Shared by the simulator ChromeTrace sink and the
// span exporter (spantrace.go).
func writeTraceDoc(w io.Writer, events []chromeEvent) error {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].ts != events[j].ts {
			return events[i].ts < events[j].ts
		}
		if events[i].pid != events[j].pid {
			return events[i].pid < events[j].pid
		}
		return events[i].tid < events[j].tid
	})
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, e := range events {
		b, err := json.Marshal(e.fields)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// ChromeTrace is a Sink that renders the event stream as Chrome
// trace_event JSON loadable in chrome://tracing or Perfetto. One
// simulated cycle maps to one microsecond of trace time. Events are
// buffered in memory and written, sorted by timestamp, on Close — so
// trace a bounded run, not an open-ended sweep.
type ChromeTrace struct {
	w      io.Writer
	events []chromeEvent
	open   map[uint64]*chromeSpan

	gateStart uint64
	gateOn    bool
	closed    bool
}

// NewChromeTrace returns a trace writer targeting w. Call Close to
// flush the JSON.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	c := &ChromeTrace{w: w, open: make(map[uint64]*chromeSpan)}
	// Thread-name metadata events label the lanes in the viewer.
	for tid := tidFrontend; tid <= tidControl; tid++ {
		c.events = append(c.events, chromeEvent{ts: 0, tid: tid, fields: map[string]any{
			"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
			"args": map[string]any{"name": tidNames[tid]},
		}})
	}
	return c
}

func (c *ChromeTrace) slice(name string, tid int, start, end uint64, args map[string]any) {
	f := map[string]any{
		"name": name, "ph": "X", "ts": start, "dur": end - start,
		"pid": 0, "tid": tid,
	}
	if args != nil {
		f["args"] = args
	}
	c.events = append(c.events, chromeEvent{ts: start, tid: tid, fields: f})
}

func (c *ChromeTrace) instant(name string, tid int, ts uint64, args map[string]any) {
	f := map[string]any{
		"name": name, "ph": "i", "ts": ts, "s": "t",
		"pid": 0, "tid": tid,
	}
	if args != nil {
		f["args"] = args
	}
	c.events = append(c.events, chromeEvent{ts: ts, tid: tid, fields: f})
}

func (c *ChromeTrace) counter(name string, ts uint64, value uint64) {
	c.events = append(c.events, chromeEvent{ts: ts, tid: 0, fields: map[string]any{
		"name": name, "ph": "C", "ts": ts, "pid": 0, "tid": 0,
		"args": map[string]any{"value": value},
	}})
}

func (c *ChromeTrace) spanArgs(seq uint64, sp *chromeSpan) map[string]any {
	args := map[string]any{"seq": seq, "pc": fmt.Sprintf("0x%x", sp.pc)}
	if sp.wrongPath {
		args["wrong_path"] = true
	}
	if sp.isBranch {
		args["branch"] = true
	}
	return args
}

// Emit implements Sink.
func (c *ChromeTrace) Emit(e Event) {
	switch e.Kind {
	case EvFetch:
		c.open[e.Seq] = &chromeSpan{pc: e.PC, fetch: e.Cycle, wrongPath: e.WrongPath}
	case EvPredict:
		if sp := c.open[e.Seq]; sp != nil {
			sp.isBranch = true
		}
	case EvDispatch:
		if sp := c.open[e.Seq]; sp != nil {
			sp.dispatch = e.Cycle
			c.slice("fetch", tidFrontend, sp.fetch, e.Cycle, c.spanArgs(e.Seq, sp))
		}
	case EvIssue:
		if sp := c.open[e.Seq]; sp != nil {
			sp.issue = e.Cycle
			c.slice("wait", tidWindow, sp.dispatch, e.Cycle, c.spanArgs(e.Seq, sp))
		}
	case EvComplete:
		if sp := c.open[e.Seq]; sp != nil {
			sp.complete = e.Cycle
			c.slice("execute", tidExecute, sp.issue, e.Cycle, c.spanArgs(e.Seq, sp))
		}
	case EvRetire:
		if sp := c.open[e.Seq]; sp != nil {
			c.slice("commit", tidCommit, sp.complete, e.Cycle, c.spanArgs(e.Seq, sp))
			delete(c.open, e.Seq)
		}
	case EvSquashUop:
		delete(c.open, e.Seq)
	case EvSquash:
		c.instant("squash", tidControl, e.Cycle, map[string]any{"uops": e.N, "diverge_seq": e.Seq})
	case EvReversal:
		args := map[string]any{"pc": fmt.Sprintf("0x%x", e.PC)}
		if e.Mispred {
			args["corrected"] = true
		}
		c.instant("reversal", tidControl, e.Cycle, args)
	case EvEstimate:
		// High-confidence estimates are the common case and would bury
		// the timeline; mark only the low-confidence ones.
		if e.Band != 0 {
			c.instant("low-confidence", tidControl, e.Cycle, map[string]any{
				"pc": fmt.Sprintf("0x%x", e.PC), "band": int(e.Band), "output": e.Output,
			})
		}
	case EvGateOn:
		c.gateStart, c.gateOn = e.Cycle, true
		c.counter("gated-branches", e.Cycle, e.N)
	case EvGateOff:
		if c.gateOn {
			c.slice("gated", tidGating, c.gateStart, e.Cycle, map[string]any{"cycles": e.Cycle - c.gateStart})
			c.gateOn = false
		}
		c.counter("gated-branches", e.Cycle, 0)
	}
}

// Close sorts the buffered events by timestamp (then lane) and writes
// the trace_event JSON document. The sort guarantees monotonic
// timestamps per thread id, which keeps every viewer happy and the
// golden tests honest.
func (c *ChromeTrace) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	// An unterminated gating interval at end of trace still deserves a
	// slice.
	if c.gateOn {
		last := c.gateStart
		for _, e := range c.events {
			if e.ts > last {
				last = e.ts
			}
		}
		c.slice("gated", tidGating, c.gateStart, last, nil)
	}
	return writeTraceDoc(c.w, c.events)
}

var _ Sink = (*ChromeTrace)(nil)
