package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromeEvent is one record of the Chrome trace_event format. Only the
// fields chrome://tracing and Perfetto need are emitted.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	ID    string         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace assembles one trace_event document: the events, the names
// of the processes and threads they run on, and free-form otherData.
// The zero value is an empty trace.
type ChromeTrace struct {
	Events    []ChromeEvent
	OtherData map[string]any
	processes map[int]string
	threads   map[[2]int]string
}

// NameProcess names pid in the viewer's process list.
func (t *ChromeTrace) NameProcess(pid int, name string) {
	if t.processes == nil {
		t.processes = map[int]string{}
	}
	t.processes[pid] = name
}

// NameThread names thread tid of pid on the viewer's left rail.
func (t *ChromeTrace) NameThread(pid, tid int, name string) {
	if t.threads == nil {
		t.threads = map[[2]int]string{}
	}
	t.threads[[2]int{pid, tid}] = name
}

// Write encodes the document: the naming metadata first, in pid and tid
// order so the output is deterministic, then the events.
func (t *ChromeTrace) Write(w io.Writer) error {
	events := make([]ChromeEvent, 0, len(t.processes)+len(t.threads)+len(t.Events))
	pids := make([]int, 0, len(t.processes))
	for pid := range t.processes {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		events = append(events, ChromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": t.processes[pid]}})
	}
	threads := make([][2]int, 0, len(t.threads))
	for k := range t.threads {
		threads = append(threads, k)
	}
	sort.Slice(threads, func(i, j int) bool {
		if threads[i][0] != threads[j][0] {
			return threads[i][0] < threads[j][0]
		}
		return threads[i][1] < threads[j][1]
	})
	for _, k := range threads {
		events = append(events, ChromeEvent{Name: "thread_name", Ph: "M", Pid: k[0], Tid: k[1],
			Args: map[string]any{"name": t.threads[k]}})
	}
	doc := struct {
		TraceEvents     []ChromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData,omitempty"`
	}{append(events, t.Events...), "ms", t.OtherData}
	return json.NewEncoder(w).Encode(doc)
}

// AddEvents lays an event stream out as process pid, one thread per
// event Thread ("<kernel>" for none). Compartment calls and returns
// become nested duration (B/E) slices per thread; everything else
// becomes an instant event. Timestamps are microseconds at hz.
func (t *ChromeTrace) AddEvents(pid int, events []Event, hz uint64) {
	if hz == 0 {
		hz = 1_000_000 // degrade gracefully: 1 cycle == 1 us
	}
	toUs := func(cycles uint64) float64 { return float64(cycles) * 1e6 / float64(hz) }

	tids := map[string]int{}
	tid := func(thread string) int {
		if thread == "" {
			thread = "<kernel>"
		}
		id, ok := tids[thread]
		if !ok {
			id = len(tids) + 1
			tids[thread] = id
			t.NameThread(pid, id, thread)
		}
		return id
	}
	// Open B/E nesting per thread so a truncated ring (events dropped at
	// the front) still yields balanced slices: unmatched returns are
	// skipped, unmatched calls are closed at the last event's time.
	depth := map[int]int{}
	var last uint64
	for _, e := range events {
		if e.Cycle > last {
			last = e.Cycle
		}
		id := tid(e.Thread)
		ev := ChromeEvent{Cat: e.Kind.Layer(), Ts: toUs(e.Cycle), Pid: pid, Tid: id}
		switch e.Kind {
		case KindCall:
			ev.Name, ev.Ph = e.To+"."+e.Entry, "B"
			ev.Args = map[string]any{"from": e.From}
			depth[id]++
		case KindReturn, KindUnwind:
			if depth[id] == 0 {
				continue // call fell off the wrapped ring
			}
			depth[id]--
			ev.Name, ev.Ph = e.To+"."+e.Entry, "E"
			ev.Args = map[string]any{"unwound": e.Kind == KindUnwind}
		default:
			ev.Name, ev.Ph, ev.Scope = e.Kind.String(), "i", "t"
			if e.Detail != "" {
				ev.Name += " " + e.Detail
			}
			ev.Args = map[string]any{}
			if e.To != "" {
				ev.Args["compartment"] = e.To
			}
			if e.Arg != 0 {
				ev.Args["arg"] = e.Arg
			}
		}
		t.Events = append(t.Events, ev)
	}
	// Close slices left open by the ring's bounded capacity (in tid order,
	// so the output is deterministic).
	open := make([]int, 0, len(depth))
	for id := range depth {
		open = append(open, id)
	}
	sort.Ints(open)
	for _, id := range open {
		for d := depth[id]; d > 0; d-- {
			t.Events = append(t.Events, ChromeEvent{Name: "(truncated)", Cat: "kernel", Ph: "E",
				Ts: toUs(last), Pid: pid, Tid: id})
		}
	}
}

// WriteChromeTrace exports the event ring in the Chrome trace_event JSON
// format, loadable in chrome://tracing and Perfetto (see AddEvents for
// the layout).
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("telemetry: nil registry")
	}
	var t ChromeTrace
	t.NameProcess(1, "cheriot-sim")
	t.AddEvents(1, r.ring.Events(), r.hz)
	if d := r.ring.Dropped(); d > 0 {
		t.OtherData = map[string]any{"dropped_events": d}
	}
	return t.Write(w)
}
