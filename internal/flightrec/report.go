package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Report is one structured post-mortem: a capability fault snapshot with
// the offending capability's field dump, its provenance chain walked
// backwards to the root, the matched heap allocation (live or freed),
// and the tail of the event ring at fault time.
type Report struct {
	Device      string `json:"device,omitempty"`
	Seq         uint64 `json:"seq"`
	Cycle       uint64 `json:"cycle"`
	Thread      string `json:"thread,omitempty"`
	Compartment string `json:"compartment"`
	Entry       string `json:"entry,omitempty"`
	// PC is the faulting address reported by the trap.
	PC     uint32 `json:"pc"`
	Code   string `json:"code"`
	Detail string `json:"detail,omitempty"`
	// Cap is the offending capability's field dump (nil when the trap
	// carried no capability).
	Cap *cap.Fields `json:"cap,omitempty"`
	// Chain is the provenance walk, newest node first.
	Chain []Node `json:"chain,omitempty"`
	// Allocation is the heap allocation the offending capability points
	// into, when one matches.
	Allocation *AllocRecord `json:"allocation,omitempty"`
	// Summary is the one-line forensic verdict.
	Summary string `json:"summary"`
	// Tail holds the most recent ring events at fault time.
	Tail []telemetry.Event `json:"tail,omitempty"`
	// Reboot marks reports whose compartment was force-rebooted after
	// the fault.
	Reboot bool `json:"reboot,omitempty"`
}

// report snapshots the recorder state into a Report for trap event ev,
// whose cause may carry the offending capability.
func (r *Recorder) report(ev telemetry.Event, cause *hw.Trap) {
	r.reportsTotal++
	rep := Report{
		Device:      r.device,
		Seq:         r.reportsTotal,
		Cycle:       ev.Cycle,
		Thread:      ev.Thread,
		Compartment: ev.To,
		Entry:       ev.Entry,
		PC:          uint32(ev.Arg),
		Code:        ev.Detail,
		Detail:      cause.Detail,
	}
	hasCap := cause.Cap != (cap.Capability{})
	if hasCap {
		f := cause.Cap.Fields()
		rep.Cap = &f
		rep.Chain, rep.Allocation = r.Provenance(cause.Cap)
	}
	rep.Summary = r.summarize(&rep, hasCap)
	events := r.Events()
	if len(events) > tailEvents {
		events = events[len(events)-tailEvents:]
	}
	rep.Tail = events
	if len(r.reports) < maxReports {
		r.reports = append(r.reports, rep)
	} else {
		copy(r.reports, r.reports[1:])
		r.reports[len(r.reports)-1] = rep
	}
}

// summarize builds the forensic verdict sentence.
func (r *Recorder) summarize(rep *Report, hasCap bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s in compartment %q", rep.Code, rep.Compartment)
	if rep.Entry != "" {
		fmt.Fprintf(&b, " (entry %q)", rep.Entry)
	}
	fmt.Fprintf(&b, " at pc=0x%08x", rep.PC)
	if !hasCap {
		return b.String()
	}
	a := rep.Allocation
	if a == nil {
		if len(rep.Chain) > 0 {
			n := rep.Chain[len(rep.Chain)-1]
			fmt.Fprintf(&b, "; capability derives from %q region [0x%08x,0x%08x)",
				n.Comp, n.Base, n.Top)
		}
		return b.String()
	}
	if a.Live() {
		fmt.Fprintf(&b, "; capability points into live allocation #%d (%d bytes at 0x%08x) owned by compartment %q",
			a.Seq, a.Size, a.Base, a.Owner)
		return b.String()
	}
	fmt.Fprintf(&b, "; dangling capability into allocation #%d (%d bytes at 0x%08x) allocated by compartment %q, freed by %q at cycle %d",
		a.Seq, a.Size, a.Base, a.Owner, a.FreedBy, a.FreeCycle)
	if a.SweepEpoch != 0 {
		fmt.Fprintf(&b, ", invalidated by revocation sweep epoch %d", a.SweepEpoch)
	} else {
		fmt.Fprintf(&b, ", awaiting revocation sweep (freed at epoch %d)", a.FreeEpoch)
	}
	return b.String()
}

// Reports returns the retained post-mortem reports, oldest first.
func (r *Recorder) Reports() []Report {
	if r == nil {
		return nil
	}
	return append([]Report(nil), r.reports...)
}

// ReportsTotal returns how many faults were reported, including ones
// whose reports were evicted by the bound.
func (r *Recorder) ReportsTotal() uint64 {
	if r == nil {
		return 0
	}
	return r.reportsTotal
}

// Dump is the serialized recorder state written for cheriot-inspect.
type Dump struct {
	Device   string            `json:"device,omitempty"`
	Hz       uint64            `json:"hz,omitempty"`
	Capacity int               `json:"capacity"`
	Dropped  uint64            `json:"dropped_events"`
	Events   []telemetry.Event `json:"events"`
	Nodes    []Node            `json:"nodes,omitempty"`
	Live     []AllocRecord     `json:"live_allocations,omitempty"`
	Freed    []AllocRecord     `json:"freed_allocations,omitempty"`
	Reports  []Report          `json:"reports,omitempty"`
}

// Snapshot captures the full recorder state. hz is the simulated clock
// rate recorded for time conversion in the CLI (0 if unknown).
func (r *Recorder) Snapshot(hz uint64) Dump {
	if r == nil {
		return Dump{}
	}
	nodes := r.Nodes()
	if len(nodes) == 1 { // only the reserved null node
		nodes = nil
	}
	return Dump{
		Device:   r.device,
		Hz:       hz,
		Capacity: r.ring.Cap(),
		Dropped:  r.ring.Dropped(),
		Events:   r.Events(),
		Nodes:    nodes,
		Live:     r.LiveAllocations(),
		Freed:    r.FreedAllocations(),
		Reports:  r.Reports(),
	}
}

// WriteJSON serializes the dump.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadDump parses a dump previously written with WriteJSON. Unknown
// fields are an error, so a dump in an older event format is refused
// rather than misread.
func ReadDump(rd io.Reader) (*Dump, error) {
	var d Dump
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("flightrec: parse dump: %w", err)
	}
	return &d, nil
}

// histogram counts the dumps' events per (compartment, kind), summed
// over every dump. Compartment "" groups under "(kernel)".
func histogram(dumps ...*Dump) map[string]map[string]int {
	out := make(map[string]map[string]int)
	for _, d := range dumps {
		for _, ev := range d.Events {
			comp := ev.To
			if comp == "" {
				comp = "(kernel)"
			}
			m := out[comp]
			if m == nil {
				m = make(map[string]int)
				out[comp] = m
			}
			m[ev.Kind.String()]++
		}
	}
	return out
}

// WriteHistogram renders the per-compartment event histogram of the
// dumps, aggregated over all of them: the fleet-wide view of where
// events concentrate.
func WriteHistogram(w io.Writer, dumps ...*Dump) {
	hist := histogram(dumps...)
	comps := make([]string, 0, len(hist))
	for c := range hist {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		total := 0
		ops := make([]string, 0, len(hist[c]))
		for op, n := range hist[c] {
			ops = append(ops, op)
			total += n
		}
		sort.Strings(ops)
		fmt.Fprintf(w, "%-14s %6d events\n", c, total)
		for _, op := range ops {
			fmt.Fprintf(w, "  %-14s %6d\n", op, hist[c][op])
		}
	}
}

// WriteReport pretty-prints one post-mortem report.
func WriteReport(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "=== crash report #%d", rep.Seq)
	if rep.Device != "" {
		fmt.Fprintf(w, " (device %s)", rep.Device)
	}
	fmt.Fprintf(w, " ===\n")
	fmt.Fprintf(w, "  %s\n", rep.Summary)
	fmt.Fprintf(w, "  cycle=%d thread=%s", rep.Cycle, rep.Thread)
	if rep.Reboot {
		fmt.Fprintf(w, " [escalated to micro-reboot]")
	}
	fmt.Fprintln(w)
	if rep.Cap != nil {
		fmt.Fprintf(w, "  offending capability: %s\n", rep.Cap)
	}
	if len(rep.Chain) > 0 {
		fmt.Fprintf(w, "  provenance (newest first):\n")
		for _, n := range rep.Chain {
			fmt.Fprintf(w, "    node %-4d %-8s %-12s [0x%08x,0x%08x) %s\n",
				n.ID, n.Kind, n.Comp, n.Base, n.Top, n.Note)
		}
	}
	if a := rep.Allocation; a != nil && !a.Live() {
		fmt.Fprintf(w, "  allocation #%d: %d bytes, owner=%s quota=%s, freed by %s at cycle %d",
			a.Seq, a.Size, a.Owner, a.Quota, a.FreedBy, a.FreeCycle)
		if a.SweepEpoch != 0 {
			fmt.Fprintf(w, ", swept at epoch %d", a.SweepEpoch)
		}
		fmt.Fprintln(w)
	}
	if len(rep.Tail) > 0 {
		fmt.Fprintf(w, "  last %d events:\n", len(rep.Tail))
		for _, ev := range rep.Tail {
			fmt.Fprintf(w, "  %s\n", ev)
		}
	}
}
