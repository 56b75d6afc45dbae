package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Frame is one stack in the profile, folded-stack style: Stack is the
// ';'-joined path from the root (thread or pseudo-domain first), Self
// is the cycles attributed to exactly this stack (not its children),
// Calls is how many times the frame was entered.
type Frame struct {
	Stack string `json:"stack"`
	Self  uint64 `json:"self_cycles"`
	Calls uint64 `json:"calls"`
}

// Profile is the serializable, deterministic result of a profiling run.
// The exactness invariant: the sum of all Frames' Self cycles equals
// TotalCycles, which equals the clock delta since the profiler was
// armed (BaseCycles).
type Profile struct {
	Hz          uint64  `json:"hz"`
	BaseCycles  uint64  `json:"base_cycles"`
	TotalCycles uint64  `json:"total_cycles"`
	Frames      []Frame `json:"frames"`
}

// Snapshot freezes the profiler into a Profile: the total is the clock
// minus the base, and every node (including zero-cost interior nodes, so
// the tree is reconstructible) is emitted in sorted order. Nil-safe
// (returns nil).
func (p *Profiler) Snapshot() *Profile {
	if p == nil {
		return nil
	}
	pr := &Profile{Hz: p.clock.Hz(), BaseCycles: p.base, TotalCycles: p.clock.Cycles() - p.base}
	var walk func(n *Node, prefix string)
	walk = func(n *Node, prefix string) {
		labels := make([]string, 0, len(n.children))
		for l := range n.children {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			c := n.children[l]
			stack := l
			if prefix != "" {
				stack = prefix + ";" + l
			}
			pr.Frames = append(pr.Frames, Frame{Stack: stack, Self: c.self, Calls: c.calls})
			walk(c, stack)
		}
	}
	walk(&p.root, "")
	sort.Slice(pr.Frames, func(i, j int) bool { return pr.Frames[i].Stack < pr.Frames[j].Stack })
	return pr
}

// SelfSum returns the total of all frames' self cycles; it equals
// TotalCycles when the profile is exact.
func (p *Profile) SelfSum() uint64 {
	var sum uint64
	for _, f := range p.Frames {
		sum += f.Self
	}
	return sum
}

// Merge sums profiles frame-by-frame (nil entries skipped): the fleet
// merges its per-device profiles with it. The output frame order is
// sorted, so merging the same device set in any order — lockstep or any
// worker partition — yields byte-identical profiles.
func Merge(profiles ...*Profile) *Profile {
	out := &Profile{}
	byStack := map[string]int{}
	for _, p := range profiles {
		if p == nil {
			continue
		}
		if out.Hz == 0 {
			out.Hz = p.Hz
		}
		out.BaseCycles += p.BaseCycles
		out.TotalCycles += p.TotalCycles
		for _, f := range p.Frames {
			i, ok := byStack[f.Stack]
			if !ok {
				i = len(out.Frames)
				byStack[f.Stack] = i
				out.Frames = append(out.Frames, Frame{Stack: f.Stack})
			}
			out.Frames[i].Self += f.Self
			out.Frames[i].Calls += f.Calls
		}
	}
	sort.Slice(out.Frames, func(i, j int) bool { return out.Frames[i].Stack < out.Frames[j].Stack })
	return out
}

// WriteJSON writes the profile as indented JSON.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadProfile parses a profile written by WriteJSON.
func ReadProfile(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("prof: parse profile: %w", err)
	}
	return &p, nil
}

// ReadProfileFile reads a profile JSON file.
func ReadProfileFile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadProfile(f)
}

// WriteFolded writes the classic folded-stack format ("a;b;c 1234", one
// line per frame, sorted), directly consumable by flamegraph.pl and
// inferno. Zero-cycle interior frames are skipped: folded format
// carries self-weights only.
func (p *Profile) WriteFolded(w io.Writer) error {
	for _, f := range p.Frames {
		if f.Self == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", f.Stack, f.Self); err != nil {
			return err
		}
	}
	return nil
}

// TopEntry is one row of the hotspot table: a frame with its inclusive
// cycles (self + all descendants).
type TopEntry struct {
	Stack     string
	Self      uint64
	Inclusive uint64
	Calls     uint64
}

// Top returns the n hottest frames by self cycles, each annotated with
// its inclusive total. Ties break by stack order, so the table is
// deterministic.
func (p *Profile) Top(n int) []TopEntry {
	entries := make([]TopEntry, 0, len(p.Frames))
	for _, f := range p.Frames {
		e := TopEntry{Stack: f.Stack, Self: f.Self, Inclusive: f.Self, Calls: f.Calls}
		prefix := f.Stack + ";"
		for _, g := range p.Frames {
			if strings.HasPrefix(g.Stack, prefix) {
				e.Inclusive += g.Self
			}
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Self != entries[j].Self {
			return entries[i].Self > entries[j].Self
		}
		return entries[i].Stack < entries[j].Stack
	})
	if n > 0 && len(entries) > n {
		entries = entries[:n]
	}
	return entries
}

// WriteTop renders the hotspot table.
func (p *Profile) WriteTop(w io.Writer, n int) error {
	total := p.TotalCycles
	if total == 0 {
		total = 1
	}
	if _, err := fmt.Fprintf(w, "%12s %6s %12s %10s  %s\n",
		"self-cycles", "self%", "incl-cycles", "calls", "stack"); err != nil {
		return err
	}
	for _, e := range p.Top(n) {
		if _, err := fmt.Fprintf(w, "%12d %5.1f%% %12d %10d  %s\n",
			e.Self, 100*float64(e.Self)/float64(total), e.Inclusive, e.Calls, e.Stack); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "total: %d cycles (%.3f sim-seconds at %d Hz)\n",
		p.TotalCycles, float64(p.TotalCycles)/float64(max64(p.Hz, 1)), p.Hz)
	return err
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// chromeNode is the reconstructed tree used by the Chrome-trace writer.
type chromeNode struct {
	self     uint64
	children map[string]*chromeNode
}

// WriteChromeTrace exports the profile as a Chrome trace_event file
// (B/E slice pairs, one synthetic timeline laying the frames out by
// inclusive weight, each frame's children before its own cycles). Load
// it in chrome://tracing or Perfetto.
func (p *Profile) WriteChromeTrace(w io.Writer) error {
	root := &chromeNode{children: map[string]*chromeNode{}}
	for _, f := range p.Frames {
		n := root
		for _, label := range strings.Split(f.Stack, ";") {
			c := n.children[label]
			if c == nil {
				c = &chromeNode{children: map[string]*chromeNode{}}
				n.children[label] = c
			}
			n = c
		}
		n.self += f.Self
	}
	hz := max64(p.Hz, 1)
	var trace telemetry.ChromeTrace
	slice := func(name, ph string, cycles uint64) {
		trace.Events = append(trace.Events, telemetry.ChromeEvent{Name: name, Cat: "prof", Ph: ph,
			Ts: float64(cycles) * 1e6 / float64(hz), Pid: 1, Tid: 1})
	}
	// walk lays n's children out from start and returns where they end.
	var walk func(n *chromeNode, start uint64) uint64
	walk = func(n *chromeNode, start uint64) uint64 {
		labels := make([]string, 0, len(n.children))
		for l := range n.children {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			c := n.children[l]
			slice(l, "B", start)
			start = walk(c, start) + c.self
			slice(l, "E", start)
		}
		return start
	}
	walk(root, 0)
	return trace.Write(w)
}

// Regression is one frame whose cycles grew past the diff threshold.
type Regression struct {
	Stack string  `json:"stack"`
	Old   uint64  `json:"old_cycles"`
	New   uint64  `json:"new_cycles"`
	Ratio float64 `json:"ratio"`
}

// Diff compares two profiles frame-by-frame: a frame regresses when its
// new self-cycles exceed old*(1+threshold) and at least minCycles (so
// noise in tiny frames cannot fail a gate). Frames absent from old
// regress whenever they reach minCycles (ratio +Inf). The result is
// sorted worst-first.
func Diff(old, new *Profile, threshold float64, minCycles uint64) []Regression {
	oldBy := map[string]uint64{}
	for _, f := range old.Frames {
		oldBy[f.Stack] = f.Self
	}
	var regs []Regression
	for _, f := range new.Frames {
		if f.Self < minCycles {
			continue
		}
		o, ok := oldBy[f.Stack]
		switch {
		case !ok || o == 0:
			regs = append(regs, Regression{Stack: f.Stack, Old: o, New: f.Self, Ratio: math.Inf(1)})
		case float64(f.Self) > float64(o)*(1+threshold):
			regs = append(regs, Regression{Stack: f.Stack, Old: o, New: f.Self,
				Ratio: float64(f.Self) / float64(o)})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Ratio != regs[j].Ratio {
			return regs[i].Ratio > regs[j].Ratio
		}
		return regs[i].Stack < regs[j].Stack
	})
	return regs
}
