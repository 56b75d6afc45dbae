package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// bench is one invocation: which workloads, how many reps, and what the
// children reported.
type bench struct {
	workloads []workload
	seed      uint64
	reps      int
	budget    time.Duration
	trace     bool

	untraced     map[string][]*rep
	traced       map[string]*rep
	probeResults []probeResult
	probeSpans   []span

	ref     *refWork
	lastRef float64 // the reference time taken after the latest child
}

// runAll runs the untraced reps round-robin over the workloads, at least
// b.reps rounds and, with a budget, more rounds while the next one is
// expected to finish inside it; then, when tracing, the probe table and
// one traced rep per workload.
func (b *bench) runAll() error {
	b.untraced = map[string][]*rep{}
	b.traced = map[string]*rep{}
	b.ref = newRefWork()
	b.lastRef = b.ref.time()
	start := time.Now()
	var rounds []float64
	for round := 1; ; round++ {
		if round > b.reps {
			next := quartiles(rounds).Median
			if b.budget <= 0 || time.Since(start).Seconds()+next > b.budget.Seconds() {
				break
			}
		}
		t0 := time.Now()
		for _, w := range b.workloads {
			b.untraced[w.Name] = append(b.untraced[w.Name], b.child(w, fmt.Sprintf("rep %d", round), false))
		}
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	if !b.trace {
		return nil
	}
	var pr probeRun
	if err := spawn(&pr, "-child", "probes"); err != nil {
		return err
	}
	b.probeResults, b.probeSpans = pr.Probes, pr.Spans
	for _, w := range b.workloads {
		b.traced[w.Name] = b.child(w, "traced rep", true)
	}
	return nil
}

// child runs one rep in a fresh process, then times the reference work
// (hostref.go). A child that fails is a failed rep: one attempted
// operation, failed, with the reason as a violation.
func (b *bench) child(w workload, label string, traced bool) *rep {
	args := []string{"-child", w.Name, "-seed", strconv.FormatUint(b.seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	r := &rep{}
	if err := spawn(r, args...); err != nil {
		r = &rep{Workload: w.Name, Attempted: 1, Failed: 1, Violations: []string{err.Error()}, crashed: true}
	}
	after := b.ref.time()
	r.label, r.ref, b.lastRef = label, (b.lastRef+after)/2, after
	fmt.Fprintf(os.Stderr, "%-15s %-10s wall %7.3fs  setup %6.3fs  cpu %7.3fs  rss %6.1f MiB  ref %.4fs\n",
		w.Name, label, r.WallS, r.SetupS, r.CPUS, r.PeakRSSMiB, r.ref)
	return r
}

// spans gathers every child's spans, labelled with their rep.
func (b *bench) spans() []span {
	var out []span
	add := func(label string, ss []span) {
		for _, s := range ss {
			s.Rep = label
			out = append(out, s)
		}
	}
	add("probes", b.probeSpans)
	for _, w := range b.workloads {
		for _, r := range b.untraced[w.Name] {
			add(w.Name+" "+r.label, r.Spans)
		}
		if r := b.traced[w.Name]; r != nil {
			add(w.Name+" "+r.label, r.Spans)
		}
	}
	return out
}

func writeSpans(dir string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create trace directory: %w", err)
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// wresult is one workload's evaluated outcome.
type wresult struct {
	w      workload
	reps   []*rep // untraced reps that completed
	traced *rep
	e2e    map[string]quantiles
	layer  map[string]float64
	model  []modelRow
	digest string
	// committed reports that the digest was checked against the
	// committed one (the run used the committed seed).
	committed bool
	gate      gate
}

// gate tallies operations and the correctness violations among them.
type gate struct {
	violations        []string
	attempted, failed int
}

func (g *gate) violate(msg string) { g.violations = append(g.violations, msg) }

// evaluate aggregates each workload's reps and applies the correctness
// gate: every rep's own invariants, one digest across all reps, the
// committed digest at the committed seed, and the probes' simulated
// cycles.
func (b *bench) evaluate(exp *expectations) ([]*wresult, gate) {
	var out []*wresult
	for _, w := range b.workloads {
		wr := &wresult{w: w, traced: b.traced[w.Name], e2e: map[string]quantiles{}, layer: map[string]float64{}}
		all := append([]*rep(nil), b.untraced[w.Name]...)
		if wr.traced != nil {
			all = append(all, wr.traced)
		}
		digests := map[string]int{}
		for _, r := range all {
			r.scale = 1
			if r.ref > 0 {
				r.scale = exp.RefLoopS / r.ref
			}
			for _, v := range r.Violations {
				wr.gate.violate(r.label + ": " + v)
			}
			if !r.crashed {
				digests[r.Digest]++
				if !r.Traced {
					wr.reps = append(wr.reps, r)
				}
			}
		}
		committedOK := true
		if len(wr.reps) > 0 {
			wr.digest = wr.reps[0].Digest
		}
		if len(digests) > 1 {
			wr.gate.violate(fmt.Sprintf("digest differs across reps: %v", digests))
		}
		if b.seed == exp.Seed && wr.digest != "" {
			wr.committed = true
			if want := exp.Digests[w.Name]; wr.digest != want {
				committedOK = false
				wr.gate.violate(fmt.Sprintf("digest = %s, want %s (committed for seed %d)", wr.digest, want, exp.Seed))
			}
		}
		for _, r := range all {
			wr.gate.attempted += r.Attempted
			if len(r.Violations) > 0 || len(digests) > 1 || !committedOK {
				wr.gate.failed += r.Attempted
			} else {
				wr.gate.failed += r.Failed
			}
		}
		wr.aggregate(b.probeResults)
		out = append(out, wr)
	}
	return out, probeGate(b.probeResults, exp)
}

// probeGate pins every simulated probe's cycles per operation to the
// committed value.
func probeGate(prs []probeResult, exp *expectations) gate {
	var g gate
	for _, pr := range prs {
		p := probeByName(pr.Name)
		if !p.Simulated {
			continue
		}
		g.attempted++
		if want, ok := exp.SimCycles[pr.Name]; !ok || pr.SimCycles != want {
			g.failed++
			g.violate(fmt.Sprintf("%s_simcycles = %g, want %g", pr.Name, pr.SimCycles, want))
		}
	}
	return g
}

func probeByName(name string) probe {
	for _, p := range probes {
		if p.Name == name {
			return p
		}
	}
	return probe{}
}

// e2eValue is one rep's value of an end-to-end metric, its times at the
// committed reference speed.
func e2eValue(name string, r *rep) float64 {
	switch name {
	case "wall_s":
		return r.WallS * r.scale
	case "setup_s":
		return r.SetupS * r.scale
	case "cpu_s":
		return r.CPUS * r.scale
	case "device_simsec_per_s":
		return ratio(r.DeviceSimSec, r.WallS*r.scale)
	case "alloc_mib":
		return r.AllocMiB
	case "peak_rss_mib":
		return r.PeakRSSMiB
	}
	panic("unknown end-to-end metric " + name)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// aggregate computes the end-to-end quartiles and the per-layer values.
// Workload-specific rates are medians over the untraced reps, in measured
// host time, and stay 0 where a workload has no such work.
func (wr *wresult) aggregate(prs []probeResult) {
	for _, m := range endToEnd {
		var xs []float64
		for _, r := range wr.reps {
			xs = append(xs, e2eValue(m.Name, r))
		}
		wr.e2e[m.Name] = quartiles(xs)
	}
	rate := func(name string, f func(r *rep) float64) {
		var xs []float64
		for _, r := range wr.reps {
			if v := f(r); v > 0 {
				xs = append(xs, v)
			}
		}
		wr.layer[name] = quartiles(xs).Median
	}
	rate("devices_per_s", func(r *rep) float64 { return ratio(float64(r.Devices), r.SetupS) })
	rate("publishes_per_s", func(r *rep) float64 { return ratio(float64(r.Publishes), r.RunS) })
	rate("deliveries_per_s", func(r *rep) float64 { return ratio(float64(r.Deliveries), r.RunS) })
	rate("cells_per_s", func(r *rep) float64 { return ratio(float64(len(r.CellWalls)), r.WallS) })
	rate("cell_p50_s", func(r *rep) float64 { return nearestRank(r.CellWalls, 0.50) })
	rate("cell_p90_s", func(r *rep) float64 { return nearestRank(r.CellWalls, 0.90) })
	rate("host.raw_wall_s", func(r *rep) float64 { return r.WallS })
	rate("host.raw_cpu_s", func(r *rep) float64 { return r.CPUS })
	rate("host.ref_loop_s", func(r *rep) float64 { return r.ref })
	wr.layer["fail_ratio"] = ratio(float64(wr.gate.failed), float64(wr.gate.attempted))
	if len(wr.reps) == 0 {
		return
	}
	counts := wr.reps[0].Counts
	for _, c := range workCounts {
		wr.layer[c.Name] = counts[c.Name]
	}
	wr.layer["snapshot.fork_base"] = counts["snapshot.fork_base"]
	wr.layer["snapshot.fork_ratio"] = ratio(counts["snapshot.forks"], counts["snapshot.fork_base"])
	wr.layer["cloud.fanout_base"] = counts["cloud.fanout_base"]
	wr.layer["cloud.fanout_delivered_ratio"] = ratio(counts["cloud.fanout_delivered"], counts["cloud.fanout_base"])
	if wr.traced != nil && !wr.traced.crashed {
		for k, v := range wr.traced.Layer {
			wr.layer[k] = v
		}
		wr.layer["trace.overhead"] = ratio(e2eValue("wall_s", wr.traced), wr.e2e["wall_s"].Median)
	}
	for k, v := range probeMetrics(prs) {
		wr.layer[k] = v
	}
	if len(prs) > 0 {
		// Probe times are measured host time, so they are set against the
		// measured CPU time.
		wr.model, wr.layer["model.explained_share"] = layerModel(counts, prs, wr.layer["host.raw_cpu_s"])
	}
}

// probeMetrics names the probe table's values as per-layer metrics.
func probeMetrics(prs []probeResult) map[string]float64 {
	m := map[string]float64{}
	for _, pr := range prs {
		m[pr.Name+"_"+pr.Unit] = pr.PerOp
		m[pr.Name+"_allocs"] = pr.Allocs
		if pr.Unit == "us" {
			m[pr.Name+"_kib"] = pr.KiB
		}
		if probeByName(pr.Name).Simulated {
			m[pr.Name+"_simcycles"] = pr.SimCycles
		}
	}
	return m
}

// modelRow is one term of the layer-sum check: a deterministic work count
// times its probe's host cost per operation.
type modelRow struct {
	Work   string
	Count  float64
	Probe  string
	NsOp   float64
	CPUSec float64
}

// layerModel is Σ(probe ns/op × matching work count) ÷ cpu_s: the share of
// the workload's CPU time the probe table explains.
func layerModel(counts map[string]float64, prs []probeResult, cpuS float64) ([]modelRow, float64) {
	perOp := map[string]float64{}
	for _, pr := range prs {
		ns := pr.PerOp
		if pr.Unit == "us" {
			ns *= 1e3
		}
		perOp[pr.Name] = ns
	}
	terms := []struct {
		work   string
		counts []string
		probe  string
	}{
		{"compartment calls", []string{"switcher.compartment_calls"}, "switcher.call"},
		{"context switches", []string{"switcher.context_switches"}, "sched.handoff"},
		{"mallocs", []string{"alloc.mallocs"}, "alloc.malloc_free"},
		{"revoker sweeps", []string{"alloc.revoker_sweeps"}, "mem.sweep_sram"},
		{"rx frames", []string{"tcpip.rx_frames"}, "netsim.pump_frame"},
		{"rx frames + tx segments", []string{"tcpip.rx_frames", "tcpip.tx_segments"}, "netproto.tls_seal_open"},
		{"snapshot forks", []string{"snapshot.forks"}, "snapshot.fork"},
	}
	var rows []modelRow
	var total float64
	for _, t := range terms {
		row := modelRow{Work: t.work, Probe: t.probe, NsOp: perOp[t.probe]}
		for _, c := range t.counts {
			row.Count += counts[c]
		}
		row.CPUSec = row.Count * row.NsOp / 1e9
		total += row.CPUSec
		rows = append(rows, row)
	}
	return rows, ratio(total, cpuS)
}

// quantiles is a median with quartiles and the sample count.
type quantiles struct {
	Median, P25, P75 float64
	N                int
}

// quartiles computes them like Python's statistics.quantiles(xs, n=4),
// the exclusive method, which is what the benchmark's spread is judged
// by.
func quartiles(xs []float64) quantiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := quantiles{N: len(s)}
	switch len(s) {
	case 0:
		return q
	case 1:
		q.Median, q.P25, q.P75 = s[0], s[0], s[0]
		return q
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	q.P25, q.Median, q.P75 = cut(1), cut(2), cut(3)
	return q
}

// nearestRank is the q-quantile by nearest rank: at q = 0.9 over 120
// samples, 12 samples lie beyond it.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine reports the end-to-end metrics, or with tracing the
// per-layer ones; with several workloads, keys are workload/metric.
func resultLine(wrs []*wresult, pg gate, traced, multi bool) result {
	res := result{Correct: len(pg.violations) == 0, Attempted: pg.attempted, Failed: pg.failed,
		Metrics: map[string]metricValue{}}
	for _, wr := range wrs {
		res.Attempted += wr.gate.attempted
		res.Failed += wr.gate.failed
		if len(wr.gate.violations) > 0 {
			res.Correct = false
		}
		list := endToEnd
		if traced {
			list = perLayer
		}
		for _, m := range list {
			key := m.Name
			if multi {
				key = wr.w.Name + "/" + m.Name
			}
			v := wr.layer[m.Name]
			if !traced {
				v = wr.e2e[m.Name].Median
			}
			res.Metrics[key] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	return res
}

// runProbeTable is -probes: the probe table alone.
func runProbeTable(exp *expectations) error {
	var pr probeRun
	if err := spawn(&pr, "-child", "probes"); err != nil {
		return err
	}
	pg := probeGate(pr.Probes, exp)
	printProbes(os.Stdout, pr.Probes, pg)
	res := result{Correct: len(pg.violations) == 0, Attempted: len(pr.Probes), Failed: pg.failed,
		Metrics: map[string]metricValue{}}
	for k, v := range probeMetrics(pr.Probes) {
		res.Metrics[k] = metricValue{Value: v, Unit: unitOf(k)}
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// printReport writes the human-readable tables.
func printReport(w io.Writer, b *bench, exp *expectations, wrs []*wresult, pg gate) {
	fmt.Fprintf(w, "cheriot-go host benchmark: seed %d, nproc %d, %s %s/%s\n",
		b.seed, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "end-to-end times are at the reference speed: measured x %.4f s / the reference time around each rep\n",
		exp.RefLoopS)
	for _, wr := range wrs {
		fmt.Fprintf(w, "\n== %s: %s\n", wr.w.Name, wr.w.Why)
		fmt.Fprintf(w, "  %-22s %-12s %12s %12s %12s %3s\n", "metric", "unit", "median", "p25", "p75", "n")
		for _, m := range endToEnd {
			q := wr.e2e[m.Name]
			fmt.Fprintf(w, "  %-22s %-12s %12.4f %12.4f %12.4f %3d\n", m.Name, m.Unit, q.Median, q.P25, q.P75, q.N)
		}
		for _, name := range []string{"host.raw_wall_s", "host.raw_cpu_s", "host.ref_loop_s",
			"devices_per_s", "publishes_per_s", "deliveries_per_s", "cells_per_s", "cell_p50_s", "cell_p90_s", "fail_ratio"} {
			if v := wr.layer[name]; v != 0 || name == "fail_ratio" {
				fmt.Fprintf(w, "  %-22s %-12s %12.4f\n", name, unitOf(name), v)
			}
		}
		status := "identical across reps"
		if wr.committed {
			status += ", matches the committed digest"
		}
		if len(wr.gate.violations) > 0 {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  digest %s %s (%s)\n", wr.w.Name, wr.digest, status)
		for _, v := range wr.gate.violations {
			fmt.Fprintf(w, "  VIOLATION %s\n", v)
		}
		if wr.traced != nil && !wr.traced.crashed {
			printTraced(w, wr)
		}
	}
	if len(b.probeResults) > 0 {
		fmt.Fprintln(w)
		printProbes(w, b.probeResults, pg)
	}
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// printTraced writes a workload's per-layer breakdown and layer-sum check.
func printTraced(w io.Writer, wr *wresult) {
	l := wr.layer
	fmt.Fprintf(w, "  traced rep: wall %.3f s, trace.overhead %.3f\n", wr.traced.WallS, l["trace.overhead"])
	fmt.Fprintf(w, "  host phases (summed over workers): boot %.3f s, step %.3f s, pump %.3f s, merge %.3f s",
		l["host.boot_s"], l["host.step_s"], l["host.pump_s"], l["host.merge_s"])
	if v := l["host.boot_fork_us_per_device"]; v > 0 {
		fmt.Fprintf(w, ", fork %.1f us/device", v)
	}
	if v := l["host.cpu_ns_per_call"]; v > 0 {
		fmt.Fprintf(w, ", %.0f cpu ns per compartment call", v)
	}
	fmt.Fprintln(w)
	type share struct {
		name string
		v    float64
	}
	var shares []share
	var sum float64
	for k, v := range l {
		if (strings.HasPrefix(k, "cpu.") || strings.HasPrefix(k, "runtime.")) && k != "runtime.chan_share" {
			sum += v
			if v >= 0.005 {
				shares = append(shares, share{strings.TrimSuffix(k, "_share"), v})
			}
		}
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].v > shares[j].v })
	fmt.Fprintf(w, "  cpu shares (sum %.3f; chan/park/ready %.3f):", sum, l["runtime.chan_share"])
	for i, s := range shares {
		if i%6 == 0 {
			fmt.Fprint(w, "\n   ")
		}
		fmt.Fprintf(w, " %s %.3f", s.name, s.v)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  go runtime: gc cpu %.3f, sched latency p50 %.1f us p99 %.1f us, mutex wait %.2f ms, %.3g objects\n",
		l["go.gc_cpu_share"], l["go.sched_latency_p50_us"], l["go.sched_latency_p99_us"],
		l["go.mutex_wait_ms"], l["go.alloc_objects"])
	fmt.Fprint(w, "  work:")
	for _, c := range workCounts {
		fmt.Fprintf(w, " %s %.0f", c.Name, l[c.Name])
	}
	fmt.Fprintf(w, "\n  snapshot.fork_ratio %.4f of %.0f devices, cloud.fanout_delivered_ratio %.4f of %.0f events\n",
		l["snapshot.fork_ratio"], l["snapshot.fork_base"], l["cloud.fanout_delivered_ratio"], l["cloud.fanout_base"])
	if len(wr.model) > 0 {
		fmt.Fprintf(w, "  layer-sum model: model.explained_share %.3f of measured cpu %.3f s\n", l["model.explained_share"], l["host.raw_cpu_s"])
		for _, row := range wr.model {
			fmt.Fprintf(w, "    %-24s %12.0f x %-24s %10.1f ns = %8.3f cpu-s\n", row.Work, row.Count, row.Probe, row.NsOp, row.CPUSec)
		}
	}
}

// printProbes writes the probe table, simulated cycles beside the paper.
func printProbes(w io.Writer, prs []probeResult, pg gate) {
	fmt.Fprintf(w, "%-30s %12s %10s %10s %10s %10s %12s %7s %7s\n",
		"probe", "host/op", "p25", "p75", "allocs/op", "KiB/op", "simcycles/op", "paper", "error")
	for _, pr := range prs {
		fmt.Fprintf(w, "%-30s %9.1f %-2s %10.1f %10.1f %10.2f %10.2f", pr.Name, pr.PerOp, pr.Unit, pr.P25, pr.P75, pr.Allocs, pr.KiB)
		p := probeByName(pr.Name)
		if p.Simulated {
			fmt.Fprintf(w, " %12.1f", pr.SimCycles)
			if p.Paper != 0 {
				fmt.Fprintf(w, " %7.0f %+6.1f%%", p.Paper, 100*(pr.SimCycles-p.Paper)/p.Paper)
			}
		}
		fmt.Fprintln(w)
	}
	for _, v := range pg.violations {
		fmt.Fprintf(w, "VIOLATION %s\n", v)
	}
}
