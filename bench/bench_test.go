package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestWorkloadsAtToySize runs every workload function once untraced and
// once traced at toy size, and the probe table scaled down, then checks
// that every metric is emitted by name with its unit and that the
// correctness gate passes. Seed 7 is not the committed seed, so the gate
// checks the digests for agreement between the two reps only.
func TestWorkloadsAtToySize(t *testing.T) {
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	prs, err := runProbes(0.001, newSpanLog())
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{workloads: workloads, seed: seed, trace: true, probeResults: prs,
		untraced: map[string][]*rep{}, traced: map[string]*rep{}}
	for _, w := range workloads {
		r, err := measure(w, seed, w.Toy, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		rt, err := measure(w, seed, w.Toy, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		r.label, rt.label = "rep 1", "traced rep"
		b.untraced[w.Name], b.traced[w.Name] = []*rep{r}, rt
	}
	wrs, pg := b.evaluate(exp)
	for _, traced := range []bool{false, true} {
		res := resultLine(wrs, pg, traced, true)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %v: correct %v, %d of %d failed", traced, res.Correct, res.Failed, res.Attempted)
		}
		list := endToEnd
		if traced {
			list = perLayer
		}
		for _, w := range workloads {
			for _, m := range list {
				v, ok := res.Metrics[w.Name+"/"+m.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", w.Name, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, m.Name, v.Unit, m.Unit)
				case !traced && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v.Value)
				}
			}
		}
	}
	for _, wr := range wrs {
		for _, v := range wr.gate.violations {
			t.Errorf("%s: %s", wr.w.Name, v)
		}
		// A toy rep can be too short for a single profile sample; any
		// profile it does get must be charged in full.
		var sum float64
		for k, v := range wr.layer {
			if (strings.HasPrefix(k, "cpu.") || strings.HasPrefix(k, "runtime.")) && k != "runtime.chan_share" {
				sum += v
			}
		}
		if sum != 0 && math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: cpu shares sum to %.4f, want 1", wr.w.Name, sum)
		}
	}
	for _, v := range pg.violations {
		t.Error(v)
	}
}

// TestTimesScaleToReferenceSpeed checks that end-to-end times are
// reported at the committed reference speed: a rep measured while the
// reference work took twice its committed time counts half its time,
// and the measured time stays in the per-layer output.
func TestTimesScaleToReferenceSpeed(t *testing.T) {
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	w := workloads[0]
	r := &rep{Workload: w.Name, WallS: 4, SetupS: 0.2, CPUS: 6, DeviceSimSec: 100,
		Digest: "d", ref: 2 * exp.RefLoopS}
	b := &bench{workloads: []workload{w}, seed: exp.Seed + 1,
		untraced: map[string][]*rep{w.Name: {r}}, traced: map[string]*rep{}}
	wrs, _ := b.evaluate(exp)
	for name, want := range map[string]float64{
		"wall_s": 2, "setup_s": 0.1, "cpu_s": 3, "device_simsec_per_s": 50,
	} {
		if got := wrs[0].e2e[name].Median; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := wrs[0].layer["host.raw_wall_s"]; got != 4 {
		t.Errorf("host.raw_wall_s = %v, want 4", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the benchmark
// contract is checked against, in step with the metrics and workloads
// this package reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %s: %s", i, got, w.Name, w.Why)
		}
	}
	for _, c := range []struct {
		name      string
		doc, code []metric
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.doc) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", c.name, len(c.doc), len(c.code))
			continue
		}
		for i := range c.code {
			if c.doc[i] != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", c.name, i, c.doc[i], c.code[i])
			}
		}
	}
}

// TestCellSeeds checks that seed 1 runs the campaign at cell seeds 1-10,
// the ones its committed digest was taken at, and that every seed,
// however large, gets distinct cell seeds from the passing pool.
func TestCellSeeds(t *testing.T) {
	got := cellSeeds(1, 10)
	for k, s := range got {
		if s != uint64(k+1) {
			t.Fatalf("cellSeeds(1, 10) = %v, want 1..10", got)
		}
	}
	pool := map[uint64]bool{}
	for _, s := range campaignSeeds {
		pool[s] = true
	}
	for _, seed := range []uint64{0, 2, 7, 19, 20, 191, 12345, math.MaxUint64} {
		seen := map[uint64]bool{}
		for _, s := range cellSeeds(seed, 10) {
			if !pool[s] || seen[s] {
				t.Errorf("cellSeeds(%d, 10) = %v: %d repeated or not in campaignSeeds", seed, cellSeeds(seed, 10), s)
			}
			seen[s] = true
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), by which the benchmark's spread is
// judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs            []float64
		p25, med, p75 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	} {
		q := quartiles(c.xs)
		if q.P25 != c.p25 || q.Median != c.med || q.P75 != c.p75 || q.N != len(c.xs) {
			t.Errorf("quartiles(%v) = %+v, want %v %v %v", c.xs, q, c.p25, c.med, c.p75)
		}
	}
}
