package fleetobs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

func TestTraceIDLayout(t *testing.T) {
	for _, dev := range []int{0, 1, 41, 59999} {
		id := DeviceTrace(dev, 7)
		if id == 0 {
			t.Fatalf("device %d trace is zero", dev)
		}
		if IsCloudTrace(id) {
			t.Errorf("device trace %x claims cloud origin", id)
		}
		if got := TraceDevice(id); got != dev {
			t.Errorf("TraceDevice(%x) = %d, want %d", id, got, dev)
		}
	}
	c := CloudTrace(0)
	if c == 0 || !IsCloudTrace(c) {
		t.Errorf("cloud trace %x not marked", c)
	}
	if TraceDevice(c) != -1 || TraceDevice(0) != -1 {
		t.Error("cloud/zero traces must map to device -1")
	}
	// Distinct publishes get distinct IDs.
	if DeviceTrace(3, 0) == DeviceTrace(3, 1) || DeviceTrace(3, 0) == DeviceTrace(4, 0) {
		t.Error("trace IDs collide")
	}
}

func TestSamplerDeterministicAndSeeded(t *testing.T) {
	mk := func(seed uint64, rate float64) *Tracer {
		return NewTracer(TracerConfig{Device: 2, Hz: 100, SampleRate: rate, Seed: seed})
	}
	a, b := mk(42, 0.5), mk(42, 0.5)
	for i := 0; i < 200; i++ {
		if a.SamplePublish() != b.SamplePublish() {
			t.Fatalf("same-seed tracers diverged at draw %d", i)
		}
	}
	// Rate 1 samples everything with sequential IDs.
	full := mk(9, 1)
	if full.SamplePublish() != DeviceTrace(2, 0) || full.SamplePublish() != DeviceTrace(2, 1) {
		t.Error("full sampling must assign sequential device traces")
	}
	// Rate 0 (and nil) sample nothing.
	if mk(9, 0).SamplePublish() != 0 {
		t.Error("rate 0 sampled")
	}
	var nilT *Tracer
	if nilT.SamplePublish() != 0 {
		t.Error("nil tracer sampled")
	}
	// A 0.5 sampler over many draws is neither empty nor full.
	half, n := mk(7, 0.5), 0
	for i := 0; i < 1000; i++ {
		if half.SamplePublish() != 0 {
			n++
		}
	}
	if n < 300 || n > 700 {
		t.Errorf("0.5 sampler took %d/1000", n)
	}
}

func TestNilTracerMethodsAreNoOps(t *testing.T) {
	var tr *Tracer
	tr.PublishSpan(1, 0, 1, true)
	tr.RecvSpan(1, 2)
	tr.CloudDeliverSpan(1, 0, 3)
	tr.MQTTIngress(1, 0, 4)
	tr.MQTTForward(1, 0, 1, 5)
	tr.MQTTDeliver(1, 0, 0, 6)
	tr.LinkDropped(7)
	if tr.Spans() != nil || tr.Dropped() != 0 || tr.LinkDrops() != nil {
		t.Error("nil tracer leaked state")
	}
}

func TestTracerSpanCapCountsDrops(t *testing.T) {
	tr := NewTracer(TracerConfig{Device: 0, Hz: 100, SampleRate: 1, Seed: 1, MaxSpans: 2})
	for i := uint64(0); i < 5; i++ {
		tr.PublishSpan(DeviceTrace(0, i), i, i+1, true)
	}
	if len(tr.Spans()) != 2 || tr.Dropped() != 3 {
		t.Fatalf("cap: %d spans, %d dropped", len(tr.Spans()), tr.Dropped())
	}
}

func TestTracerPerSecondBuckets(t *testing.T) {
	tr := NewTracer(TracerConfig{Device: 0, Hz: 100, SampleRate: 1, Seed: 1})
	tr.LinkDropped(5)
	tr.LinkDropped(250)
	tr.LinkDropped(260)
	if got := tr.LinkDrops(); !reflect.DeepEqual(got, []uint32{1, 0, 2}) {
		t.Errorf("link drops = %v", got)
	}
}

func TestSortSpansOrderIndependent(t *testing.T) {
	spans := []Span{
		{Trace: 2, Kind: SpanIngress, Shard: 0, Start: 20},
		{Trace: 1, Kind: SpanPublish, Device: 0, Start: 10, End: 12},
		{Trace: 2, Kind: SpanPublish, Device: 1, Start: 15, End: 16},
		{Trace: 1, Kind: SpanIngress, Shard: 1, Start: 13},
		{Trace: 1, Kind: SpanDeliver, Shard: 1, Device: 2, Start: 14},
	}
	want := append([]Span(nil), spans...)
	SortSpans(want)
	for i := 0; i < 10; i++ {
		shuf := append([]Span(nil), spans...)
		rand.New(rand.NewSource(int64(i))).Shuffle(len(shuf), func(a, b int) {
			shuf[a], shuf[b] = shuf[b], shuf[a]
		})
		SortSpans(shuf)
		if !reflect.DeepEqual(shuf, want) {
			t.Fatalf("shuffle %d sorts differently:\n%v\n%v", i, shuf, want)
		}
	}
	// Hop order within one trace.
	if want[0].Trace != 1 || want[0].Kind != SpanPublish ||
		want[1].Kind != SpanIngress || want[2].Kind != SpanDeliver {
		t.Errorf("hop order wrong: %v", want)
	}
}

// aggregateInput is a hand-built three-trace input at Hz=100 (one second
// = 100 cycles): trace 1 completes in second 0 with a cross-shard
// forward and delivery, trace 2 publishes in second 1 and ingresses in
// second 2, trace 3 is lost.
func aggregateInput() Input {
	t1, t2, t3 := DeviceTrace(0, 0), DeviceTrace(1, 0), DeviceTrace(2, 0)
	return Input{
		Hz: 100, Devices: 4, Seconds: 3, Shards: 2, SampleRate: 1,
		Spans: []Span{
			{Trace: t1, Kind: SpanPublish, Device: 0, Shard: -1, Start: 10, End: 12, OK: true},
			{Trace: t1, Kind: SpanIngress, Device: 0, Shard: 0, Start: 15, End: 15, OK: true},
			{Trace: t1, Kind: SpanForward, Device: 0, Shard: 1, Peer: 0, Start: 16, End: 16, OK: true},
			{Trace: t1, Kind: SpanDeliver, Device: 3, Shard: 1, Start: 17, End: 17, OK: true},
			{Trace: t2, Kind: SpanPublish, Device: 1, Shard: -1, Start: 110, End: 112, OK: true},
			{Trace: t2, Kind: SpanIngress, Device: 1, Shard: 1, Start: 250, End: 250, OK: true},
			{Trace: t3, Kind: SpanPublish, Device: 2, Shard: -1, Start: 120, End: 125, OK: false},
		},
		SpansDropped: 2,
		Availability: []int{3, 2, 1},
		DropSeconds:  []uint32{0, 2},
		CrashSeconds: []uint32{1},
		ProfileOf: func(device int) string {
			if device == 1 {
				return "gw"
			}
			return "sensor"
		},
	}
}

func TestAggregate(t *testing.T) {
	r, _ := Aggregate(aggregateInput())
	if r.TracedPublishes != 3 || r.Delivered != 2 || r.Lost != 1 {
		t.Fatalf("pairing: %+v", r)
	}
	if r.SpanCount != 7 || r.SpansDropped != 2 || r.LinkDrops != 2 {
		t.Errorf("counts: %+v", r)
	}
	// Latencies are publish.Start→ingress.End: 5 and 140 cycles at Hz=100
	// → 50 ms and 1400 ms.
	if r.E2EP50Ms != 50 || r.E2EP99Ms != 1400 {
		t.Errorf("e2e percentiles: p50=%v p99=%v", r.E2EP50Ms, r.E2EP99Ms)
	}

	if len(r.PerShard) != 2 {
		t.Fatalf("per-shard: %+v", r.PerShard)
	}
	s0, s1 := r.PerShard[0], r.PerShard[1]
	if s0.Shard != 0 || s0.Ingress != 1 || s0.Samples != 1 || s0.E2EP50Ms != 50 {
		t.Errorf("shard 0: %+v", s0)
	}
	if s1.Shard != 1 || s1.Ingress != 1 || s1.Forwards != 1 || s1.Delivers != 1 || s1.E2EP50Ms != 1400 {
		t.Errorf("shard 1: %+v", s1)
	}

	if len(r.PerProfile) != 2 || r.PerProfile[0].Name != "gw" || r.PerProfile[1].Name != "sensor" {
		t.Fatalf("per-profile: %+v", r.PerProfile)
	}

	if len(r.Health) != 3 {
		t.Fatalf("health has %d points", len(r.Health))
	}
	h0, h1, h2 := r.Health[0], r.Health[1], r.Health[2]
	if h0.Published != 1 || h0.Delivered != 1 || h0.InFlight != 0 ||
		h0.Crashes != 1 || h0.Available != 3 || h0.Availability != 0.75 {
		t.Errorf("second 0: %+v", h0)
	}
	// Second 1: traces 2 and 3 published, neither ingressed within it.
	if h1.Published != 2 || h1.Delivered != 1 || h1.InFlight != 2 || h1.Drops != 2 {
		t.Errorf("second 1: %+v", h1)
	}
	// Second 2: the lost trace is still in flight.
	if h2.InFlight != 1 {
		t.Errorf("second 2: %+v", h2)
	}
	if !reflect.DeepEqual(h0.ShardIngress, []uint64{1, 0}) ||
		!reflect.DeepEqual(h0.ShardForwards, []uint64{0, 1}) {
		t.Errorf("second 0 shard splits: %v %v", h0.ShardIngress, h0.ShardForwards)
	}
	if !reflect.DeepEqual(h2.ShardIngress, []uint64{0, 1}) {
		t.Errorf("second 2 shard ingress: %v", h2.ShardIngress)
	}
}

func TestAggregateEmpty(t *testing.T) {
	r, _ := Aggregate(Input{Hz: 100, Devices: 1, Shards: 1})
	if r.TracedPublishes != 0 || r.Delivered != 0 || len(r.PerShard) != 0 {
		t.Errorf("empty aggregate: %+v", r)
	}
	if len(r.Health) != 0 {
		t.Errorf("empty input grew a health series: %+v", r.Health)
	}
}

func TestTelemetrySnapshot(t *testing.T) {
	_, snap := Aggregate(aggregateInput())
	byComp := map[string]uint64{}
	for _, h := range snap.Histograms {
		if h.Metric != "publish_deliver_cycles" {
			t.Errorf("metric %q", h.Metric)
		}
		if len(h.Bounds) != len(E2EBuckets) || len(h.Counts) != len(E2EBuckets)+1 {
			t.Errorf("%s bucket shape: %d bounds, %d counts", h.Compartment, len(h.Bounds), len(h.Counts))
		}
		byComp[h.Compartment] = h.Count
	}
	want := map[string]uint64{
		"fleetobs/shard0": 1, "fleetobs/shard1": 1,
		"fleetobs/profile/sensor": 1, "fleetobs/profile/gw": 1,
	}
	if !reflect.DeepEqual(byComp, want) {
		t.Errorf("histograms = %v, want %v", byComp, want)
	}
}

func TestParseRules(t *testing.T) {
	rules, err := ParseRules(" delivery>=0.99; p99 <= 5ms ; availability>=0.95@12s;crashes<=0 ")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := []Rule{
		{Metric: "delivery", Op: ">=", Value: 0.99},
		{Metric: "p99", Op: "<=", Value: 5},
		{Metric: "availability", Op: ">=", Value: 0.95, FromSecond: 12},
		{Metric: "crashes", Op: "<=", Value: 0},
	}
	if !reflect.DeepEqual(rules, want) {
		t.Fatalf("rules = %+v", rules)
	}
	if rules[2].String() != "availability>=0.95@12s" || rules[1].String() != "p99<=5ms" {
		t.Errorf("round trip: %q, %q", rules[2], rules[1])
	}
	if got, err := ParseRules(""); err != nil || got != nil {
		t.Errorf("empty rule list: %v, %v", got, err)
	}
	// A non-finite value fails or passes every run, and a negative scope
	// cannot render back: all three are refused.
	for _, bad := range []string{"p99=5", "latency>=3", "p50<=abc", "availability>=0.9@x",
		"drops<=NaN", "delivery>=-Inf", "availability>=0.9@-3s"} {
		if _, err := ParseRules(bad); err == nil {
			t.Errorf("rule %q parsed", bad)
		}
	}
}

// FuzzParseRules feeds the SLO rule grammar arbitrary lists. The parser
// must never panic, and every rule it accepts must parse back from its
// String rendering to the same rule. The seed corpus is under
// testdata/fuzz/FuzzParseRules.
func FuzzParseRules(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		rules, err := ParseRules(s)
		if err != nil {
			return
		}
		for _, r := range rules {
			back, err := ParseRules(r.String())
			if err != nil || len(back) != 1 || back[0] != r {
				t.Fatalf("ParseRules(%q) accepted %+v, which renders %q and parses back to %+v (%v)",
					s, r, r.String(), back, err)
			}
		}
	})
}

func TestEvaluate(t *testing.T) {
	r, _ := Aggregate(aggregateInput())
	rules, err := ParseRules("delivery>=0.5;lost<=1;drops<=2;crashes<=1;p50<=50ms")
	if err != nil {
		t.Fatal(err)
	}
	v := Evaluate(rules, r)
	if !v.Pass || len(v.Rules) != 5 {
		t.Fatalf("lenient verdict: %+v", v)
	}
	for _, res := range v.Rules {
		if !res.OK {
			t.Errorf("rule %s failed: actual %v", res.Rule, res.Actual)
		}
	}

	rules, _ = ParseRules("delivery>=0.99;availability>=0.9")
	v = Evaluate(rules, r)
	if v.Pass {
		t.Fatalf("strict verdict passed: %+v", v)
	}
	if v.Rules[0].OK { // delivery is 2/3
		t.Error("delivery rule passed at 2/3")
	}

	// Availability scoped past the end of the run fails loudly.
	rules, _ = ParseRules("availability>=0.1@100s")
	v = Evaluate(rules, r)
	if v.Pass || v.Rules[0].Actual != 0 {
		t.Errorf("out-of-range scope: %+v", v)
	}

	// No rules: vacuous pass.
	if v := Evaluate(nil, r); !v.Pass || v.Rules != nil {
		t.Errorf("vacuous verdict: %+v", v)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	in := aggregateInput()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, in.Spans, in.Hz); err != nil {
		t.Fatalf("write: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			ID   string         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.OtherData["spans"] != float64(7) {
		t.Errorf("otherData.spans = %v", doc.OtherData["spans"])
	}
	var complete, starts, steps, finishes int
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur <= 0 {
				t.Errorf("complete event %s has dur %v", ev.Name, ev.Dur)
			}
		case "s":
			starts++
		case "t":
			steps++
		case "f":
			finishes++
		case "M":
			names[ev.Args["name"].(string)] = true
		}
	}
	if complete != 7 {
		t.Errorf("%d complete events, want 7", complete)
	}
	// Trace 1 chains 4 hops (s,t,t,f); trace 2 chains 2 (s,f); trace 3 is
	// single-hop and gets no flow.
	if starts != 2 || steps != 2 || finishes != 2 {
		t.Errorf("flow events s/t/f = %d/%d/%d, want 2/2/2", starts, steps, finishes)
	}
	for _, want := range []string{"cloud", "device 0", "shard 0", "shard 1", "publish", "deliver"} {
		if !names[want] {
			t.Errorf("missing metadata name %q (have %v)", want, names)
		}
	}
}

// TestWriteChromeTraceFullRing exports a tracer whose span buffer
// overflowed: the written trace must stay valid and carry every span
// that survived the cap, with the overflow visible via Dropped.
func TestWriteChromeTraceFullRing(t *testing.T) {
	tr := NewTracer(TracerConfig{Device: 0, Hz: 100, SampleRate: 1, Seed: 3, MaxSpans: 4})
	for i := uint64(0); i < 10; i++ {
		trace := tr.SamplePublish()
		tr.PublishSpan(trace, i*10, i*10+2, true)
		tr.MQTTIngress(trace, 0, i*10+5)
	}
	if tr.Dropped() == 0 {
		t.Fatal("buffer never overflowed")
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans(), 100); err != nil {
		t.Fatalf("write: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.OtherData["spans"] != float64(4) {
		t.Errorf("otherData.spans = %v, want the capped 4", doc.OtherData["spans"])
	}
	var x int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			x++
		}
	}
	if x != 4 {
		t.Errorf("%d complete events, want 4", x)
	}
}
