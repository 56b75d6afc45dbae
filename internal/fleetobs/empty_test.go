package fleetobs

import "testing"

// These are the empty-series regressions: every reduction in the
// report pipeline must degrade to zeros (or a nil series) when it has
// nothing to reduce — no panics, no NaNs, no divisions by zero — and
// the SLO judge must stay loud, not vacuous, over the empty evidence.

// percentile over no samples is 0, and the nearest-rank index stays in
// bounds at both extremes of q for tiny sample sets.
func TestPercentileEmptyAndBounds(t *testing.T) {
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
	if got := percentile([]uint64{}, 0.50); got != 0 {
		t.Errorf("percentile(empty) = %d, want 0", got)
	}
	one := []uint64{42}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := percentile(one, q); got != 42 {
			t.Errorf("percentile([42], %v) = %d, want 42", q, got)
		}
	}
}

// cyclesToMs with a zero clock is 0, not +Inf or NaN.
func TestCyclesToMsZeroHz(t *testing.T) {
	if got := CyclesToMs(1_000_000, 0); got != 0 {
		t.Errorf("CyclesToMs(.., 0) = %v, want 0", got)
	}
}

// The fully zero input — no spans, no seconds, no devices, no clock —
// reduces to an all-zero report with a nil health series.
func TestAggregateZeroValueInput(t *testing.T) {
	r, _ := Aggregate(Input{})
	if r.TracedPublishes != 0 || r.Delivered != 0 || r.Lost != 0 {
		t.Errorf("zero input counted traffic: %+v", r)
	}
	if r.E2EP50Ms != 0 || r.E2EP99Ms != 0 {
		t.Errorf("zero input produced latencies: p50=%v p99=%v", r.E2EP50Ms, r.E2EP99Ms)
	}
	if r.Health != nil {
		t.Errorf("zero-length window grew a health series: %+v", r.Health)
	}
	if len(r.PerShard) != 0 || len(r.PerProfile) != 0 {
		t.Errorf("zero input grew breakdowns: %+v", r)
	}
}

// All publishes lost: the latency sample set is empty while the
// publish counters are not. Percentiles must report 0 samples, not
// stale or garbage values, and per-shard rows keep Samples 0.
func TestAggregateAllLost(t *testing.T) {
	in := Input{
		Hz: 100, Devices: 2, Shards: 1, Seconds: 2,
		Spans: []Span{
			{Trace: 1, Kind: SpanPublish, Device: 0, Start: 10, End: 20},
			{Trace: 2, Kind: SpanPublish, Device: 1, Start: 110, End: 120},
		},
	}
	r, _ := Aggregate(in)
	if r.TracedPublishes != 2 || r.Delivered != 0 || r.Lost != 2 {
		t.Fatalf("pairing: %+v", r)
	}
	if r.E2EP50Ms != 0 || r.E2EP99Ms != 0 {
		t.Errorf("0-sample percentiles nonzero: p50=%v p99=%v", r.E2EP50Ms, r.E2EP99Ms)
	}
	if len(r.Health) != 2 {
		t.Fatalf("health has %d points, want 2", len(r.Health))
	}
	for _, h := range r.Health {
		if h.DeliveryP50Ms != 0 || h.DeliveryP99Ms != 0 {
			t.Errorf("second %d: 0-sample per-second percentiles nonzero: %+v", h.Second, h)
		}
		if h.InFlight != uint64(h.Second+1) { // lost traces stay in flight
			t.Errorf("second %d: in-flight %d", h.Second, h.InFlight)
		}
	}
}

// A zero clock must not divide: spans still pair, every latency lands
// in second 0, and the millisecond conversions all come out 0.
func TestAggregateZeroHz(t *testing.T) {
	in := Input{
		Devices: 1, Shards: 1,
		Spans: []Span{
			{Trace: 1, Kind: SpanPublish, Device: 0, Start: 10, End: 20},
			{Trace: 1, Kind: SpanIngress, Device: 0, Shard: 0, Start: 30, End: 40},
		},
	}
	r, _ := Aggregate(in)
	if r.TracedPublishes != 1 || r.Delivered != 1 {
		t.Fatalf("pairing: %+v", r)
	}
	if r.E2EP50Ms != 0 || r.E2EP99Ms != 0 {
		t.Errorf("zero-Hz latencies nonzero: p50=%v p99=%v", r.E2EP50Ms, r.E2EP99Ms)
	}
	if len(r.Health) != 1 || r.Health[0].Published != 1 {
		t.Errorf("zero-Hz health: %+v", r.Health)
	}
}

// Evaluating rules over an empty report stays loud where it matters:
// availability over a window the run never reached is 0 (fails a >=
// floor), while delivery with no traced publishes is vacuously 1.
func TestEvaluateEmptyReport(t *testing.T) {
	rules, err := ParseRules("availability>=0.9@5s;delivery>=0.99;p99<=5ms;crashes<=0;lost<=0;drops<=0")
	if err != nil {
		t.Fatal(err)
	}
	empty, _ := Aggregate(Input{})
	v := Evaluate(rules, empty)
	if v.Pass {
		t.Error("verdict passed with an unreachable availability window")
	}
	byRule := map[string]RuleResult{}
	for _, rr := range v.Rules {
		byRule[rr.Rule] = rr
	}
	if rr := byRule["availability>=0.9@5s"]; rr.OK || rr.Actual != 0 {
		t.Errorf("availability over empty health: %+v", rr)
	}
	if rr := byRule["delivery>=0.99"]; !rr.OK || rr.Actual != 1 {
		t.Errorf("delivery with no publishes: %+v", rr)
	}
	for _, rule := range []string{"p99<=5ms", "crashes<=0", "lost<=0", "drops<=0"} {
		if rr := byRule[rule]; !rr.OK || rr.Actual != 0 {
			t.Errorf("%s over empty report: %+v", rule, rr)
		}
	}

	// No rules at all: vacuous pass, no rows.
	if v := Evaluate(nil, empty); !v.Pass || len(v.Rules) != 0 {
		t.Errorf("empty rule set: %+v", v)
	}
}
