package fleetobs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// syntheticInput builds n traces at Hz=100 over 20 seconds, on 4
// devices of two profiles and 3 broker shards. Every ninth trace is
// lost; the rest ingress up to 3 s after their publish, and every third
// one is forwarded and delivered. Every second, shard and profile sees
// deliveries whatever n is, so only the trace count varies with n.
func syntheticInput(n int) Input {
	const hz, seconds = 100, 20
	in := Input{Hz: hz, Devices: 4, Seconds: seconds, Shards: 3, SampleRate: 1,
		Availability: make([]int, seconds), DropSeconds: make([]uint32, seconds),
		CrashSeconds: make([]uint32, seconds),
		ProfileOf: func(device int) string {
			if device%2 == 0 {
				return "sensor"
			}
			return "gateway"
		},
	}
	for i := 0; i < n; i++ {
		dev := i % 4
		tr := DeviceTrace(dev, uint64(i))
		start := uint64(i*37) % (hz * (seconds - 3))
		in.Spans = append(in.Spans, Span{Trace: tr, Kind: SpanPublish, Device: dev, Shard: -1,
			Start: start, End: start + 2, OK: true})
		if i%9 == 8 {
			continue
		}
		shard := i % 3
		at := start + uint64(i*13)%(3*hz)
		in.Spans = append(in.Spans, Span{Trace: tr, Kind: SpanIngress, Device: dev, Shard: shard,
			Start: at, End: at, OK: true})
		if i%3 == 0 {
			in.Spans = append(in.Spans,
				Span{Trace: tr, Kind: SpanForward, Device: dev, Shard: (shard + 1) % 3, Peer: shard,
					Start: at + 1, End: at + 1, OK: true},
				Span{Trace: tr, Kind: SpanDeliver, Device: (dev + 1) % 4, Shard: (shard + 1) % 3,
					Start: at + 2, End: at + 2, OK: true})
		}
	}
	return in
}

// Aggregating spans, the Report and its latency histograms, allocates
// for the shards, profiles and seconds, not per trace: 1k and 10k traces
// over the same groups cost the same number of allocations.
func TestAggregateAllocationsIndependentOfTraces(t *testing.T) {
	allocs := func(n int) float64 {
		in := syntheticInput(n)
		return testing.AllocsPerRun(10, func() {
			if _, snap := Aggregate(in); len(snap.Histograms) != 5 {
				t.Fatalf("%d traces: want 5 histograms (3 shards, 2 profiles)", n)
			}
		})
	}
	if small, large := allocs(1000), allocs(10000); small != large {
		t.Errorf("Aggregate allocated %.0f times for 1k traces and %.0f for 10k", small, large)
	}
}

// Quantiles takes samples in any order: it sorts them in place, then
// reads p50 and p99 by nearest rank.
func TestQuantilesSortsInPlace(t *testing.T) {
	samples := []uint64{900, 100, 500, 300, 700}
	if p50, p99 := Quantiles(samples, 1000); p50 != 500 || p99 != 900 {
		t.Errorf("Quantiles = %v, %v ms, want 500, 900", p50, p99)
	}
	if !slices.IsSorted(samples) {
		t.Errorf("samples left unsorted: %v", samples)
	}
	if p50, p99 := Quantiles(nil, 1000); p50 != 0 || p99 != 0 {
		t.Errorf("Quantiles(nil) = %v, %v, want 0, 0", p50, p99)
	}
}

// Aggregate and its histograms match a map-based reference, which pairs
// each trace's first publish span with its first ingress span through a
// trace-keyed map and sorts a copy of every sample set per quantile, on
// random span sets: several publish and ingress spans per trace, traces
// with no publish, ingress stamped before its publish second, spans past
// the series, and a zero clock.
func TestAggregateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for round := 0; round < 200; round++ {
		in := Input{Hz: uint64(rng.Intn(3)) * 50, Devices: 1 + rng.Intn(5), Seconds: rng.Intn(6),
			Shards: rng.Intn(4), SampleRate: 1, SpansDropped: uint64(rng.Intn(3))}
		for t := rng.Intn(8); t > 0; t-- {
			in.Availability = append(in.Availability, rng.Intn(5))
		}
		for t := rng.Intn(8); t > 0; t-- {
			in.DropSeconds = append(in.DropSeconds, uint32(rng.Intn(3)))
			in.CrashSeconds = append(in.CrashSeconds, uint32(rng.Intn(2)))
		}
		if rng.Intn(2) == 0 {
			in.ProfileOf = func(device int) string { return fmt.Sprintf("p%d", device%3) }
		}
		for n := rng.Intn(60); n > 0; n-- {
			in.Spans = append(in.Spans, Span{
				Trace:  uint64(1 + rng.Intn(12)),
				Kind:   SpanKind(rng.Intn(int(spanKindCount))),
				Device: rng.Intn(5) - 1,
				Shard:  rng.Intn(5) - 1,
				Start:  uint64(rng.Intn(600)),
				End:    uint64(rng.Intn(600)),
			})
		}
		ref := append([]Span(nil), in.Spans...)
		refIn := in
		refIn.Spans = ref
		wantReport, wantSnap := referenceAggregate(refIn)

		r, snap := Aggregate(in)
		got, _ := json.Marshal(r)
		want, _ := json.Marshal(wantReport)
		if string(got) != string(want) {
			t.Fatalf("round %d: report\n%s\nreference\n%s", round, got, want)
		}
		got, _ = json.Marshal(snap)
		want, _ = json.Marshal(wantSnap)
		if string(got) != string(want) {
			t.Fatalf("round %d: histograms\n%s\nreference\n%s", round, got, want)
		}
	}
}

// referenceAggregate is the map-based pairing Aggregate replaced, kept
// as the reference its one-pass pairing must match.
func referenceAggregate(in Input) (*Report, telemetry.Snapshot) {
	SortSpans(in.Spans)
	r := &Report{SampleRate: in.SampleRate, SpanCount: len(in.Spans), SpansDropped: in.SpansDropped}
	for _, n := range in.DropSeconds {
		r.LinkDrops += uint64(n)
	}
	type pairing struct {
		publish, ingress Span
		hasIn            bool
	}
	pairs := map[uint64]*pairing{}
	var order []uint64
	shardCounts := map[int]*ShardObs{}
	shardOf := func(i int) *ShardObs {
		if shardCounts[i] == nil {
			shardCounts[i] = &ShardObs{Shard: i}
		}
		return shardCounts[i]
	}
	for _, s := range in.Spans {
		switch s.Kind {
		case SpanPublish:
			if pairs[s.Trace] == nil {
				pairs[s.Trace] = &pairing{publish: s}
				order = append(order, s.Trace)
			}
		case SpanIngress:
			shardOf(s.Shard).Ingress++
			if p := pairs[s.Trace]; p != nil && !p.hasIn {
				p.ingress, p.hasIn = s, true
			}
		case SpanForward:
			shardOf(s.Shard).Forwards++
		case SpanDeliver:
			if s.Shard >= 0 {
				shardOf(s.Shard).Delivers++
			}
		}
	}
	pct := func(samples []uint64, q float64) float64 {
		sorted := append([]uint64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return CyclesToMs(percentile(sorted, q), in.Hz)
	}
	secOf := func(c uint64) int {
		if in.Hz == 0 {
			return 0
		}
		return int(c / in.Hz)
	}
	seconds := in.Seconds
	grow := func(n int) { seconds = max(seconds, n+1) }
	var all []uint64
	perShard, perProfile, perSecond := map[int][]uint64{}, map[string][]uint64{}, map[int][]uint64{}
	published, delivered := map[int]uint64{}, map[int]uint64{}
	var flights [][2]int
	hists := map[string]*telemetry.Histogram{}
	hist := func(comp string, lat uint64) {
		if hists[comp] == nil {
			hists[comp] = telemetry.NewHistogram(comp, "publish_deliver_cycles", E2EBuckets)
		}
		hists[comp].Observe(lat)
	}
	for _, tr := range order {
		p := pairs[tr]
		r.TracedPublishes++
		ps := secOf(p.publish.Start)
		grow(ps)
		published[ps]++
		if !p.hasIn {
			r.Lost++
			flights = append(flights, [2]int{ps, -1})
			continue
		}
		r.Delivered++
		delivered[ps]++
		lat := p.ingress.End - p.publish.Start
		all = append(all, lat)
		perShard[p.ingress.Shard] = append(perShard[p.ingress.Shard], lat)
		perSecond[ps] = append(perSecond[ps], lat)
		hist(fmt.Sprintf("fleetobs/shard%d", p.ingress.Shard), lat)
		if in.ProfileOf != nil {
			name := in.ProfileOf(p.publish.Device)
			perProfile[name] = append(perProfile[name], lat)
			hist("fleetobs/profile/"+name, lat)
		}
		is := secOf(p.ingress.End)
		grow(is)
		flights = append(flights, [2]int{ps, is})
	}
	r.E2EP50Ms, r.E2EP99Ms = pct(all, 0.50), pct(all, 0.99)
	for shard, lats := range perShard {
		so := shardOf(shard)
		so.Samples, so.E2EP50Ms, so.E2EP99Ms = len(lats), pct(lats, 0.50), pct(lats, 0.99)
	}
	for _, so := range shardCounts {
		r.PerShard = append(r.PerShard, *so)
	}
	sort.Slice(r.PerShard, func(i, j int) bool { return r.PerShard[i].Shard < r.PerShard[j].Shard })
	for name, lats := range perProfile {
		r.PerProfile = append(r.PerProfile, ProfileObs{Name: name, Samples: len(lats),
			E2EP50Ms: pct(lats, 0.50), E2EP99Ms: pct(lats, 0.99)})
	}
	sort.Slice(r.PerProfile, func(i, j int) bool { return r.PerProfile[i].Name < r.PerProfile[j].Name })
	seconds = max(seconds, len(in.Availability), len(in.DropSeconds), len(in.CrashSeconds))
	for t := 0; t < seconds; t++ {
		h := HealthPoint{Second: t, Published: published[t], Delivered: delivered[t]}
		if t < len(in.Availability) {
			h.Available = in.Availability[t]
		}
		if in.Devices > 0 {
			h.Availability = float64(h.Available) / float64(in.Devices)
		}
		if lats := perSecond[t]; len(lats) > 0 {
			h.DeliveryP50Ms, h.DeliveryP99Ms = pct(lats, 0.50), pct(lats, 0.99)
		}
		for _, f := range flights {
			if end := f[1]; t >= f[0] && (end < 0 || t < end) {
				h.InFlight++
			}
		}
		if t < len(in.DropSeconds) {
			h.Drops = uint64(in.DropSeconds[t])
		}
		if t < len(in.CrashSeconds) {
			h.Crashes = uint64(in.CrashSeconds[t])
		}
		if in.Shards > 0 {
			h.ShardIngress, h.ShardForwards = make([]uint64, in.Shards), make([]uint64, in.Shards)
			for _, s := range in.Spans {
				if secOf(s.Start) != t || s.Shard < 0 || s.Shard >= in.Shards {
					continue
				}
				switch s.Kind {
				case SpanIngress:
					h.ShardIngress[s.Shard]++
				case SpanForward:
					h.ShardForwards[s.Shard]++
				}
			}
		}
		r.Health = append(r.Health, h)
	}
	var snap telemetry.Snapshot
	for _, h := range hists {
		snap.Histograms = append(snap.Histograms, *h)
	}
	sort.Slice(snap.Histograms, func(i, j int) bool {
		return snap.Histograms[i].Compartment < snap.Histograms[j].Compartment
	})
	return r, snap
}
