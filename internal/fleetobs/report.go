package fleetobs

import (
	"fmt"
	"sort"

	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// E2EBuckets are the histogram bounds for publish→deliver latency: the
// floor is one link latency (~33k cycles, 1 ms at 33 MHz) plus the
// device-side TLS record path; the tail covers retries and fault
// campaigns.
var E2EBuckets = []uint64{
	35_000, 40_000, 45_000, 50_000, 60_000, 75_000,
	100_000, 250_000, 1_000_000, 10_000_000,
}

// ShardObs is one shard's slice of the observability report.
type ShardObs struct {
	Shard    int    `json:"shard"`
	Ingress  uint64 `json:"ingress"`
	Forwards uint64 `json:"forwards"`
	Delivers uint64 `json:"delivers"`
	// Publish→deliver latency over traces ingressing on this shard.
	Samples  int     `json:"samples"`
	E2EP50Ms float64 `json:"e2e_p50_ms"`
	E2EP99Ms float64 `json:"e2e_p99_ms"`
}

// ProfileObs is one device profile's latency slice.
type ProfileObs struct {
	Name     string  `json:"name"`
	Samples  int     `json:"samples"`
	E2EP50Ms float64 `json:"e2e_p50_ms"`
	E2EP99Ms float64 `json:"e2e_p99_ms"`
}

// HealthPoint is one simulated second of the fleet health series.
type HealthPoint struct {
	Second int `json:"second"`
	// Available is how many devices completed at least one publish this
	// second; Availability normalizes by fleet size.
	Available    int     `json:"available"`
	Availability float64 `json:"availability"`
	// Traced publish/delivery accounting for publishes started this
	// second.
	Published uint64 `json:"published"`
	Delivered uint64 `json:"delivered"`
	// InFlight is the deterministic queue-depth proxy: traced messages
	// published by the end of this second whose broker ingress had not
	// happened yet (host-side inbox depths are scheduling-dependent and
	// live in Result, not here).
	InFlight uint64 `json:"in_flight"`
	// Delivery latency percentiles for publishes started this second.
	DeliveryP50Ms float64 `json:"delivery_p50_ms"`
	DeliveryP99Ms float64 `json:"delivery_p99_ms"`
	// Link drops, fleet-wide, during this second.
	Drops uint64 `json:"drops"`
	// Crashes counts flight-recorder reports stamped during this second.
	Crashes uint64 `json:"crashes"`
	// Per-shard ingress and forward counts this second (indexed by
	// shard).
	ShardIngress  []uint64 `json:"shard_ingress,omitempty"`
	ShardForwards []uint64 `json:"shard_forwards,omitempty"`
}

// Report is the deterministic observability digest that lands in the
// fleet Summary.
type Report struct {
	SampleRate      float64 `json:"sample_rate"`
	TracedPublishes uint64  `json:"traced_publishes"`
	// Delivered counts traced publishes that reached broker ingress;
	// Lost is the remainder (dropped frames, dead sessions).
	Delivered    uint64 `json:"delivered"`
	Lost         uint64 `json:"lost"`
	SpanCount    int    `json:"span_count"`
	SpansDropped uint64 `json:"spans_dropped"`
	LinkDrops    uint64 `json:"link_drops"`

	// Fleet-wide publish→deliver latency (device publish start to broker
	// ingress, in milliseconds of simulated time).
	E2EP50Ms float64 `json:"e2e_p50_ms"`
	E2EP99Ms float64 `json:"e2e_p99_ms"`

	PerShard   []ShardObs   `json:"per_shard,omitempty"`
	PerProfile []ProfileObs `json:"per_profile,omitempty"`

	Health []HealthPoint `json:"health,omitempty"`
	SLO    *Verdict      `json:"slo,omitempty"`
}

// Input feeds Aggregate. Everything in it must already be deterministic
// (pure functions of the fleet config); Aggregate adds no entropy.
type Input struct {
	Hz         uint64
	Devices    int
	Seconds    int
	Shards     int
	SampleRate float64
	// Spans is the merged span list; Aggregate sorts it in place.
	Spans []Span
	// SpansDropped sums the tracer buffer overflows.
	SpansDropped uint64
	// Availability[t] is the fleet availability curve (devices with >=1
	// publish in second t).
	Availability []int
	// DropSeconds[t] sums link drops during second t.
	DropSeconds []uint32
	// CrashSeconds[t] sums flight-recorder reports stamped in second t.
	CrashSeconds []uint32
	// ProfileOf labels a device's profile for the per-profile breakdown
	// (nil: no breakdown).
	ProfileOf func(device int) string
}

// Aggregate reduces spans and health inputs to the Report. The result is
// a pure function of the input.
func Aggregate(in Input) *Report {
	SortSpans(in.Spans)
	r := &Report{
		SampleRate:   in.SampleRate,
		SpanCount:    len(in.Spans),
		SpansDropped: in.SpansDropped,
	}
	for _, n := range in.DropSeconds {
		r.LinkDrops += uint64(n)
	}

	// Pair each trace's publish span with its first ingress span.
	type pairing struct {
		publish Span
		ingress Span
		hasIn   bool
	}
	pairs := make(map[uint64]*pairing)
	order := make([]uint64, 0, 64)
	shardCounts := map[int]*ShardObs{}
	shardOf := func(i int) *ShardObs {
		so := shardCounts[i]
		if so == nil {
			so = &ShardObs{Shard: i}
			shardCounts[i] = so
		}
		return so
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

	seconds := in.Seconds
	grow := func(n int) {
		if n+1 > seconds {
			seconds = n + 1
		}
	}
	var all []uint64
	perShard := map[int][]uint64{}
	perProfile := map[string][]uint64{}
	perSecond := map[int][]uint64{}
	secs := map[int]*secCount{}
	secOf := func(cycle uint64) int {
		if in.Hz == 0 {
			return 0
		}
		return int(cycle / in.Hz)
	}
	// inflight[t] counts traces published in second t and ingressed in a
	// later second (or never) — summed as a suffix below.
	ingressSecs := map[int][][2]int{} // publish second -> (ingress second or -1)
	for _, tr := range order {
		p := pairs[tr]
		r.TracedPublishes++
		ps := secOf(p.publish.Start)
		grow(ps)
		sc := secs[ps]
		if sc == nil {
			sc = &secCount{}
			secs[ps] = sc
		}
		sc.published++
		if !p.hasIn {
			r.Lost++
			ingressSecs[ps] = append(ingressSecs[ps], [2]int{ps, -1})
			continue
		}
		r.Delivered++
		sc.delivered++
		lat := p.ingress.End - p.publish.Start
		all = append(all, lat)
		perShard[p.ingress.Shard] = append(perShard[p.ingress.Shard], lat)
		perSecond[ps] = append(perSecond[ps], lat)
		if in.ProfileOf != nil {
			name := in.ProfileOf(p.publish.Device)
			perProfile[name] = append(perProfile[name], lat)
		}
		is := secOf(p.ingress.End)
		grow(is)
		ingressSecs[ps] = append(ingressSecs[ps], [2]int{ps, is})
	}

	r.E2EP50Ms = CyclesToMs(Percentile(all, 0.50), in.Hz)
	r.E2EP99Ms = CyclesToMs(Percentile(all, 0.99), in.Hz)

	for shard, lats := range perShard {
		so := shardOf(shard)
		so.Samples = len(lats)
		so.E2EP50Ms = CyclesToMs(Percentile(lats, 0.50), in.Hz)
		so.E2EP99Ms = CyclesToMs(Percentile(lats, 0.99), in.Hz)
	}
	for _, so := range shardCounts {
		r.PerShard = append(r.PerShard, *so)
	}
	sort.Slice(r.PerShard, func(i, j int) bool { return r.PerShard[i].Shard < r.PerShard[j].Shard })
	for name, lats := range perProfile {
		r.PerProfile = append(r.PerProfile, ProfileObs{
			Name: name, Samples: len(lats),
			E2EP50Ms: CyclesToMs(Percentile(lats, 0.50), in.Hz),
			E2EP99Ms: CyclesToMs(Percentile(lats, 0.99), in.Hz),
		})
	}
	sort.Slice(r.PerProfile, func(i, j int) bool { return r.PerProfile[i].Name < r.PerProfile[j].Name })

	if len(in.Availability) > seconds {
		seconds = len(in.Availability)
	}
	if len(in.DropSeconds) > seconds {
		seconds = len(in.DropSeconds)
	}
	if len(in.CrashSeconds) > seconds {
		seconds = len(in.CrashSeconds)
	}
	r.Health = buildHealth(in, seconds, secs, perSecond, ingressSecs)
	return r
}

// secCount is one second's traced publish/delivery tally.
type secCount struct{ published, delivered uint64 }

// buildHealth assembles the per-second series.
func buildHealth(in Input, seconds int, secs map[int]*secCount,
	perSecond map[int][]uint64, ingressSecs map[int][][2]int) []HealthPoint {
	if seconds == 0 {
		return nil
	}
	shards := in.Shards
	health := make([]HealthPoint, seconds)
	for t := 0; t < seconds; t++ {
		h := &health[t]
		h.Second = t
		if t < len(in.Availability) {
			h.Available = in.Availability[t]
		}
		if in.Devices > 0 {
			h.Availability = float64(h.Available) / float64(in.Devices)
		}
		if sc := secs[t]; sc != nil {
			h.Published = sc.published
			h.Delivered = sc.delivered
		}
		if lats := perSecond[t]; len(lats) > 0 {
			h.DeliveryP50Ms = CyclesToMs(Percentile(lats, 0.50), in.Hz)
			h.DeliveryP99Ms = CyclesToMs(Percentile(lats, 0.99), in.Hz)
		}
		if t < len(in.DropSeconds) {
			h.Drops = uint64(in.DropSeconds[t])
		}
		if t < len(in.CrashSeconds) {
			h.Crashes = uint64(in.CrashSeconds[t])
		}
		if shards > 0 {
			h.ShardIngress = make([]uint64, shards)
			h.ShardForwards = make([]uint64, shards)
		}
	}
	// In-flight: a trace published in second p and ingressed in second i
	// contributes to every second in [p, i).
	for _, ends := range ingressSecs {
		for _, pi := range ends {
			p, i := pi[0], pi[1]
			if i < 0 {
				i = seconds
			}
			for t := p; t < i && t < seconds; t++ {
				health[t].InFlight++
			}
		}
	}
	// Exact per-second shard splits from the span list.
	if shards > 0 {
		for _, s := range in.Spans {
			t := 0
			if in.Hz > 0 {
				t = int(s.Start / in.Hz)
			}
			if t >= seconds || s.Shard < 0 || s.Shard >= shards {
				continue
			}
			switch s.Kind {
			case SpanIngress:
				health[t].ShardIngress[s.Shard]++
			case SpanForward:
				health[t].ShardForwards[s.Shard]++
			}
		}
	}
	return health
}

// TelemetrySnapshot synthesizes a cycle-less telemetry snapshot from the
// report: per-shard and per-profile publish→deliver latency histograms
// over E2EBuckets, merged into the fleet snapshot alongside the device
// registries so dashboards see the pipeline through the same namespace.
func TelemetrySnapshot(in Input) telemetry.Snapshot {
	var snap telemetry.Snapshot
	SortSpans(in.Spans)
	type pub struct {
		start  uint64
		device int
	}
	pubs := map[uint64]pub{}
	for _, s := range in.Spans {
		if s.Kind == SpanPublish {
			if _, ok := pubs[s.Trace]; !ok {
				pubs[s.Trace] = pub{start: s.Start, device: s.Device}
			}
		}
	}
	hists := map[string]*telemetry.HistogramSnapshot{}
	observe := func(comp string, lat uint64) {
		h := hists[comp]
		if h == nil {
			h = &telemetry.HistogramSnapshot{
				Compartment: comp, Metric: "publish_deliver_cycles",
				Bounds: append([]uint64(nil), E2EBuckets...),
				Counts: make([]uint64, len(E2EBuckets)+1),
				Min:    ^uint64(0),
			}
			hists[comp] = h
		}
		h.Count++
		h.Sum += lat
		if lat < h.Min {
			h.Min = lat
		}
		if lat > h.Max {
			h.Max = lat
		}
		i := sort.Search(len(h.Bounds), func(k int) bool { return lat <= h.Bounds[k] })
		h.Counts[i]++
	}
	seen := map[uint64]bool{}
	for _, s := range in.Spans {
		if s.Kind != SpanIngress || seen[s.Trace] {
			continue
		}
		p, ok := pubs[s.Trace]
		if !ok {
			continue
		}
		seen[s.Trace] = true
		lat := s.End - p.start
		observe(fmt.Sprintf("fleetobs/shard%d", s.Shard), lat)
		if in.ProfileOf != nil {
			observe("fleetobs/profile/"+in.ProfileOf(p.device), lat)
		}
	}
	for _, h := range hists {
		snap.Histograms = append(snap.Histograms, *h)
	}
	sort.Slice(snap.Histograms, func(i, j int) bool {
		return snap.Histograms[i].Compartment < snap.Histograms[j].Compartment
	})
	return snap
}

// Percentile returns the q-th quantile (0 < q <= 1, nearest-rank) of the
// samples, sorting a copy; 0 for no samples.
func Percentile(samples []uint64, q float64) uint64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]uint64, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// CyclesToMs converts simulated cycles at hz to milliseconds (0 for an
// unknown rate).
func CyclesToMs(cycles, hz uint64) float64 {
	if hz == 0 {
		return 0
	}
	return float64(cycles) * 1000 / float64(hz)
}
