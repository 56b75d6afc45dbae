package fleetobs

import (
	"slices"
	"sort"
	"strconv"

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

// e2eMetric names every publish→deliver latency histogram.
const e2eMetric = "publish_deliver_cycles"

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
	// happened yet.
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
	// Spans is the merged span list. Aggregate sorts it in place with
	// SortSpans, which costs one comparison per span when the caller has
	// already sorted it, as the fleet has.
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

// pair is one traced publish matched with its first broker ingress:
// what the report and the latency histograms read of the two spans.
type pair struct {
	start  uint64 // the publish span's Start
	end    uint64 // the ingress span's End, when in
	device int32  // the publishing device
	shard  int32  // the ingress shard, when in
	in     bool   // the publish reached a broker shard
}

// pairSpans matches each trace's first publish span with its first
// ingress span, in trace order, skipping traces with no publish span.
// spans must be sorted by SortSpans, which puts a trace's publish spans
// first in its run (SpanPublish is 0) and its ingress spans right after
// them, so one pass finds every pair.
func pairSpans(spans []Span) []pair {
	n := 0
	for i := range spans {
		if spans[i].Kind == SpanPublish && (i == 0 || spans[i-1].Trace != spans[i].Trace) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	pairs := make([]pair, 0, n)
	for i := 0; i < len(spans); {
		run := i + 1
		for run < len(spans) && spans[run].Trace == spans[i].Trace {
			run++
		}
		if pub := &spans[i]; pub.Kind == SpanPublish {
			p := pair{start: pub.Start, device: int32(pub.Device)}
			for _, s := range spans[i+1 : run] {
				if s.Kind == SpanIngress {
					p.end, p.shard, p.in = s.End, int32(s.Shard), true
					break
				}
				if s.Kind > SpanIngress {
					break
				}
			}
			pairs = append(pairs, p)
		}
		i = run
	}
	return pairs
}

// latencies is one group's publish→deliver latency samples: a counting
// pass sizes the group and a second pass fills it.
type latencies struct {
	n    int
	lats []uint64
}

func (l *latencies) add(lat uint64) {
	if l.lats == nil {
		l.lats = make([]uint64, 0, l.n)
	}
	l.lats = append(l.lats, lat)
}

// shardGroup and profileGroup are one shard's and one profile's slices
// of the report, with their latency histograms.
type shardGroup struct {
	ShardObs
	lat  latencies
	hist *telemetry.Histogram
}

type profileGroup struct {
	name string
	lat  latencies
	hist *telemetry.Histogram
}

// second is one simulated second's traced publishes, the latencies of
// those delivered, and the in-flight count's step into it: +1 for each
// trace published in it and ingressed later or never, -1 for each such
// trace ingressed in it.
type second struct {
	published uint64
	lat       latencies
	flight    int64
}

// Aggregate reduces spans and health inputs to the Report and to a
// cycle-less telemetry snapshot: per-shard and per-profile
// publish→deliver latency histograms over E2EBuckets, which the fleet
// merges alongside the device registries so dashboards see the pipeline
// through the same namespace. It pairs the sorted spans in one pass,
// counts every group's samples over the pairs, then fills each group to
// its exact size, so what it allocates beside the pairs grows with the
// shards, profiles and seconds, not with the traces. Both results are a
// pure function of the input.
func Aggregate(in Input) (*Report, telemetry.Snapshot) {
	SortSpans(in.Spans)
	r := &Report{
		SampleRate:   in.SampleRate,
		SpanCount:    len(in.Spans),
		SpansDropped: in.SpansDropped,
	}
	for _, n := range in.DropSeconds {
		r.LinkDrops += uint64(n)
	}

	shards := map[int]*shardGroup{}
	shardOf := func(i int) *shardGroup {
		g := shards[i]
		if g == nil {
			g = &shardGroup{ShardObs: ShardObs{Shard: i}}
			shards[i] = g
		}
		return g
	}
	for _, s := range in.Spans {
		switch s.Kind {
		case SpanIngress:
			shardOf(s.Shard).Ingress++
		case SpanForward:
			shardOf(s.Shard).Forwards++
		case SpanDeliver:
			if s.Shard >= 0 {
				shardOf(s.Shard).Delivers++
			}
		}
	}
	profiles := map[string]*profileGroup{}
	profileOf := func(device int32) *profileGroup {
		if in.ProfileOf == nil {
			return nil
		}
		name := in.ProfileOf(int(device))
		g := profiles[name]
		if g == nil {
			g = &profileGroup{name: name}
			profiles[name] = g
		}
		return g
	}
	secOf := func(cycle uint64) int {
		if in.Hz == 0 {
			return 0
		}
		return int(cycle / in.Hz)
	}
	secs := make([]second, max(in.Seconds, len(in.Availability), len(in.DropSeconds), len(in.CrashSeconds)))
	grow := func(t int) {
		for len(secs) <= t {
			secs = append(secs, second{})
		}
	}

	var all latencies
	pairs := pairSpans(in.Spans)
	for _, p := range pairs {
		ps := secOf(p.start)
		grow(ps)
		secs[ps].published++
		if !p.in {
			secs[ps].flight++ // a lost trace stays in flight to the end
			continue
		}
		is := secOf(p.end)
		grow(is)
		if is > ps {
			secs[ps].flight++
			secs[is].flight--
		}
		secs[ps].lat.n++
		all.n++
		shardOf(int(p.shard)).lat.n++
		if g := profileOf(p.device); g != nil {
			g.lat.n++
		}
	}
	r.TracedPublishes = uint64(len(pairs))
	r.Delivered = uint64(all.n)
	r.Lost = r.TracedPublishes - r.Delivered

	for _, p := range pairs {
		if !p.in {
			continue
		}
		lat := p.end - p.start
		all.add(lat)
		secs[secOf(p.start)].lat.add(lat)
		sg := shardOf(int(p.shard))
		sg.lat.add(lat)
		if sg.hist == nil {
			sg.hist = telemetry.NewHistogram("fleetobs/shard"+strconv.Itoa(int(p.shard)), e2eMetric, E2EBuckets)
		}
		sg.hist.Observe(lat)
		if g := profileOf(p.device); g != nil {
			g.lat.add(lat)
			if g.hist == nil {
				g.hist = telemetry.NewHistogram("fleetobs/profile/"+g.name, e2eMetric, E2EBuckets)
			}
			g.hist.Observe(lat)
		}
	}

	var hists []telemetry.Histogram
	r.E2EP50Ms, r.E2EP99Ms = Quantiles(all.lats, in.Hz)
	for _, g := range shards {
		g.Samples = len(g.lat.lats)
		g.E2EP50Ms, g.E2EP99Ms = Quantiles(g.lat.lats, in.Hz)
		r.PerShard = append(r.PerShard, g.ShardObs)
		if g.hist != nil {
			hists = append(hists, *g.hist)
		}
	}
	sort.Slice(r.PerShard, func(i, j int) bool { return r.PerShard[i].Shard < r.PerShard[j].Shard })
	for _, g := range profiles {
		po := ProfileObs{Name: g.name, Samples: len(g.lat.lats)}
		po.E2EP50Ms, po.E2EP99Ms = Quantiles(g.lat.lats, in.Hz)
		r.PerProfile = append(r.PerProfile, po)
		hists = append(hists, *g.hist)
	}
	sort.Slice(r.PerProfile, func(i, j int) bool { return r.PerProfile[i].Name < r.PerProfile[j].Name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].Compartment < hists[j].Compartment })

	r.Health = buildHealth(in, secs)
	return r, telemetry.Snapshot{Histograms: hists}
}

// buildHealth assembles the per-second series (nil for no seconds).
func buildHealth(in Input, secs []second) []HealthPoint {
	seconds := len(secs)
	if seconds == 0 {
		return nil
	}
	shards := in.Shards
	health := make([]HealthPoint, seconds)
	var inFlight int64
	for t := range health {
		h, sc := &health[t], &secs[t]
		h.Second = t
		if t < len(in.Availability) {
			h.Available = in.Availability[t]
		}
		if in.Devices > 0 {
			h.Availability = float64(h.Available) / float64(in.Devices)
		}
		h.Published = sc.published
		h.Delivered = uint64(sc.lat.n)
		// A trace published in second p and ingressed in second i is in
		// flight in every second of [p, i).
		inFlight += sc.flight
		h.InFlight = uint64(inFlight)
		if sc.lat.n > 0 {
			h.DeliveryP50Ms, h.DeliveryP99Ms = Quantiles(sc.lat.lats, in.Hz)
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

// Quantiles sorts samples in place and returns their p50 and p99
// (nearest-rank) in milliseconds at hz; 0 for no samples.
func Quantiles(samples []uint64, hz uint64) (p50, p99 float64) {
	slices.Sort(samples)
	return CyclesToMs(percentile(samples, 0.50), hz), CyclesToMs(percentile(samples, 0.99), hz)
}

// percentile returns the q-th quantile (0 < q <= 1, nearest-rank) of
// samples sorted in ascending order; 0 for no samples.
func percentile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
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
