package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"strings"
	"time"
)

// span is one call the benchmark made into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: a root span
	Name   string  `json:"name"`
	Rep    string  `json:"rep"` // filled in by the parent: workload#rep
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// spanLog keeps spans in memory; the parent writes them out once, at
// exit, when asked to with -trace-out.
type spanLog struct {
	t0    time.Time
	open  []int
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() float64 { return float64(time.Since(l.t0).Nanoseconds()) / 1e3 }

// begin opens a span as a child of the innermost open one.
func (l *spanLog) begin(name string) int {
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: l.now()})
	l.open = append(l.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (l *spanLog) end(id int) {
	l.spans[id-1].End = l.now()
	l.open = l.open[:len(l.open)-1]
}

// runtimeSample is the runtime/metrics state the traced metrics diff.
type runtimeSample struct {
	gcCPU, totalCPU, mutexWait float64
	allocBytes, allocObjects   uint64
	schedLat                   *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		mutexWait:    s[2].Value.Float64(),
		allocBytes:   s[3].Value.Uint64(),
		allocObjects: s[4].Value.Uint64(),
		schedLat:     s[5].Value.Float64Histogram(),
	}
}

// goMetrics turns two runtime samples into the go.* traced metrics:
// GC CPU share, how long runnable goroutines waited for a thread (p50,
// p99), mutex wait, and objects allocated.
func goMetrics(before, after runtimeSample, m map[string]float64) {
	if d := after.totalCPU - before.totalCPU; d > 0 {
		m["go.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / d
	}
	m["go.sched_latency_p50_us"] = histQuantile(before.schedLat, after.schedLat, 0.50) * 1e6
	m["go.sched_latency_p99_us"] = histQuantile(before.schedLat, after.schedLat, 0.99) * 1e6
	m["go.mutex_wait_ms"] = (after.mutexWait - before.mutexWait) * 1e3
	m["go.alloc_objects"] = float64(after.allocObjects - before.allocObjects)
}

// histQuantile is the q-quantile of the samples a histogram gained
// between two reads, as the upper edge of the bucket it falls in.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range after.Counts {
		cum += after.Counts[i] - before.Counts[i]
		if cum >= want {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return 0
}

// cpuShares charges every sample of a gzipped pprof CPU profile to one
// bucket and returns each bucket's share of the profile's CPU time. A
// sample goes to the innermost frame in an internal/<pkg> package, so
// runtime and standard-library helpers count toward the layer that
// called them; failing that to the benchmark's own code; failing that to
// the garbage collector or, for everything else, the scheduler. The
// buckets sum to 1, or the map is empty when a rep was too short for a
// single sample. runtime.chan_share is a separate view: samples whose
// innermost run of runtime frames includes a channel, park or ready
// function, the cost of a goroutine hand-off.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("parse CPU profile: %w", err)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		frames := p.frames(s.locs)
		shares[chargeTo(frames, known)] += s.value
		if handoff(frames) {
			shares["runtime.chan_share"] += s.value
		}
		total += s.value
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

const (
	internalPrefix = "github.com/cheriot-go/cheriot/internal/"
	benchPrefix    = "github.com/cheriot-go/cheriot/bench."
)

func chargeTo(frames []string, known map[string]bool) string {
	for _, f := range frames {
		if i := strings.Index(f, internalPrefix); i >= 0 {
			pkg := f[i+len(internalPrefix):]
			if j := strings.IndexAny(pkg, "./"); j >= 0 {
				pkg = pkg[:j]
			}
			if known[pkg] {
				return "cpu." + pkg + "_share"
			}
			return "cpu.other_share"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, benchPrefix) {
			return "cpu.bench_share"
		}
	}
	for _, f := range frames {
		for _, gc := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
			"runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
			if strings.HasPrefix(f, gc) {
				return "runtime.gc_share"
			}
		}
	}
	return "runtime.sched_share"
}

func handoff(frames []string) bool {
	for _, f := range frames {
		if !strings.HasPrefix(f, "runtime.") {
			return false
		}
		switch f {
		case "runtime.chansend", "runtime.chansend1", "runtime.chanrecv", "runtime.chanrecv1",
			"runtime.chanrecv2", "runtime.selectgo", "runtime.gopark", "runtime.park_m",
			"runtime.goready", "runtime.ready", "runtime.send", "runtime.recv":
			return true
		}
	}
	return false
}

// profile is the part of a pprof profile.proto the shares need.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locs  []uint64 // leaf first
	value float64  // the last sample value: CPU nanoseconds
}

// frames resolves a sample's location ids to function names, leaf first,
// inlined frames expanded.
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fn := range p.locations[l] {
			if i := p.functions[fn]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// parseProfile decodes the profile.proto fields cpuShares reads:
// Profile.sample (2), .location (4), .function (5), .string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, v, data)
				case 2:
					return appendPacked(&vals, v, data)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = float64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5:
			var id uint64
			name := int64(-1)
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (data).
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
