// Command bench measures what the cheriot-go simulator costs to run on the
// host, end to end and layer by layer, over five seeded workloads, and
// checks that every simulated result is what it should be.
//
// Run it from the repository root, which builds it into .bench_build/:
//
//	bash bench/run.sh -seed 1              # all workloads, 3 reps each
//	bash bench/run.sh -seed 1 -trace 1     # plus probes and a traced rep
//	bash bench/run.sh -probes              # the layer probe table alone
//	bash bench/run.sh -workload campaign -seconds 20
//	bench compare -a old-bench -b new-bench -pairs 10
//
// Every rep runs in a fresh child process of this binary, so heap state,
// page faults and peak RSS are what a cheriot-fleet user pays. The last
// line of standard output is a JSON object: correct, attempted, failed,
// and the metrics by name with their units. See README.md.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compare(os.Args[2:])
	} else {
		err = run(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a failed correctness check after the result line
// is printed, so the command exits non-zero.
var errIncorrect = errors.New("correctness check failed")

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Uint64("seed", 1, "workload seed: the fleets' Config.Seed; picks the campaign's cell seeds")
	seconds := fs.Int("seconds", 0, "keep starting reps until this many seconds have passed (0: exactly -reps)")
	reps := fs.Int("reps", 3, "reps per workload; the minimum when -seconds is set")
	trace := fs.Int("trace", 0, "1: also run the probe table and one traced rep per workload, and report per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write every span to spans.json in this directory")
	probesOnly := fs.Bool("probes", false, "run only the layer probe table")
	child := fs.String("child", "", "internal: run one rep of this workload, or \"probes\", and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *traceOut != "" && *trace != 1 {
		return fmt.Errorf("-trace-out needs -trace 1")
	}
	if *child != "" {
		return runChild(*child, *seed, *trace == 1)
	}
	if *reps < 1 {
		return fmt.Errorf("-reps must be at least 1")
	}
	exp, err := loadExpectations()
	if err != nil {
		return err
	}
	if *probesOnly {
		return runProbeTable(exp)
	}
	ws := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		ws = []workload{w}
	}
	b := &bench{
		workloads: ws, seed: *seed, reps: *reps,
		budget: time.Duration(*seconds) * time.Second, trace: *trace == 1,
	}
	if err := b.runAll(); err != nil {
		return err
	}
	rs, pg := b.evaluate(exp)
	printReport(os.Stdout, b, exp, rs, pg)
	if *traceOut != "" {
		if err := writeSpans(*traceOut, b.spans()); err != nil {
			return err
		}
	}
	res := resultLine(rs, pg, b.trace, len(ws) > 1)
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runChild is the child side: one rep, printed as one JSON line.
func runChild(name string, seed uint64, traced bool) error {
	var out any
	if name == "probes" {
		log := newSpanLog()
		res, err := runProbes(1, log)
		if err != nil {
			return err
		}
		out = probeRun{Probes: res, Spans: log.spans}
	} else {
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		r, err := measure(w, seed, w.Full, traced)
		if err != nil {
			return err
		}
		out = r
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// probeRun is what a probes child reports.
type probeRun struct {
	Probes []probeResult `json:"probes"`
	Spans  []span        `json:"spans"`
}

// measure runs one rep of w in this process and adds the process-level
// costs: CPU time and peak RSS of the process so far, heap allocated by
// the rep, and, when traced, the CPU-profile split and runtime deltas.
func measure(w workload, seed uint64, sz size, traced bool) (*rep, error) {
	log := newSpanLog()
	var cpuProfile bytes.Buffer
	before := readRuntime()
	if traced {
		if err := pprof.StartCPUProfile(&cpuProfile); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	root := log.begin(w.Name)
	r, err := w.run(seed, sz, traced, log)
	log.end(root)
	if traced {
		pprof.StopCPUProfile()
	}
	after := readRuntime()
	if err != nil {
		return nil, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	r.Workload, r.Traced = w.Name, traced
	r.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	if r.PeakRSSMiB, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	r.AllocMiB = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	r.Spans = log.spans
	if traced {
		shares, err := cpuShares(cpuProfile.Bytes())
		if err != nil {
			return nil, err
		}
		if r.Layer == nil {
			r.Layer = map[string]float64{}
		}
		for k, v := range shares {
			r.Layer[k] = v
		}
		goMetrics(before, after, r.Layer)
		if calls := r.Counts["switcher.compartment_calls"]; calls > 0 {
			r.Layer["host.cpu_ns_per_call"] = r.CPUS * 1e9 / calls
		}
	}
	return r, nil
}

// peakRSSMiB is this process's peak resident set, VmHWM. getrusage's
// Maxrss will not do: a child starts it from the resident set of the
// parent it was forked from, which holds the reference table.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kib, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kib / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// spawn runs a child process of this binary and decodes the JSON line it
// prints into out. The child dies with the parent.
func spawn(out any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	if err := json.Unmarshal(lastLine(b), out); err != nil {
		return fmt.Errorf("child %s: decode output: %w", strings.Join(args, " "), err)
	}
	return nil
}

// lastLine is the last non-empty line of b.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// expectations are the committed references: the digest of every
// workload at the committed seed, the probes' simulated cycles per
// operation, and the reference work's time at the speed end-to-end times
// are reported at (hostref.go).
type expectations struct {
	Seed      uint64             `json:"seed"`
	Digests   map[string]string  `json:"digests"`
	SimCycles map[string]float64 `json:"simcycles"`
	RefLoopS  float64            `json:"ref_loop_s"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpectations() (*expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("decode expected.json: %w", err)
	}
	if e.RefLoopS <= 0 {
		return nil, fmt.Errorf("expected.json: ref_loop_s = %g, want > 0", e.RefLoopS)
	}
	return &e, nil
}
