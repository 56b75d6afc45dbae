package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// compare runs two bench binaries, built at the parent commit (-a) and at
// the change (-b), in alternating order for a number of pairs at the
// committed seed, so each side also checks its digests against
// expected.json. It judges every end-to-end metric on every workload:
// improved only when at least ten pairs ran, the change won at least
// nine tenths of them and the medians differ by more than the parent's
// quartile spread; worse when the median of the per-pair ratios b/a is
// past the metric's bound; unresolved when the spread of those ratios
// exceeds the bound. Both runs of a pair see the same host speed, so the
// ratios cancel the drift that moves both sides' own medians. The two
// sides' digests must match.
func compare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	binA := fs.String("a", "", "bench binary built at the parent commit")
	binB := fs.String("b", "", "bench binary built at the change")
	only := fs.String("workload", "", "compare only this workload (default: all five)")
	pairs := fs.Int("pairs", 10, "runs of each side, alternating which runs first")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *binA == "" || *binB == "" {
		return fmt.Errorf("compare needs -a and -b")
	}
	if *pairs < 1 {
		return fmt.Errorf("-pairs must be at least 1")
	}
	exp, err := loadExpectations()
	if err != nil {
		return err
	}
	ws := workloads
	if *only != "" {
		w, ok := workloadByName(*only)
		if !ok {
			return fmt.Errorf("unknown workload %q", *only)
		}
		ws = []workload{w}
	}
	sides := [2]string{*binA, *binB}
	// runs[side][workload] holds one metric map per pair.
	var runs [2]map[string][]map[string]float64
	var digests [2]map[string]map[string]bool
	for s := range sides {
		runs[s] = map[string][]map[string]float64{}
		digests[s] = map[string]map[string]bool{}
	}
	for i := 0; i < *pairs; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, w := range ws {
			for _, s := range order {
				metrics, dig, err := runSide(sides[s], w.Name, exp.Seed)
				if err != nil {
					return err
				}
				runs[s][w.Name] = append(runs[s][w.Name], metrics)
				if digests[s][w.Name] == nil {
					digests[s][w.Name] = map[string]bool{}
				}
				digests[s][w.Name][dig] = true
				fmt.Fprintf(os.Stderr, "pair %d %s %s: wall_s %.3f\n", i+1, "ab"[s:s+1], w.Name, metrics["wall_s"])
			}
		}
	}

	need := int(math.Ceil(0.9 * float64(*pairs)))
	fmt.Printf("%-15s %-20s %11s %11s %11s %11s %11s %11s %9s %6s  %s\n",
		"workload", "metric", "a median", "a p25", "a p75", "b median", "b p25", "b p75", "b/a", "b wins", "verdict")
	mismatch := false
	for _, w := range ws {
		for _, m := range endToEnd {
			var a, b, ratios []float64
			wins := 0
			for i := range runs[0][w.Name] {
				va, vb := runs[0][w.Name][i][m.Name], runs[1][w.Name][i][m.Name]
				a, b, ratios = append(a, va), append(b, vb), append(ratios, ratio(vb, va))
				if better(m, vb, va) {
					wins++
				}
			}
			qa, qb, qr := quartiles(a), quartiles(b), quartiles(ratios)
			fmt.Printf("%-15s %-20s %11.4f %11.4f %11.4f %11.4f %11.4f %11.4f %9.4f %3d/%-2d  %s\n",
				w.Name, m.Name, qa.Median, qa.P25, qa.P75, qb.Median, qb.P25, qb.P75, qr.Median, wins, len(a),
				verdict(m, qa, qb, qr, a, b, wins, need))
		}
		da, db := keys(digests[0][w.Name]), keys(digests[1][w.Name])
		if len(da) != 1 || len(db) != 1 || da[0] != db[0] {
			mismatch = true
			fmt.Printf("%-15s digests DIFFER: a %v, b %v\n", w.Name, da, db)
		} else {
			fmt.Printf("%-15s digests match: %s\n", w.Name, da[0])
		}
	}
	if mismatch {
		return fmt.Errorf("the two sides simulate different results")
	}
	return nil
}

// better reports whether x is better than y for the metric.
func better(m metric, x, y float64) bool {
	if m.Better == "higher" {
		return x > y
	}
	return x < y
}

// verdict applies the rules of the compare doc comment, in that order:
// improved, worse, unresolved, else unchanged. qr are the quartiles of
// the per-pair ratios b/a.
func verdict(m metric, qa, qb, qr quantiles, a, b []float64, wins, need int) string {
	if qa.Median == 0 || qr.Median == 0 {
		return "unresolved (zero median)"
	}
	worse := qr.Median - 1 // > 0: b is worse
	if m.Better == "higher" {
		worse = 1/qr.Median - 1
	}
	switch {
	case len(a) >= 10 && wins >= need && math.Abs(qb.Median-qa.Median) > qa.P75-qa.P25:
		return fmt.Sprintf("improved %.1f%%", -100*worse)
	case worse > m.Bound:
		return fmt.Sprintf("worse %.1f%% > bound %.0f%%", 100*worse, 100*m.Bound)
	case spread(qr) > m.Bound:
		if allBetter(m, b, a) {
			return "improved (every b run beats every a run)"
		}
		return "unresolved (spread above bound)"
	}
	return fmt.Sprintf("unchanged (%+.1f%%)", -100*worse)
}

func spread(q quantiles) float64 { return ratio(q.P75-q.P25, q.Median) }

// allBetter reports whether every value of xs beats every value of ys.
func allBetter(m metric, xs, ys []float64) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(m, x, y) {
				return false
			}
		}
	}
	return true
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// runSide runs one rep of one workload with a bench binary and returns
// its end-to-end metrics and the workload's digest.
func runSide(bin, workload string, seed uint64) (map[string]float64, string, error) {
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-reps", "1")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, "", fmt.Errorf("%s -workload %s: %w", bin, workload, err)
	}
	var res result
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		return nil, "", fmt.Errorf("%s -workload %s: decode result: %w", bin, workload, err)
	}
	metrics := map[string]float64{}
	for k, v := range res.Metrics {
		metrics[k] = v.Value
	}
	var dig string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 3 && f[0] == "digest" && f[1] == workload {
			dig = f[2]
		}
	}
	return metrics, dig, nil
}
