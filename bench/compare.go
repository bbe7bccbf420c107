package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareLogs compares two result logs, A (the parent) and B (the
// change), made by alternating runs: the i-th untraced run of a workload
// in A is paired with the i-th in B. For every workload and end-to-end
// metric it prints each side's median and quartiles, the share of pairs
// B wins, and a verdict against the metric's bound:
//
//   - unresolved: either side's quartile spread is wider than the bound,
//     and not every run of one side beats every run of the other;
//   - regression: B's median is worse than A's by more than the bound;
//   - gain: B wins at least nine tenths of the pairs and the medians
//     differ by more than A's quartile spread;
//   - same: none of these.
//
// It returns an error when any metric regressed.
func compareLogs(w io.Writer, specPath, aPath, bPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readLog(aPath)
	if err != nil {
		return err
	}
	b, err := readLog(bPath)
	if err != nil {
		return err
	}
	var names []string
	for wl := range a {
		if _, ok := b[wl]; ok {
			names = append(names, wl)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("%s and %s share no workload with untraced runs", aPath, bPath)
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\tA median [q1, q3]\tB median [q1, q3]\tchange\tB wins\tspread A/B\tbound\tverdict")
	regressions := 0
	for _, wl := range names {
		ra, rb := a[wl], b[wl]
		pairs := min(len(ra), len(rb))
		for _, m := range spec.EndToEnd {
			va, vb := values(ra[:pairs], m.Name), values(rb[:pairs], m.Name)
			if len(va) != pairs || len(vb) != pairs {
				fmt.Fprintf(tw, "%s\t%s\t%d\tmissing in some runs\n", wl, m.Name, pairs)
				continue
			}
			lower := m.Better == "lower"
			better := func(x, y float64) bool { return lower && x < y || !lower && x > y }
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/math.Abs(a2), (b3-b1)/math.Abs(b2)
			worse := (b2 - a2) / math.Abs(a2)
			if !lower {
				worse = -worse
			}
			wins := 0
			for i := range va {
				if better(vb[i], va[i]) {
					wins++
				}
			}
			verdict := "same"
			switch {
			case math.Max(spreadA, spreadB) > m.Bound:
				verdict = "unresolved"
				if dominates(vb, va, better) {
					verdict = "gain"
				} else if dominates(va, vb, better) {
					verdict = "regression"
				}
			case worse > m.Bound:
				verdict = "regression"
			case float64(wins) >= 0.9*float64(pairs) && math.Abs(b2-a2) > a3-a1 && better(b2, a2):
				verdict = "gain"
			}
			if verdict == "regression" {
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%.1f%%/%.1f%%\t%.0f%%\t%s\n",
				wl, m.Name, pairs, a2, a1, a3, b2, b1, b3, 100*(b2-a2)/math.Abs(a2),
				wins, pairs, 100*spreadA, 100*spreadB, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressions)
	}
	return nil
}

// dominates reports whether every x beats every y.
func dominates(xs, ys []float64, better func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// readLog reads a result log and groups its untraced, correct runs by
// workload, in file order.
func readLog(path string) (map[string][]logRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]logRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r logRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace || !r.Correct {
			continue
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// values returns metric name's value in each record that has it.
func values(rs []logRecord, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
