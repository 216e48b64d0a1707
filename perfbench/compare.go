package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of untraced result files, workload by
// workload: per end-to-end metric each side's median and quartiles,
// the ratio new/old with its base, and a verdict against the metric's
// bound. It exits 1 when any metric regressed beyond its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "BENCHMARK.json holding the end-to-end bounds")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] OLD NEW  (result directories or files)")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	bounds, err := readBounds(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	old, err := loadResults(fs.Arg(0))
	if err == nil && len(old) == 0 {
		err = fmt.Errorf("no untraced results in %s", fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	cur, err := loadResults(fs.Arg(1))
	if err == nil && len(cur) == 0 {
		err = fmt.Errorf("no untraced results in %s", fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	if compare(stdout, bounds, old, cur) {
		return 1
	}
	return 0
}

// readBounds returns the end-to-end bounds of BENCHMARK.json by name.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64, len(bf.EndToEnd))
	for _, m := range bf.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// loadResults reads the untraced result files at path (a file or a
// directory of them), grouped by workload.
func loadResults(path string) (map[string][]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string][]*result)
	for _, f := range files {
		if strings.HasSuffix(f, ".spans.json") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Env.Traced || r.Env.Workload == "" {
			continue
		}
		out[r.Env.Workload] = append(out[r.Env.Workload], &r)
	}
	return out, nil
}

// series gathers one metric across runs, keyed by seed, with its
// definition taken from the first run that has it.
type series struct {
	def    metric
	bySeed map[int64]float64
	vals   []float64
}

func collectSeries(rs []*result) (map[string]*series, []string) {
	out := make(map[string]*series)
	var order []string
	for _, r := range rs {
		for _, m := range append(append([]metric(nil), r.EndToEnd...), r.Workload...) {
			s := out[m.Name]
			if s == nil {
				s = &series{def: m, bySeed: make(map[int64]float64)}
				out[m.Name] = s
				order = append(order, m.Name)
			}
			s.vals = append(s.vals, m.Value)
			s.bySeed[r.Env.Seed] = m.Value
		}
	}
	return out, order
}

// compare prints the comparison and reports whether any metric
// regressed beyond its bound.
func compare(w io.Writer, bounds map[string]float64, old, cur map[string][]*result) bool {
	regressed := false
	for _, wl := range sortedKeys(cur) {
		olds, cs := old[wl], cur[wl]
		if len(olds) == 0 {
			fmt.Fprintf(w, "workload %s: no old results\n", wl)
			continue
		}
		fmt.Fprintf(w, "workload %s: old %d runs (%s), new %d runs (%s)\n",
			wl, len(olds), envLine(olds[0].Env), len(cs), envLine(cs[0].Env))
		fmt.Fprintf(w, "  %-18s %-5s %-30s %-30s %-22s %s\n", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "new/old (base)", "verdict")
		oldS, _ := collectSeries(olds)
		newS, order := collectSeries(cs)
		for _, name := range order {
			o, n := oldS[name], newS[name]
			if o == nil {
				continue
			}
			bound, ok := bounds[name]
			if !ok {
				bound = n.def.Bound
			}
			v := verdict(n.def.Better, bound, o, n)
			if strings.HasPrefix(v, "worse") {
				regressed = true
			}
			oq1, oq3 := quartiles(o.vals)
			nq1, nq3 := quartiles(n.vals)
			om, nm := median(o.vals), median(n.vals)
			ratio := "n/a"
			if om != 0 {
				ratio = fmt.Sprintf("%.4f (base %.4g)", nm/om, om)
			}
			fmt.Fprintf(w, "  %-18s %-5s %-30s %-30s %-22s %s\n", name, n.def.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", om, oq1, oq3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", nm, nq1, nq3), ratio, v)
		}
	}
	return regressed
}

func envLine(e environment) string {
	return fmt.Sprintf("commit %s, GOMAXPROCS=%d, nproc=%d, %s", e.Commit, e.GOMAXPROCS, e.NumCPU, e.GoVersion)
}

// verdict judges new against old for a metric whose better direction
// and bound are given:
//
//   - an exact metric (bound 0) is "unchanged" or "changed";
//   - when the spread of either side's runs exceeds the bound, the
//     result is "unresolved" unless every new run beats (or trails)
//     every old run;
//   - a median worse by more than the bound is a regression;
//   - a median better by more than the old runs' spread, winning at
//     least nine in ten same-seed pairs, is a gain;
//   - anything else is "no change within bound".
func verdict(better string, bound float64, o, n *series) string {
	om, nm := median(o.vals), median(n.vals)
	if better == "" {
		return "reported, not judged"
	}
	sign := 1.0 // positive = new is worse
	if better == "higher" {
		sign = -1
	}
	if bound == 0 {
		switch {
		case nm == om:
			return "unchanged (exact)"
		case sign*(nm-om) > 0:
			return "worse (exact metric changed)"
		default:
			return "better (exact metric changed)"
		}
	}
	if om == 0 {
		return "unresolved (old median is 0)"
	}
	worse := sign * (nm - om) / math.Abs(om)
	sp := math.Max(spread(o.vals), spread(n.vals))
	if sp > bound {
		// Compare the sides in "badness" (sign·value): higher is worse.
		bad := func(xs []float64) []float64 {
			out := make([]float64, len(xs))
			for i, x := range xs {
				out[i] = sign * x
			}
			return out
		}
		ob, nb := bad(o.vals), bad(n.vals)
		switch {
		case minOf(nb) > maxOf(ob):
			return fmt.Sprintf("worse (every run; spread %.3f > bound %.2f)", sp, bound)
		case maxOf(nb) < minOf(ob):
			return fmt.Sprintf("better (every run; spread %.3f > bound %.2f)", sp, bound)
		}
		return fmt.Sprintf("unresolved (spread %.3f > bound %.2f)", sp, bound)
	}
	if worse > bound {
		return fmt.Sprintf("worse by %.1f%% (bound %.0f%%)", 100*worse, 100*bound)
	}
	wins, pairs := 0, 0
	for seed, nv := range n.bySeed {
		if ov, ok := o.bySeed[seed]; ok {
			pairs++
			if sign*(nv-ov) < 0 {
				wins++
			}
		}
	}
	if -worse > spread(o.vals) && pairs > 0 && float64(wins) >= 0.9*float64(pairs) {
		return fmt.Sprintf("better by %.1f%% (%d/%d seed pairs)", -100*worse, wins, pairs)
	}
	return fmt.Sprintf("no change within bound (%+.1f%%)", 100*worse)
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}
