package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/ssta"
	"repro/internal/yield"
)

// workloadMetrics are the end-to-end metrics each workload must report
// under these names.
var workloadMetrics = map[string][]string{
	"table3":  {"stat_opt_s", "det_opt_s", "leak_q99_nw", "stat_gain_pct"},
	"signoff": {"mc_samples_per_s", "is_verify_s", "is_samples"},
	"service": {"job_p50_s", "job_tail_s", "jobs_per_s", "resubmit_p50_ms"},
}

// contract is the benchmark's last output line.
type contract struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, out string) contract {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var c contract
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		t.Fatalf("last line is not the contract JSON: %v\n%s", err, out)
	}
	return c
}

// TestTinyRunEmitsEveryMetric runs every workload at the tiny size,
// untraced and traced, and checks that each prints every metric it
// names with its unit and passes its own output checks.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	for _, wl := range []string{"table3", "signoff", "service"} {
		for _, traced := range []bool{false, true} {
			var stdout bytes.Buffer
			o := options{workload: wl, seed: 3, seconds: 1, trace: traced, out: t.TempDir(), size: tinySize}
			res, err := execute(context.Background(), o, &stdout)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s traced=%v: checks failed: %v", wl, traced, res.Failures)
			}
			c := lastLine(t, stdout.String())
			if !c.Correct || c.Attempted < 1 || c.Failed != 0 {
				t.Errorf("%s traced=%v: contract line %+v", wl, traced, c)
			}
			want := map[string]string{}
			if traced {
				for _, ls := range layerSpecs {
					want[ls.name] = ls.unit
				}
			} else {
				for _, m := range res.EndToEnd {
					want[m.Name] = m.Unit
				}
				for _, n := range gateNames {
					if _, ok := want[n]; !ok {
						t.Errorf("%s: end-to-end metric %s missing from the result", wl, n)
					}
				}
			}
			if len(c.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl, traced, len(c.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := c.Metrics[name]
				if !ok || m.Value == nil || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want a value in %s", wl, traced, name, m, unit)
				}
			}
			if !traced {
				for _, m := range res.EndToEnd {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", wl, m.Name, m.Value)
					}
				}
			}
			printed := stdout.String()
			for _, name := range append(workloadMetrics[wl], "failed_frac", "setup_s", "alloc_mb") {
				if !strings.Contains(printed, name) {
					t.Errorf("%s traced=%v: report does not print %s", wl, traced, name)
				}
			}
			if traced {
				if res.SpansFile == "" || len(res.SpanStats) == 0 {
					t.Errorf("%s: traced run wrote no spans", wl)
				} else if _, err := os.Stat(res.SpansFile); err != nil {
					t.Errorf("%s: spans file: %v", wl, err)
				}
				if len(res.Traced) == 0 {
					t.Errorf("%s: traced run reports no traced end-to-end metrics", wl)
				}
			}
		}
	}
}

// TestCheckerRejectsCorruptedResult feeds the table3 output check a
// statistical result whose yield was flipped below η, and the signoff
// agreement check two estimates far apart.
func TestCheckerRejectsCorruptedResult(t *testing.T) {
	w := &table3{seed: 5, sz: tinySize}
	ctx := context.Background()
	if err := w.setup(ctx); err != nil {
		t.Fatal(err)
	}
	dz := w.designs[0]
	dd, ds := dz.base.Clone(), dz.base.Clone()
	dr, err := opt.DeterministicCtx(ctx, dd, dz.o)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := opt.StatisticalCtx(ctx, ds, dz.o)
	if err != nil {
		t.Fatal(err)
	}
	newRun := func() *run { return &run{cur: &passData{Samples: map[string][]float64{}}} }

	r := newRun()
	if _, err := checkTable3(dz, dd, dr, ds, sr, r); err != nil || r.failed != 0 {
		t.Fatalf("honest result rejected: err %v, failures %v", err, r.failures)
	}

	bad := *sr
	bad.YieldAtTmax = dz.o.YieldTarget - 0.05
	r = newRun()
	if _, err := checkTable3(dz, dd, dr, ds, &bad, r); err != nil {
		t.Fatal(err)
	}
	if r.failed != 2 {
		t.Errorf("yield flipped below η: %d checks failed, want 2 (SSTA mismatch and below η): %v", r.failed, r.failures)
	}

	badDet := *dr
	badDet.Feasible = false
	r = newRun()
	if _, err := checkTable3(dz, dd, &badDet, ds, sr, r); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Errorf("infeasible deterministic result: %d checks failed, want 1", r.failed)
	}

	plain := yield.ISEstimate{FailProb: 1e-3, StdErr: 1e-4}
	if !agree(plain, yield.ISEstimate{FailProb: 1.2e-3, StdErr: 1e-4}) {
		t.Error("estimates 1.4 combined SE apart judged to disagree")
	}
	if agree(plain, yield.ISEstimate{FailProb: 2e-3, StdErr: 1e-4}) {
		t.Error("estimates 7 combined SE apart judged to agree")
	}
}

// TestCounterWindowPerWorkload checks that obs.Default deltas are read
// per workload: a second window cannot open while one is open, and a
// window sees exactly the work done inside it.
func TestCounterWindowPerWorkload(t *testing.T) {
	w := &table3{seed: 1, sz: tinySize}
	if err := w.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	d := w.designs[0].base

	win, err := openWindow()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openWindow(); !errors.Is(err, errWindowOpen) {
		t.Fatalf("second concurrent window: err %v, want errWindowOpen", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ssta.Analyze(d); err != nil {
			t.Fatal(err)
		}
	}
	got := win.close().sum("statleak_ssta_full_analyses_total")
	if got != 3 {
		t.Errorf("window saw %v full SSTA analyses, want 3", got)
	}

	if _, err := ssta.Analyze(d); err != nil { // outside any window
		t.Fatal(err)
	}
	win2, err := openWindow()
	if err != nil {
		t.Fatalf("window after close: %v", err)
	}
	if got := win2.close().sum("statleak_ssta_full_analyses_total"); got != 0 {
		t.Errorf("fresh window saw %v analyses done before it opened", got)
	}
	if v := obs.Default.Values()["statleak_ssta_full_analyses_total"]; v < 4 {
		t.Errorf("process counter %v, want >= 4", v)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the acceptance rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 4.75},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if p, v, ok := tail(make([]float64, 100)); !ok || p != 90 || v != 0 {
		t.Errorf("tail of 100 samples = p%v %v %v, want p90", p, v, ok)
	}
	if _, _, ok := tail(make([]float64, 39)); ok {
		t.Error("39 samples support no percentile with 10 beyond it")
	}
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json names the
// metrics the program emits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(gateNames, ",") {
		t.Errorf("BENCHMARK.json end_to_end %v, program emits %v", e2e, gateNames)
	}
	if len(bj.PerLayer) != len(layerSpecs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program emits %d", len(bj.PerLayer), len(layerSpecs))
	}
	for i, m := range bj.PerLayer {
		if m.Name != layerSpecs[i].name || m.Unit != layerSpecs[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program emits %s %s", i, m.Name, m.Unit, layerSpecs[i].name, layerSpecs[i].unit)
		}
	}
	for _, wl := range bj.Workloads {
		if _, err := newWorkload(wl.Name, 1, tinySize); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", wl.Name, err)
		}
	}
}

// TestVerdict covers the compare mode's verdicts.
func TestVerdict(t *testing.T) {
	mk := func(vals ...float64) *series {
		s := &series{bySeed: map[int64]float64{}}
		for i, v := range vals {
			s.vals = append(s.vals, v)
			s.bySeed[int64(i)] = v
		}
		return s
	}
	old := mk(10, 10.1, 9.9, 10, 10.05)
	cases := []struct {
		better string
		bound  float64
		new    *series
		want   string
	}{
		{"lower", 0.1, mk(10, 10.1, 9.9, 10, 10.02), "no change"},
		{"lower", 0.1, mk(12, 12.1, 11.9, 12, 12.05), "worse"},
		{"lower", 0.1, mk(8, 8.1, 7.9, 8, 8.05), "better"},
		{"higher", 0.1, mk(8, 8.1, 7.9, 8, 8.05), "worse"},
		{"lower", 0.1, mk(5, 15, 9, 11, 10), "unresolved"},
		{"lower", 0, mk(10, 10.1, 9.9, 10, 10.05), "unchanged"},
		{"lower", 0, mk(11, 11, 11, 11, 11), "worse"},
	}
	for _, c := range cases {
		if got := verdict(c.better, c.bound, old, c.new); !strings.HasPrefix(got, c.want) {
			t.Errorf("verdict(%s, %v, %v) = %q, want %q…", c.better, c.bound, c.new.vals, got, c.want)
		}
	}
}

// TestUndisturbedDropsStolenPasses checks that passes run under heavy
// hypervisor steal are left out of the metrics unless every pass was.
func TestUndisturbedDropsStolenPasses(t *testing.T) {
	calm := &passData{Wall: 4}
	stolen := &passData{Wall: 8, Disturbed: true}
	if got := undisturbed([]*passData{calm, stolen, calm}); len(got) != 2 || got[0] != calm || got[1] != calm {
		t.Errorf("undisturbed kept %d passes, want the 2 calm ones", len(got))
	}
	if got := undisturbed([]*passData{stolen, stolen}); len(got) != 2 {
		t.Errorf("all disturbed: kept %d passes, want all 2", len(got))
	}
}

// TestScaleToReference checks the reference-machine scaling: times on
// a machine as fast as the reference are unchanged, and times on a
// machine half as fast are halved.
func TestScaleToReference(t *testing.T) {
	if s := scale(calRefSeconds, calRefSeconds); s != 1 {
		t.Errorf("scale at reference speed = %v, want 1", s)
	}
	if s := scale(2*calRefSeconds, 2*calRefSeconds); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("scale at half speed = %v, want 0.5", s)
	}
	if c := calibrate(); c <= 0 {
		t.Errorf("calibrate() = %v, want > 0", c)
	}
}
