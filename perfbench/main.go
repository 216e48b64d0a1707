// Command perfbench is the repository's benchmark. It generates seeded
// inputs, drives one workload through the public entry points of opt,
// montecarlo/yield and the server+cluster HTTP API, checks the
// outputs, and prints every metric by name, unit and direction. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics of BENCHMARK.json (-trace 0) or its
// per-layer metrics (-trace 1). A full record — environment, every
// pass, every metric, and in a traced run the spans — goes to a result
// file under -out. "perfbench compare OLD NEW" compares two sets of
// result files. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many times a run builds its workload; setup_s is the
// median, and the last build is the one measured.
const setupReps = 3

// metric is one named measurement. Better is "lower" or "higher";
// Bound, for end-to-end metrics, is the share of the parent's median by
// which it may worsen (0 for exact metrics: any change is a change).
type metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
	Note   string  `json:"note,omitempty"`
}

// passData is what one pass over a workload's fixed work list measured.
type passData struct {
	Traced  bool    `json:"traced"`
	Wall    float64 `json:"wall_s"`
	CPU     float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	Steal   float64 `json:"steal_s"` // CPU time the hypervisor took from this machine
	// Disturbed marks a pass whose steal exceeded stealLimit of the
	// machine's CPU time: it measured the host more than the program.
	Disturbed bool `json:"disturbed"`
	// Scale converts the pass's times to reference-machine time; see
	// calibrate.go.
	Scale float64 `json:"scale"`
	// Samples are the pass's series by name. A series whose name ends
	// in "_s" is a time, and is scaled to reference-machine time once
	// the pass ends.
	Samples map[string][]float64 `json:"samples"`
}

// run is the state a workload's pass reports into. Its methods are
// safe for concurrent use (the service clients share one run).
type run struct {
	tr       *tracer // nil on an untraced pass
	passSpan int
	pass     int

	mu        sync.Mutex
	cur       *passData
	attempted int
	failed    int
	failures  []string
}

// sample records one value of the named series in the current pass.
func (r *run) sample(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cur.Samples[name] = append(r.cur.Samples[name], v)
}

// op counts one attempted operation; a non-nil err counts it failed.
func (r *run) op(err error, what string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("pass %d: %s: %v", r.pass, what, err))
		return false
	}
	return true
}

// check counts a failed output check; ok checks count nothing.
func (r *run) check(ok bool, format string, args ...any) bool {
	if ok {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf("pass %d: check failed: ", r.pass)+fmt.Sprintf(format, args...))
	return false
}

// workload is one benchmark workload. setup builds its inputs from the
// seed it was made with (and may be called again after close); pass
// runs the fixed work list once; report and layers turn the passes'
// samples into the workload's end-to-end and per-layer metrics.
type workload interface {
	setup(ctx context.Context) error
	pass(ctx context.Context, r *run) error
	report(ps []*passData) []metric
	layers(ps []*passData) []metric
	probe() probeTarget
	close()
}

func newWorkload(name string, seed int64, sz sizeSpec) (workload, error) {
	switch name {
	case "table3":
		return &table3{seed: seed, sz: sz}, nil
	case "signoff":
		return &signoff{seed: seed, sz: sz}, nil
	case "service":
		return &service{seed: seed, sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want table3, signoff or service)", name)
}

// result is the full record of one run, written as JSON to the result
// file.
type result struct {
	Env        environment `json:"env"`
	Correct    bool        `json:"correct"`
	Attempted  int         `json:"attempted"`
	Failed     int         `json:"failed"`
	Failures   []string    `json:"failures,omitempty"`
	Setups     []float64   `json:"setup_s"`
	SetupScale []float64   `json:"setup_scale"`
	Passes     []*passData `json:"passes"`
	EndToEnd   []metric    `json:"end_to_end"`            // BENCHMARK.json metrics, untraced passes
	Workload   []metric    `json:"workload_metrics"`      // the workload's own metrics, untraced passes
	Traced     []metric    `json:"traced_end_to_end"`     // both lists again, from traced passes
	PerLayer   []metric    `json:"per_layer,omitempty"`   // BENCHMARK.json per-layer metrics
	LayerExtra []metric    `json:"layer_extra,omitempty"` // per-layer times of layers not every workload runs
	SpanStats  []spanStat  `json:"span_stats,omitempty"`
	SpansFile  string      `json:"spans_file,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	size     sizeSpec
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: table3, signoff or service")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; every input is generated from it")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the measured passes run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: spans, per-layer counters and probes")
	fs.StringVar(&o.out, "out", filepath.Join("perfbench", "results"), "directory for the result file ('' = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	o.size = fullSize
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be >= 1, got %d\n", o.seconds)
		return 2
	}
	res, err := execute(context.Background(), o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		for _, f := range res.Failures {
			fmt.Fprintln(stderr, "perfbench:", f)
		}
		return 1
	}
	return 0
}

// execute runs one workload and prints the report, ending with the
// contract's JSON line. An error means no result could be produced.
func execute(ctx context.Context, o options, stdout io.Writer) (*result, error) {
	w, err := newWorkload(o.workload, o.seed, o.size)
	if err != nil {
		return nil, err
	}
	defer w.close()
	res := &result{Env: collectEnv(o.workload, o.seed, o.seconds, o.trace, o.size.name)}

	cal := calibrate()
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.Setups = append(res.Setups, time.Since(t0).Seconds())
		next := calibrate()
		res.SetupScale = append(res.SetupScale, scale(cal, next))
		cal = next
	}

	var tr *tracer
	var win *counterWindow
	if o.trace {
		tr = newTracer()
		if win, err = openWindow(); err != nil {
			return nil, err
		}
	}
	root := tr.begin(0, "workload."+o.workload, "")
	r := &run{}
	minPasses := 1
	if o.trace {
		minPasses = 2 // at least one untraced and one traced pass
	}
	// Passes run while the next one, estimated by the median pass so
	// far, still ends inside the -seconds budget.
	dur := float64(o.seconds)
	start := time.Now()
	var walls []float64
	for i := 0; i < minPasses || time.Since(start).Seconds()+median(walls) <= dur; i++ {
		traced := o.trace && i%2 == 1
		pd := &passData{Traced: traced, Samples: make(map[string][]float64)}
		r.pass, r.cur, r.tr, r.passSpan = i, pd, nil, 0
		if traced {
			r.tr = tr
			r.passSpan = tr.begin(root, "pass", fmt.Sprintf("pass-%d", i))
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s0, c0, t0 := stealTime(), cpuTime(), time.Now()
		err := w.pass(ctx, r)
		pd.Wall, pd.CPU, pd.Steal = time.Since(t0).Seconds(), cpuTime()-c0, stealTime()-s0
		pd.Disturbed = pd.Steal > stealLimit*pd.Wall*float64(runtime.NumCPU())
		runtime.ReadMemStats(&m1)
		pd.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		tr.end(r.passSpan)
		next := calibrate()
		pd.Scale, cal = scale(cal, next), next
		for name, xs := range pd.Samples {
			if strings.HasSuffix(name, "_s") {
				for k := range xs {
					xs[k] *= pd.Scale
				}
			}
		}
		res.Passes = append(res.Passes, pd)
		walls = append(walls, pd.Wall)
		if err != nil {
			r.op(err, "pass")
			break
		}
	}
	tr.end(root)
	var deltas counters
	if win != nil {
		deltas = win.close()
	}

	plain, traced := splitPasses(res.Passes)
	plain, traced = undisturbed(plain), undisturbed(traced)
	res.EndToEnd = gateMetrics(res, plain)
	res.Workload = w.report(plain)
	if o.trace {
		res.Traced = append(gateMetrics(res, traced), w.report(traced)...)
		spans := tr.snapshot()
		res.SpanStats = summarize(spans)
		ls := append(counterLayers(deltas, len(res.Passes)), w.layers(traced)...)
		ls = append(ls, phaseLayers(res.SpanStats, len(traced))...)
		ls = append(ls, runProbes(ctx, w.probe(), r)...)
		ls = append(ls, overhead(plain, traced))
		res.PerLayer, res.LayerExtra = pickLayers(ls)
		if o.out != "" {
			res.SpansFile = filepath.Join(o.out, fmt.Sprintf("%s-seed%d.spans.json", o.workload, o.seed))
			if err := writeJSON(res.SpansFile, spans); err != nil {
				return nil, err
			}
		}
	}
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	res.Correct = r.failed == 0 && r.attempted > 0
	if o.out != "" {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, boolInt(o.trace))
		if err := writeJSON(filepath.Join(o.out, name), res); err != nil {
			return nil, err
		}
	}
	printReport(stdout, res)
	line := contractLine(res, o.trace)
	if _, err := fmt.Fprintln(stdout, line); err != nil {
		return nil, err
	}
	return res, nil
}

// stealLimit is the share of the machine's CPU time a hypervisor may
// take during a pass before the pass counts as disturbed.
const stealLimit = 0.05

// undisturbed returns the passes that ran without heavy steal, or all
// of ps when every pass was disturbed: on a shared host another guest
// can slow a pass by half, and that measures the host, not the program.
func undisturbed(ps []*passData) []*passData {
	var out []*passData
	for _, p := range ps {
		if !p.Disturbed {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return ps
	}
	return out
}

func splitPasses(ps []*passData) (plain, traced []*passData) {
	for _, p := range ps {
		if p.Traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	return plain, traced
}

// gateNames are the end-to-end metrics of BENCHMARK.json, in order;
// every workload reports every one of them.
var gateNames = []string{"setup_s", "pass_s", "cpu_s", "alloc_mb"}

// gateMetrics computes the BENCHMARK.json end-to-end metrics from the
// run's set-ups and the given passes. Times are scaled to the
// reference machine (calibrate.go); the notes give the raw medians.
func gateMetrics(res *result, ps []*passData) []metric {
	var setup, wall, cpu, alloc, rawWall []float64
	for i, s := range res.Setups {
		setup = append(setup, s*res.SetupScale[i])
	}
	for _, p := range ps {
		wall = append(wall, p.Wall*p.Scale)
		cpu = append(cpu, p.CPU*p.Scale)
		alloc = append(alloc, p.AllocMB)
		rawWall = append(rawWall, p.Wall)
	}
	return []metric{
		{Name: "setup_s", Value: median(setup), Unit: "s", Better: "lower",
			Note: fmt.Sprintf("median of %d set-ups, reference-machine time; raw %.4g s", len(setup), median(res.Setups))},
		{Name: "pass_s", Value: median(wall), Unit: "s", Better: "lower",
			Note: fmt.Sprintf("median wall time of %d passes, reference-machine time; raw %.4g s", len(wall), median(rawWall))},
		{Name: "cpu_s", Value: median(cpu), Unit: "s", Better: "lower",
			Note: "median process CPU time (user+sys) per pass, reference-machine time"},
		{Name: "alloc_mb", Value: median(alloc), Unit: "MB", Better: "lower",
			Note: "median runtime.MemStats.TotalAlloc delta per pass"},
	}
}

// overhead compares the traced passes' median wall time with the
// untraced ones'.
func overhead(plain, traced []*passData) metric {
	var a, b []float64
	for _, p := range plain {
		a = append(a, p.Wall)
	}
	for _, p := range traced {
		b = append(b, p.Wall)
	}
	v := 0.0
	if m := median(a); m > 0 {
		v = 100 * (median(b) - m) / m
	}
	return metric{Name: "trace.overhead_pct", Value: v, Unit: "%", Better: "lower",
		Note: fmt.Sprintf("traced vs untraced median pass wall time (%d vs %d passes)", len(b), len(a))}
}

func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractLine renders the benchmark contract's JSON line: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one.
func contractLine(res *result, traced bool) string {
	ms := res.EndToEnd
	if traced {
		ms = res.PerLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]val, len(ms))}
	for _, m := range ms {
		out.Metrics[m.Name] = val{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only finite floats, strings and ints: Marshal cannot fail
		// unless a metric is NaN or Inf, which is a bug in a metric.
		panic("perfbench: contract line: " + err.Error())
	}
	return string(b)
}

func printReport(w io.Writer, res *result) {
	e := res.Env
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v size=%s  GOMAXPROCS=%d nproc=%d %s  cpu=%q commit=%s\n",
		e.Workload, e.Seed, e.Traced, e.Size, e.GOMAXPROCS, e.NumCPU, e.GoVersion, e.CPUModel, e.Commit)
	for i, p := range res.Passes {
		fmt.Fprintf(w, "  pass %d%s: wall %.3f s, cpu %.3f s, alloc %.1f MB, steal %.2f s, scale %.3f%s\n",
			i, map[bool]string{true: " (traced)", false: ""}[p.Traced], p.Wall, p.CPU, p.AllocMB, p.Steal, p.Scale,
			map[bool]string{true: " (disturbed)", false: ""}[p.Disturbed])
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintln(w, title)
		for _, m := range ms {
			dir := ""
			if m.Better != "" {
				dir = m.Better + " is better"
			}
			fmt.Fprintf(w, "  %-28s %14.6g %-6s %-17s %s\n", m.Name, m.Value, m.Unit, dir, m.Note)
		}
	}
	section("end-to-end (BENCHMARK.json), untraced passes:", res.EndToEnd)
	section("workload end-to-end metrics, untraced passes:", append(res.Workload, failedFrac(res)))
	section("end-to-end metrics of the traced passes:", res.Traced)
	section("per-layer (BENCHMARK.json):", res.PerLayer)
	section("per-layer times of layers this workload may not run:", res.LayerExtra)
	if len(res.SpanStats) > 0 {
		fmt.Fprintln(w, "spans (count, total s, self s):")
		for _, s := range res.SpanStats {
			fmt.Fprintf(w, "  %-34s %6d %10.4f %10.4f\n", s.Name, s.Count, s.Total, s.Self)
		}
	}
	fmt.Fprintf(w, "checks: %d operations attempted, %d failed\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
}

// failedFrac is failed operations plus failed checks over operations
// attempted.
func failedFrac(res *result) metric {
	v := 0.0
	if res.Attempted > 0 {
		v = float64(res.Failed) / float64(res.Attempted)
	}
	return metric{Name: "failed_frac", Value: v, Unit: "ratio", Better: "lower", Bound: 0,
		Note: fmt.Sprintf("%d failed of %d attempted", res.Failed, res.Attempted)}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// perPass applies agg to each pass's samples of name and returns the
// per-pass values (passes without samples are skipped).
func perPass(ps []*passData, name string, agg func([]float64) float64) []float64 {
	var out []float64
	for _, p := range ps {
		if xs := p.Samples[name]; len(xs) > 0 {
			out = append(out, agg(xs))
		}
	}
	return out
}

// all concatenates the samples of name over every pass.
func all(ps []*passData, name string) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.Samples[name]...)
	}
	return out
}

// first returns the first sample of name, 0 if none.
func first(ps []*passData, name string) float64 {
	for _, p := range ps {
		if xs := p.Samples[name]; len(xs) > 0 {
			return xs[0]
		}
	}
	return 0
}
