package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/opt"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/stats"
	"repro/internal/tech"
)

// probeTarget is the workload design the layer probes run on. Probes
// never mutate d; they work on clones.
type probeTarget struct {
	d       *core.Design
	tmax    float64
	gen     bench.Config
	netlist string // .bench text; written from d's circuit when empty
}

// probe is one direct, timed call into a layer's public kernel.
type probe struct {
	name string // metric name without the .p1/.pn suffix
	unit string // ms, us, ns or s
	// prepare builds the probe's state and returns the call to time.
	prepare func(ctx context.Context, pt probeTarget) (func() error, error)
}

var unitScale = map[string]float64{"s": 1, "ms": 1e3, "us": 1e6, "ns": 1e9}

// probes are the per-layer kernels the traced run times on each
// workload's own design.
var probes = []probe{
	{"engine.scoreall_ms", "ms", func(ctx context.Context, pt probeTarget) (func() error, error) {
		e, moves, err := probeEngine(pt)
		if err != nil {
			return nil, err
		}
		return func() error { _, err := e.ScoreAllCtx(ctx, moves); return err }, nil
	}},
	{"engine.apply_revert_us", "us", func(ctx context.Context, pt probeTarget) (func() error, error) {
		e, moves, err := probeEngine(pt)
		if err != nil {
			return nil, err
		}
		i := 0
		return func() error {
			m := moves[i%len(moves)]
			i++
			if err := e.Apply(m); err != nil {
				return err
			}
			// Read both objectives, so the incremental caches update.
			dq, err := e.DelayQuantile(0.99)
			if err != nil {
				return err
			}
			lq, err := e.LeakQuantile(0.99)
			if err != nil {
				return err
			}
			sink += dq + lq
			return e.Revert(m)
		}, nil
	}},
	{"ssta.analyze_ms", "ms", func(ctx context.Context, pt probeTarget) (func() error, error) {
		return func() error { _, err := ssta.Analyze(pt.d); return err }, nil
	}},
	{"ssta.update_us", "us", func(ctx context.Context, pt probeTarget) (func() error, error) {
		d := pt.d.Clone()
		inc, err := ssta.NewIncremental(d)
		if err != nil {
			return nil, err
		}
		id, sizes, i := midGate(d), d.Lib.Sizes, 0
		return func() error {
			i++
			if err := d.SetSize(id, sizes[i%2]); err != nil {
				return err
			}
			inc.Update(id)
			return nil
		}, nil
	}},
	{"stats.clark_max_ns", "ns", func(ctx context.Context, pt probeTarget) (func() error, error) {
		an, err := ssta.Analyze(pt.d)
		if err != nil {
			return nil, err
		}
		type args struct{ m1, s1, m2, s2, rho float64 }
		var as []args
		outs := pt.d.Circuit.Outputs()
		for k := 1; k < len(outs); k++ {
			a, b := an.Arrival(outs[k-1]), an.Arrival(outs[k])
			as = append(as, args{a.Mean, a.Sigma(), b.Mean, b.Sigma(), ssta.Correlation(a, b)})
		}
		if len(as) == 0 {
			return nil, fmt.Errorf("design has one output: no arrival pairs")
		}
		i := 0
		return func() error {
			a := as[i%len(as)]
			i++
			sink += stats.ClarkMax(a.m1, a.s1, a.m2, a.s2, a.rho).Mean
			return nil
		}, nil
	}},
	{"leakage.accum_update_us", "us", func(ctx context.Context, pt probeTarget) (func() error, error) {
		acc, err := leakage.NewAccumulator(pt.d)
		if err != nil {
			return nil, err
		}
		id := midGate(pt.d)
		return func() error {
			acc.Update(id)
			sink += acc.Quantile(0.99)
			return nil
		}, nil
	}},
	{"leakage.exact_ms", "ms", func(ctx context.Context, pt probeTarget) (func() error, error) {
		return func() error { _, err := leakage.Exact(pt.d); return err }, nil
	}},
	{"sta.analyze_ms", "ms", func(ctx context.Context, pt probeTarget) (func() error, error) {
		return func() error { _, err := sta.Analyze(pt.d, pt.tmax); return err }, nil
	}},
	{"bench.generate_ms", "ms", func(ctx context.Context, pt probeTarget) (func() error, error) {
		return func() error { _, err := bench.Generate(pt.gen); return err }, nil
	}},
	{"bench.parse_ms", "ms", func(ctx context.Context, pt probeTarget) (func() error, error) {
		text := pt.netlist
		if text == "" {
			var sb strings.Builder
			if err := bench.Write(&sb, pt.d.Circuit); err != nil {
				return nil, err
			}
			text = sb.String()
		}
		return func() error { _, err := bench.ParseString(pt.gen.Name, text); return err }, nil
	}},
	{"opt.mindelay_s", "s", func(ctx context.Context, pt probeTarget) (func() error, error) {
		return func() error { _, err := opt.MinimumDelayCtx(ctx, pt.d.Clone()); return err }, nil
	}},
}

// sink keeps probed results alive so the compiler cannot drop the
// calls.
var sink float64

// probeEngine builds an engine over a clone of the target with one
// Vth flip per sampled gate as its move set.
func probeEngine(pt probeTarget) (*engine.Engine, []engine.Move, error) {
	d := pt.d.Clone()
	e, err := engine.New(d, engine.Config{TmaxPs: pt.tmax})
	if err != nil {
		return nil, nil, err
	}
	gates := gateIDs(d)
	step := max(1, len(gates)/64)
	var moves []engine.Move
	for k := 0; k < len(gates); k += step {
		id := gates[k]
		to := tech.HighVth
		if d.Vth[id] == tech.HighVth {
			to = tech.LowVth
		}
		sw, err := engine.NewVthSwap(d, id, to)
		if err != nil {
			return nil, nil, err
		}
		moves = append(moves, sw)
	}
	return e, moves, nil
}

// gateIDs lists the logic gates (not primary inputs) of d.
func gateIDs(d *core.Design) []int {
	isIn := make(map[int]bool)
	for _, id := range d.Circuit.Inputs() {
		isIn[id] = true
	}
	var ids []int
	for id := range d.Circuit.Gates() {
		if !isIn[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// midGate is a gate halfway through the netlist, so its fanout cone is
// a typical one rather than a primary output's empty one.
func midGate(d *core.Design) int {
	ids := gateIDs(d)
	return ids[len(ids)/2]
}

// probeSamples is how many timed samples each probe takes; the median
// per-call time is reported.
const probeSamples = 5

// minSample is the least time one timed sample covers: fast kernels
// are called in batches until a batch takes this long.
const minSample = 20 * time.Millisecond

// runProbes times every probe at GOMAXPROCS=1 (suffix .p1) and at
// nproc (suffix .pn).
func runProbes(ctx context.Context, pt probeTarget, r *run) []metric {
	var out []metric
	for _, procs := range []int{1, runtime.NumCPU()} {
		suffix := ".pn"
		if procs == 1 {
			suffix = ".p1"
		}
		prev := runtime.GOMAXPROCS(procs)
		for _, p := range probes {
			v, n, err := timeProbe(ctx, p, pt)
			m := metric{Name: p.name + suffix, Unit: p.unit, Better: "lower",
				Note: fmt.Sprintf("median of %d samples of %d calls, GOMAXPROCS=%d", probeSamples, n, procs)}
			if !r.op(err, "probe "+p.name+suffix) {
				m.Note = "probe failed: " + err.Error()
			}
			m.Value = v * unitScale[p.unit]
			out = append(out, m)
		}
		runtime.GOMAXPROCS(prev)
	}
	return out
}

// timeProbe returns the median seconds per call of p and the batch
// size it used.
func timeProbe(ctx context.Context, p probe, pt probeTarget) (float64, int, error) {
	call, err := p.prepare(ctx, pt)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err := call(); err != nil { // warm-up, and the batch-size estimate
		return 0, 0, err
	}
	one := time.Since(t0)
	batch := 1
	if one < minSample {
		batch = int(minSample/max(one, time.Nanosecond)) + 1
	}
	var per []float64
	for s := 0; s < probeSamples; s++ {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			if err := call(); err != nil {
				return 0, batch, err
			}
		}
		per = append(per, time.Since(t0).Seconds()/float64(batch))
	}
	return median(per), batch, nil
}
