package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/leakage"
	"repro/internal/opt"
	"repro/internal/ssta"
	"repro/internal/sta"
)

// table3 is the paper's headline flow: per seeded design, the
// deterministic and the statistical optimizer at Tmax = 1.3·Dmin, and
// the statistical optimizer's 99th-percentile leakage gain.
type table3 struct {
	seed int64
	sz   sizeSpec

	designs []t3design
	// first records each design's pass-0 outcome, which every later
	// pass must reproduce exactly.
	first []t3outcome
}

type t3design struct {
	name string
	gen  bench.Config
	base *core.Design
	o    opt.Options
}

type t3outcome struct {
	statQ, detQ         float64
	statMoves, detMoves int
}

func (w *table3) setup(ctx context.Context) error {
	w.designs, w.first = nil, nil
	for i, shape := range w.sz.table3 {
		cfg, c, err := generate(shape, w.seed, i)
		if err != nil {
			return err
		}
		d, err := newDesign(c)
		if err != nil {
			return err
		}
		dmin, err := opt.MinimumDelayCtx(ctx, d.Clone())
		if err != nil {
			return fmt.Errorf("%s: minimum delay: %w", cfg.Name, err)
		}
		w.designs = append(w.designs, t3design{name: cfg.Name, gen: cfg, base: d, o: opt.DefaultOptions(1.3 * dmin)})
	}
	return nil
}

func (w *table3) close() {}

func (w *table3) pass(ctx context.Context, r *run) error {
	var detSum, statSum float64
	var detOK, statOK bool = true, true
	for i, dz := range w.designs {
		// Deterministic baseline.
		dd := dz.base.Clone()
		sp := r.tr.begin(r.passSpan, "opt.DeterministicCtx", dz.name)
		t0 := time.Now()
		o, endPhases := withPhases(dz.o, r.tr, sp, dz.name)
		dr, err := opt.DeterministicCtx(ctx, dd, o)
		el := time.Since(t0).Seconds()
		endPhases()
		r.tr.end(sp)
		if !r.op(err, dz.name+": DeterministicCtx") {
			detOK = false
			continue
		}
		r.sample("det_opt_s", el)
		r.sample("opt.moves", float64(dr.Moves))

		// Statistical optimizer.
		ds := dz.base.Clone()
		sp = r.tr.begin(r.passSpan, "opt.StatisticalCtx", dz.name)
		t0 = time.Now()
		o, endPhases = withPhases(dz.o, r.tr, sp, dz.name)
		sr, err := opt.StatisticalCtx(ctx, ds, o)
		el = time.Since(t0).Seconds()
		endPhases()
		r.tr.end(sp)
		if !r.op(err, dz.name+": StatisticalCtx") {
			statOK = false
			continue
		}
		r.sample("stat_opt_s", el)
		r.sample("opt.moves", float64(sr.Moves))

		out, err := checkTable3(dz, dd, dr, ds, sr, r)
		if !r.op(err, dz.name+": output check") {
			continue
		}
		detSum += out.detQ
		statSum += out.statQ
		if len(w.first) <= i {
			w.first = append(w.first, out)
		} else {
			f := w.first[i]
			r.check(out.statQ == f.statQ && out.statMoves == f.statMoves,
				"%s: statistical run not repeatable: q99 %v nW / %d moves, pass 0 had %v nW / %d moves",
				dz.name, out.statQ, out.statMoves, f.statQ, f.statMoves)
			r.check(out.detQ == f.detQ && out.detMoves == f.detMoves,
				"%s: deterministic run not repeatable: q99 %v nW / %d moves, pass 0 had %v nW / %d moves",
				dz.name, out.detQ, out.detMoves, f.detQ, f.detMoves)
		}
	}
	if detOK && statOK {
		r.sample("leak_q99_nw", statSum)
		r.sample("det_leak_q99_nw", detSum)
	}
	return nil
}

// checkTable3 checks one design's two optimized results: an
// independent SSTA reproduces the statistical design's reported yield,
// which meets η, and the deterministic design meets its corner.
func checkTable3(dz t3design, dd *core.Design, dr *opt.Result, ds *core.Design, sr *opt.StatResult, r *run) (t3outcome, error) {
	o := dz.o
	an, err := ssta.Analyze(ds)
	if err != nil {
		return t3outcome{}, err
	}
	y := an.Yield(o.TmaxPs)
	r.check(math.Abs(y-sr.YieldAtTmax) <= 1e-9,
		"%s: independent SSTA yield %.12f differs from StatResult.YieldAtTmax %.12f", dz.name, y, sr.YieldAtTmax)
	r.check(sr.Feasible && sr.YieldAtTmax >= o.YieldTarget,
		"%s: statistical design yield %.6f below η=%g (feasible=%v)", dz.name, sr.YieldAtTmax, o.YieldTarget, sr.Feasible)
	corner, err := sta.AnalyzeCorner(dd, o.TmaxPs, o.CornerSigma)
	if err != nil {
		return t3outcome{}, err
	}
	r.check(dr.Feasible && corner.MaxDelay <= o.TmaxPs+1e-9,
		"%s: deterministic design misses its %gσ corner: %.3f ps > Tmax %.3f ps (feasible=%v)",
		dz.name, o.CornerSigma, corner.MaxDelay, o.TmaxPs, dr.Feasible)
	la, err := leakage.Exact(dd)
	if err != nil {
		return t3outcome{}, err
	}
	return t3outcome{statQ: sr.LeakPctNW, detQ: la.Quantile(o.LeakPercentile),
		statMoves: sr.Moves, detMoves: dr.Moves}, nil
}

// withPhases returns o with a Progress callback that records the
// optimizer's phases as child spans of parent, and the function that
// closes the last phase span once the call returns. On an untraced
// pass o is returned unchanged.
func withPhases(o opt.Options, tr *tracer, parent int, req string) (opt.Options, func()) {
	if tr == nil {
		return o, func() {}
	}
	cur, curID := "", 0
	o.Progress = func(p opt.Progress) {
		if p.Phase == cur {
			return
		}
		tr.end(curID)
		cur = p.Phase
		curID = tr.begin(parent, "opt.phase."+p.Phase, req)
	}
	return o, func() { tr.end(curID) }
}

func (w *table3) report(ps []*passData) []metric {
	stat := perPass(ps, "stat_opt_s", mean)
	det := perPass(ps, "det_opt_s", mean)
	statQ := first(ps, "leak_q99_nw")
	detQ := first(ps, "det_leak_q99_nw")
	gain := 0.0
	if detQ > 0 {
		gain = 100 * (detQ - statQ) / detQ
	}
	return []metric{
		{Name: "stat_opt_s", Value: median(stat), Unit: "s", Better: "lower", Bound: 0.10,
			Note: "median over passes of the mean StatisticalCtx wall time per design; " + tailNote(all(ps, "stat_opt_s"), "s")},
		{Name: "det_opt_s", Value: median(det), Unit: "s", Better: "lower", Bound: 0.10,
			Note: "the same for DeterministicCtx; " + tailNote(all(ps, "det_opt_s"), "s")},
		{Name: "leak_q99_nw", Value: statQ, Unit: "nW", Better: "lower",
			Note: fmt.Sprintf("sum over %d statistical designs of LeakPctNW (exact)", len(w.designs))},
		{Name: "stat_gain_pct", Value: gain, Unit: "%", Better: "higher",
			Note: fmt.Sprintf("(det − stat) q99 leakage / det; det sum %.6g nW (exact)", detQ)},
	}
}

func (w *table3) layers(ps []*passData) []metric {
	n := float64(len(ps))
	if n == 0 {
		return nil
	}
	return []metric{
		{Name: "opt.moves", Value: sum(all(ps, "opt.moves")) / n, Unit: "count"},
	}
}

func (w *table3) probe() probeTarget {
	// The largest design of the set: the one the optimizer spends
	// most of the pass on.
	big := w.designs[len(w.designs)-1]
	return probeTarget{d: big.base, tmax: big.o.TmaxPs, gen: big.gen}
}
