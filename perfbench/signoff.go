package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/ssta"
	"repro/internal/stats"
	"repro/internal/yield"
)

// signoff measures yield estimation on optimized designs, where the
// tail matters: per design an SSTA pass, plain Monte Carlo at a fixed
// sample count, and adaptive importance sampling at Tmax = the SSTA
// 99.9% quantile. The optimizer runs only in setup.
type signoff struct {
	seed int64
	sz   sizeSpec

	designs []soDesign
	// first records each design's pass-0 estimates, which every later
	// pass must reproduce bit for bit.
	first []soOutcome
}

type soDesign struct {
	name     string
	gen      bench.Config
	d        *core.Design // optimized by opt.StatisticalCtx in setup
	tmax     float64      // SSTA 99.9% quantile of the optimized design
	plainCfg montecarlo.Config
	isCfg    montecarlo.Config
}

type soOutcome struct {
	plainHash uint64
	isSamples int
	isPf      float64
}

func (w *signoff) setup(ctx context.Context) error {
	w.designs, w.first = nil, nil
	for i, shape := range w.sz.signoff {
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
		sr, err := opt.StatisticalCtx(ctx, d, opt.DefaultOptions(1.3*dmin))
		if err != nil {
			return fmt.Errorf("%s: statistical optimization: %w", cfg.Name, err)
		}
		if !sr.Feasible {
			return fmt.Errorf("%s: statistical optimization ended infeasible (yield %.4f)", cfg.Name, sr.YieldAtTmax)
		}
		an, err := ssta.Analyze(d)
		if err != nil {
			return err
		}
		w.designs = append(w.designs, soDesign{
			name:     cfg.Name,
			gen:      cfg,
			d:        d,
			tmax:     an.Quantile(0.999),
			plainCfg: montecarlo.Config{Samples: w.sz.signoffMC, Seed: stats.StreamSeed(w.seed, 1000+2*i)},
			isCfg:    montecarlo.Config{Seed: stats.StreamSeed(w.seed, 1001+2*i)},
		})
	}
	return nil
}

func (w *signoff) close() {}

func (w *signoff) pass(ctx context.Context, r *run) error {
	var isSamples float64
	for i, dz := range w.designs {
		sp := r.tr.begin(r.passSpan, "ssta.Analyze", dz.name)
		t0 := time.Now()
		an, err := ssta.Analyze(dz.d)
		el := time.Since(t0).Seconds()
		r.tr.end(sp)
		if !r.op(err, dz.name+": ssta.Analyze") {
			continue
		}
		r.sample("ssta_s", el)
		sstaYield := an.Yield(dz.tmax)

		sp = r.tr.begin(r.passSpan, "montecarlo.RunCtx", dz.name)
		t0 = time.Now()
		res, err := montecarlo.RunCtx(ctx, dz.d, dz.plainCfg)
		el = time.Since(t0).Seconds()
		r.tr.end(sp)
		if !r.op(err, dz.name+": montecarlo.RunCtx") {
			continue
		}
		r.sample("mc_s", el)
		r.sample("mc_n", float64(len(res.DelaysPs)))
		plain, err := yield.TimingIS(res, dz.tmax)
		if !r.op(err, dz.name+": plain yield estimate") {
			continue
		}

		var runs0 float64
		if r.tr != nil {
			runs0 = obs.Default.Values()["statleak_mc_runs_total"]
		}
		sp = r.tr.begin(r.passSpan, "yield.AdaptiveTimingIS", dz.name)
		t0 = time.Now()
		is, _, err := yield.AdaptiveTimingIS(ctx, dz.d, dz.isCfg, dz.tmax, yield.ISBudget{})
		el = time.Since(t0).Seconds()
		r.tr.end(sp)
		if !r.op(err, dz.name+": yield.AdaptiveTimingIS") {
			continue
		}
		if r.tr != nil {
			r.sample("yield.is_batches", obs.Default.Values()["statleak_mc_runs_total"]-runs0)
		}
		r.sample("is_s", el)
		r.sample("montecarlo.is_ess_ratio", is.ESS/float64(is.Samples))
		isSamples += float64(is.Samples)
		r.sample("ssta_mc_gap", sstaYield-(1-plain.FailProb))

		r.check(agree(plain, is),
			"%s: plain pf %.4g ± %.2g and IS pf %.4g ± %.2g differ by more than 3 combined SE",
			dz.name, plain.FailProb, plain.StdErr, is.FailProb, is.StdErr)

		out := soOutcome{plainHash: hashResult(res), isSamples: is.Samples, isPf: is.FailProb}
		if len(w.first) <= i {
			w.first = append(w.first, out)
		} else {
			f := w.first[i]
			r.check(out.plainHash == f.plainHash, "%s: plain Monte Carlo at a fixed seed is not bit-identical to pass 0", dz.name)
			r.check(out.isSamples == f.isSamples && out.isPf == f.isPf,
				"%s: adaptive IS not repeatable: %d samples / pf %v, pass 0 had %d / %v",
				dz.name, out.isSamples, out.isPf, f.isSamples, f.isPf)
		}
	}
	r.sample("is_samples", isSamples)
	return nil
}

// agree reports whether two failure-probability estimates agree
// within three combined standard errors.
func agree(a, b yield.ISEstimate) bool {
	return math.Abs(a.FailProb-b.FailProb) <= 3*math.Hypot(a.StdErr, b.StdErr)
}

// hashResult fingerprints a Monte Carlo result's samples bit for bit.
func hashResult(res *montecarlo.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(xs []float64) {
		for _, x := range xs {
			u := math.Float64bits(x)
			for k := range b {
				b[k] = byte(u >> (8 * k))
			}
			h.Write(b[:])
		}
	}
	put(res.DelaysPs)
	put(res.LeaksNW)
	put(res.Weights)
	return h.Sum64()
}

func (w *signoff) report(ps []*passData) []metric {
	var rate []float64
	for _, p := range ps {
		if t := sum(p.Samples["mc_s"]); t > 0 {
			rate = append(rate, sum(p.Samples["mc_n"])/t)
		}
	}
	gaps := all(ps, "ssta_mc_gap")
	return []metric{
		{Name: "mc_samples_per_s", Value: median(rate), Unit: "1/s", Better: "higher", Bound: 0.10,
			Note: fmt.Sprintf("plain Monte Carlo samples per second, %d samples per design", w.sz.signoffMC)},
		{Name: "is_verify_s", Value: median(perPass(ps, "is_s", mean)), Unit: "s", Better: "lower", Bound: 0.10,
			Note: "median over passes of the mean AdaptiveTimingIS wall time per design; " + tailNote(all(ps, "is_s"), "s")},
		{Name: "is_samples", Value: first(ps, "is_samples"), Unit: "count", Better: "lower",
			Note: fmt.Sprintf("samples adaptive IS used over %d designs (exact)", len(w.designs))},
		{Name: "ssta_mc_yield_gap", Value: mean(gaps), Unit: "ratio",
			Note: "mean SSTA minus plain-MC yield at Tmax; reported, not gated"},
	}
}

func (w *signoff) layers(ps []*passData) []metric {
	n := float64(len(ps))
	if n == 0 {
		return nil
	}
	return []metric{
		{Name: "montecarlo.is_ess_ratio", Value: mean(all(ps, "montecarlo.is_ess_ratio")), Unit: "ratio"},
		{Name: "yield.is_batches", Value: sum(all(ps, "yield.is_batches")) / n, Unit: "count"},
		{Name: "yield.adaptive_is_s", Value: sum(all(ps, "is_s")) / n, Unit: "s"},
	}
}

func (w *signoff) probe() probeTarget {
	big := w.designs[len(w.designs)-1]
	return probeTarget{d: big.d, tmax: big.tmax, gen: big.gen}
}
