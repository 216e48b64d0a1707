// Package engine provides the transactional evaluation engine shared
// by every optimizer: it owns a *core.Design together with cached
// incremental-SSTA timing state, factored-Wilkinson leakage state, and
// a memoized deterministic corner analysis, and keeps all three
// consistent as moves are applied, reverted, batched in transactions,
// or scored (evaluated and put back).
//
// The design decisions, in brief:
//
//   - Timing is maintained by ssta.Incremental — only the fanout cone
//     of a moved gate is re-timed — with a periodic full refresh
//     (Config.RefreshEvery) bounding floating-point drift over long
//     move sequences.
//   - The leakage percentile is maintained by leakage.Accumulator in
//     O(k²) per move; the exact O(n²k) sum stays in package leakage
//     for final scoreboards.
//   - Both caches are built lazily: a purely corner-based consumer
//     (the deterministic optimizer) never pays for SSTA state.
//   - Local scoring (ScoreLocal, ScoreAllLocalCtx — the optimizers'
//     candidate ranking) is read-only and serial: each move is
//     evaluated at its target assignment against the engine's own
//     state (core.Design.CellAt, leakage.Accumulator.QuantileAfter),
//     never applied, so every score starts from the same baseline and
//     none depends on the worker count or the move order.
//   - Exact scoring (Score, ScoreAllCtx) applies the move, re-times its
//     cone and puts the state back — net-zero by construction.
//     ScoreAllCtx fans independent candidates out over a bounded pool
//     of persistent per-worker evaluation contexts, journal-restored
//     after each round (see worker.go), so exact scoring parallelizes
//     without locking and without re-cloning the netlist every round.
package engine

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/leakage"
	"repro/internal/obs"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/stats"
)

// Hot-path instrumentation (see internal/obs): one atomic add per
// move; exported at GET /metrics by statleakd.
var (
	metApplied = obs.Default.Counter("statleak_engine_moves_applied_total",
		"moves applied through the engine (Apply and committed Txn moves)")
	metReverted = obs.Default.Counter("statleak_engine_moves_reverted_total",
		"moves undone through the engine (Revert and Txn rollbacks)")
	metScored = obs.Default.Counter("statleak_engine_moves_scored_total",
		"candidate move evaluations (Score/ScoreLocal and the ScoreAll*Ctx sweeps)")
	metRefreshes = obs.Default.Histogram("statleak_engine_cache_refresh_seconds",
		"latency of full timing+leakage cache rebuilds (periodic drift refresh)", nil)
)

// Config fixes the evaluation parameters of an engine.
type Config struct {
	// TmaxPs is the delay constraint [ps] yield and slack are measured
	// against.
	TmaxPs float64
	// YieldTarget η is the timing-yield target (0 ⇒ 0.99); it sets the
	// quantile used by slack and margin queries.
	YieldTarget float64
	// LeakPercentile is the leakage objective percentile (0 ⇒ 0.99).
	LeakPercentile float64
	// CornerSigma is the deterministic corner used by Corner queries
	// (0 ⇒ nominal STA).
	CornerSigma float64
	// RefreshEvery rebuilds the incremental timing and leakage caches
	// from scratch after this many applied moves, bounding drift
	// (0 ⇒ 512; negative ⇒ never).
	RefreshEvery int
	// Workers bounds the exact ScoreAllCtx fan-out and, below 2,
	// turns off a Family's per-corner fan-out (0 ⇒ runtime.NumCPU()).
	// Local scoring is serial and ignores it.
	Workers int
}

func (c *Config) setDefaults() {
	if stats.EqZero(c.YieldTarget) {
		c.YieldTarget = 0.99
	}
	if stats.EqZero(c.LeakPercentile) {
		c.LeakPercentile = 0.99
	}
	if c.RefreshEvery == 0 {
		c.RefreshEvery = 512
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
}

func (c Config) validate() error {
	switch {
	case c.TmaxPs <= 0:
		return fmt.Errorf("engine: TmaxPs %g must be > 0", c.TmaxPs)
	case c.YieldTarget <= 0 || c.YieldTarget >= 1:
		return fmt.Errorf("engine: YieldTarget %g outside (0,1)", c.YieldTarget)
	case c.LeakPercentile <= 0 || c.LeakPercentile >= 1:
		return fmt.Errorf("engine: LeakPercentile %g outside (0,1)", c.LeakPercentile)
	case c.CornerSigma < 0 || c.CornerSigma > 6:
		return fmt.Errorf("engine: CornerSigma %g outside [0,6]", c.CornerSigma)
	}
	return nil
}

// Engine owns a design plus the cached analysis state the optimizers
// iterate against. It is not safe for concurrent mutation; ScoreAllCtx
// is the one concurrency entry point and works on clones.
type Engine struct {
	d   *core.Design
	cfg Config

	dLc, dVc float64 // corner excursion for Config.CornerSigma

	inc *ssta.Incremental    // lazy: statistical timing
	acc *leakage.Accumulator // lazy: factored leakage

	corner     *sta.Result // memoized corner STA for cornerTmax
	cornerTmax float64

	sinceRefresh int

	// lastApplied is the move the latest Apply performed, cleared by
	// every other mutation: reverting exactly that move undoes the
	// timer's last Update instead of re-timing the cone.
	lastApplied Move

	// Persistent exact-scoring workers (see worker.go): committed
	// moves are logged while workers are live, and a non-empty log or
	// a Refresh (which bumps gen) makes the next ScoreAllCtx re-clone
	// them.
	workers []*scoreWorker
	log     []Move
	gen     int
}

// New wraps a design. The engine does not copy d: moves applied
// through the engine mutate it in place, which is the contract every
// optimizer wants (the caller keeps the optimized assignment).
func New(d *core.Design, cfg Config) (*Engine, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{d: d, cfg: cfg}
	e.dLc, e.dVc = sta.CornerOffsets(d, cfg.CornerSigma)
	return e, nil
}

// Design returns the underlying design. Mutating it directly bypasses
// the caches; use Apply/Revert.
func (e *Engine) Design() *core.Design { return e.d }

// Config returns the engine's resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// CornerOffsets returns the (ΔLeff [nm], ΔVth [V]) excursion of the
// configured corner.
func (e *Engine) CornerOffsets() (dLnm, dVthV float64) { return e.dLc, e.dVc }

func (e *Engine) ensureAcc() error {
	if e.acc != nil {
		return nil
	}
	acc, err := leakage.NewAccumulator(e.d)
	if err != nil {
		return err
	}
	e.acc = acc
	return nil
}

func (e *Engine) ensureTiming() error {
	if e.inc != nil {
		return nil
	}
	inc, err := ssta.NewIncremental(e.d)
	if err != nil {
		return err
	}
	e.inc = inc
	return nil
}

// Apply performs a move and updates every live cache incrementally.
func (e *Engine) Apply(m Move) error {
	if err := m.Apply(e.d); err != nil {
		return err
	}
	return e.mirror(m, false)
}

// Revert undoes a move and updates every live cache incrementally.
func (e *Engine) Revert(m Move) error {
	if err := m.Revert(e.d); err != nil {
		return err
	}
	return e.mirror(m, true)
}

// mirror folds a move already applied to (or reverted on) the
// engine's assignment into its caches, counters and the workers'
// commit log. Apply and Revert call it after mutating; a Family calls it
// directly on every other corner, whose view aliases the one
// assignment, so the design mutation must not repeat there (Move.
// Apply's precondition check would reject it). Unexported on purpose:
// only the engine and the Family may call it, which is what keeps
// "per-corner contexts are mutated only through Family commit/replay"
// a compile-level invariant.
func (e *Engine) mirror(m Move, revert bool) error {
	undo := false
	if revert {
		metReverted.Inc()
		undo = m == e.lastApplied
		e.lastApplied = nil
	} else {
		metApplied.Inc()
		e.lastApplied = m
	}
	e.logMove(m)
	return e.noteChange(m.Gate(), undo)
}

// noteChange refreshes the caches after gate id changed, triggering
// the periodic full rebuild when the drift budget is spent. undo says
// the change reverted the latest applied move, so the timer may copy
// back the rows that move's Update overwrote (see ssta.Incremental.
// Undo) instead of re-timing; the refresh count is the same either
// way.
func (e *Engine) noteChange(id int, undo bool) error {
	e.corner = nil
	if e.acc != nil {
		e.acc.Update(id)
	}
	if e.inc != nil && !(undo && e.inc.Undo(id)) {
		e.inc.Update(id)
	}
	if e.inc != nil || e.acc != nil {
		e.sinceRefresh++
		if e.cfg.RefreshEvery > 0 && e.sinceRefresh >= e.cfg.RefreshEvery {
			return e.Refresh()
		}
	}
	return nil
}

// Refresh rebuilds every live cache from the design's current state,
// discarding accumulated floating-point drift. It also invalidates the
// persistent exact-scoring workers, whose clones still carry the
// drift the rebuild just discarded, so this is the one hook a caller
// who mutated the design directly must use before the next
// ScoreAllCtx.
func (e *Engine) Refresh() error {
	t0 := time.Now()
	defer func() { metRefreshes.Observe(time.Since(t0).Seconds()) }()
	e.corner = nil
	e.sinceRefresh = 0
	e.gen++
	e.log = e.log[:0]
	if e.inc != nil {
		if err := e.inc.Rebuild(); err != nil {
			return err
		}
	}
	if e.acc != nil {
		acc, err := leakage.NewAccumulator(e.d)
		if err != nil {
			return err
		}
		e.acc = acc
	}
	return nil
}

// Timing returns the current statistical timing view (read-only; it is
// refreshed in place by Apply/Revert).
func (e *Engine) Timing() (*ssta.Result, error) {
	if err := e.ensureTiming(); err != nil {
		return nil, err
	}
	return e.inc.Result(), nil
}

// Yield returns the SSTA timing yield at the configured Tmax.
func (e *Engine) Yield() (float64, error) {
	t, err := e.Timing()
	if err != nil {
		return 0, err
	}
	return t.Yield(e.cfg.TmaxPs), nil
}

// DelayQuantile returns the eta-quantile of the circuit delay [ps].
func (e *Engine) DelayQuantile(eta float64) (float64, error) {
	t, err := e.Timing()
	if err != nil {
		return 0, err
	}
	return t.Quantile(eta), nil
}

// StatisticalSlack returns the per-node statistical slack against the
// configured Tmax and yield target.
func (e *Engine) StatisticalSlack() ([]float64, error) {
	t, err := e.Timing()
	if err != nil {
		return nil, err
	}
	return t.StatisticalSlack(e.d, e.cfg.TmaxPs, e.cfg.YieldTarget)
}

// Criticality returns per-node criticality probabilities from the
// current timing view.
func (e *Engine) Criticality() ([]float64, error) {
	t, err := e.Timing()
	if err != nil {
		return nil, err
	}
	return t.Criticality(e.d)
}

// LeakAnalysis returns the factored moment-matched leakage view.
func (e *Engine) LeakAnalysis() (*leakage.Analysis, error) {
	if err := e.ensureAcc(); err != nil {
		return nil, err
	}
	return e.acc.Analysis()
}

// LeakQuantile returns the p-quantile of total leakage [nW] from the
// factored accumulator.
func (e *Engine) LeakQuantile(p float64) (float64, error) {
	if err := e.ensureAcc(); err != nil {
		return 0, err
	}
	q := e.acc.Quantile(p)
	if math.IsNaN(q) {
		return 0, fmt.Errorf("engine: leakage moment matching failed")
	}
	return q, nil
}

// LeakMean returns the mean total leakage [nW].
func (e *Engine) LeakMean() (float64, error) {
	if err := e.ensureAcc(); err != nil {
		return 0, err
	}
	return e.acc.Mean(), nil
}

// TotalLeak returns the design's nominal total leakage [nW] (no cache
// involved; a convenience for objective tracking).
func (e *Engine) TotalLeak() float64 { return e.d.TotalLeak() }

// Corner returns the memoized deterministic corner STA against tmaxPs.
// The result is invalidated by any Apply/Revert and recomputed on
// demand, so back-to-back queries between moves are free.
func (e *Engine) Corner(tmaxPs float64) (*sta.Result, error) {
	if e.corner != nil && stats.EqExact(e.cornerTmax, tmaxPs) {
		return e.corner, nil
	}
	r, err := sta.AnalyzeAt(e.d, tmaxPs, e.dLc, e.dVc)
	if err != nil {
		return nil, err
	}
	e.corner, e.cornerTmax = r, tmaxPs
	return r, nil
}
