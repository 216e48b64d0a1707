// Persistent exact-scoring workers: instead of cloning the design and
// both caches on every exact ScoreAllCtx call (O(netlist) allocation
// per round), the engine keeps one evaluation context per worker slot
// and reuses it for as long as it stays bitwise equal to the engine's
// own state. Local scoring needs none of this: it is read-only and
// serial (see localScorer). Equivalence with the clone-per-call scorer
// is bitwise:
//
//   - Reuse only while synced: a worker starts as a bitwise clone of
//     the engine's design, accumulator and timer, and is reused only
//     while no move has been committed and no Refresh has run since it
//     was built; otherwise it is re-cloned.
//   - Round restoration: while scoring, each worker journals the state
//     it touches (leakage.Accumulator/ssta.Incremental StartJournal)
//     and restores it when the round ends, so the floating-point drift
//     a clone-per-call scorer would have discarded with the clone is
//     discarded here too — within a round the scoring arithmetic is
//     exactly the old code's.
//   - Refresh invalidation: a full cache rebuild (Engine.Refresh) bumps
//     the engine generation; stale workers re-clone.
package engine

import (
	"repro/internal/core"
	"repro/internal/leakage"
	"repro/internal/obs"
	"repro/internal/ssta"
)

// Worker-lifecycle instrumentation: the reuse/full-resync ratio is the
// persistence win.
var (
	metWorkerFullSyncs = obs.Default.Counter("statleak_engine_worker_full_resyncs_total",
		"scoring-worker contexts rebuilt by cloning the engine state")
	metWorkerReplays = obs.Default.Counter("statleak_engine_worker_replay_resyncs_total",
		"scoring-worker contexts reused as synced (no move committed since their last round)")
)

// scoreWorker is one persistent exact-scoring context. Its design,
// accumulator and timer are bitwise equal to the engine's own state
// whenever the worker is synced and idle.
type scoreWorker struct {
	d   *core.Design
	acc *leakage.Accumulator
	inc *ssta.Incremental

	gen   int  // engine generation this context was built against
	dirty bool // a scoring error left the state unknown; must re-clone
}

// logMove records a committed mutation, which makes every live worker
// stale. Only called once workers exist; before that the log stays
// empty and the first sync clones the current state directly.
func (e *Engine) logMove(m Move) {
	if len(e.workers) > 0 {
		e.log = append(e.log, m)
	}
}

// syncWorkers brings the first n worker slots up to date with the
// engine, creating them as needed, and drops every other slot that has
// gone stale. Replaying the logged moves into a worker would re-time a
// fanout cone per move — measured dearer than cloning the whole timer
// — so a worker is reused only while the log is empty (the
// repeated-ranking-sweep case, where persistence saves the per-call
// clone outright) and re-cloned otherwise. The engine's acc and inc
// must exist.
func (e *Engine) syncWorkers(n int) {
	for len(e.workers) < n {
		e.workers = append(e.workers, nil)
	}
	for i, wc := range e.workers {
		switch {
		case wc == nil:
			if i >= n {
				continue // never-used tail slot from an earlier, wider call
			}
			wc = &scoreWorker{}
			e.workers[i] = wc
			wc.fullResync(e)
		case wc.dirty || wc.gen != e.gen || len(e.log) > 0:
			if i >= n {
				// Not needed this round and stale: drop it and re-clone
				// lazily if a wider call returns.
				e.workers[i] = nil
				continue
			}
			wc.fullResync(e)
		default:
			metWorkerReplays.Inc()
		}
	}
	e.log = e.log[:0]
}

// fullResync rebuilds the worker as bitwise clones of the engine's
// current design and caches.
func (wc *scoreWorker) fullResync(e *Engine) {
	dc := e.d.Clone()
	wc.d = dc
	wc.acc = e.acc.CloneFor(dc)
	wc.inc = e.inc.CloneFor(dc)
	wc.gen = e.gen
	wc.dirty = false
	metWorkerFullSyncs.Inc()
}
