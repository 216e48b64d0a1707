package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fixture"
)

// cloneScoreAll replicates the pre-persistent-worker exact ScoreAllCtx:
// a fresh clone of the engine's design and caches per worker per call,
// same contiguous chunk partitioning, same parallel fan-out. It is the
// throughput baseline the persistent workers are measured against.
func cloneScoreAll(e *Engine, moves []Move) ([]Score, error) {
	workers := e.cfg.Workers
	if workers > len(moves) {
		workers = len(moves)
	}
	out := make([]Score, len(moves))
	errs := make([]error, workers)
	chunk := (len(moves) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(moves) {
			hi = len(moves)
		}
		if lo >= hi {
			break
		}
		dc := e.d.Clone()
		sc := e.newScoreCtx(dc, e.acc.CloneFor(dc), e.inc.CloneFor(dc))
		wg.Add(1)
		go func(sc *scoreCtx, w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				s, err := sc.score(moves[i])
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = s
			}
		}(sc, w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// benchRoundScoring measures optimizer-shaped exact scoring rounds on
// the largest synthetic circuit: score a candidate batch in parallel,
// then commit a couple of moves (which the persistent workers must
// absorb before the next round).
func benchRoundScoring(b *testing.B, persistent bool, batch int) {
	d, err := fixture.Suite("s7552")
	if err != nil {
		b.Fatal(err)
	}
	// Workers pinned (not NumCPU) so the fan-out — and the per-call
	// clone cost it used to multiply — is exercised identically on any
	// host.
	e, err := New(d, Config{TmaxPs: 1000, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	// Build both caches up front so the loop measures steady state.
	if _, err := e.DelayQuantile(0.99); err != nil {
		b.Fatal(err)
	}
	if _, err := e.LeakQuantile(0.99); err != nil {
		b.Fatal(err)
	}
	ids := gateIDs(d)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var moves []Move
		for len(moves) < batch {
			if mv, ok := randomMove(d, ids, rng); ok {
				moves = append(moves, mv)
			}
		}
		if persistent {
			_, err = e.ScoreAllCtx(context.Background(), moves)
		} else {
			_, err = cloneScoreAll(e, moves)
		}
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			if mv, ok := randomMove(d, ids, rng); ok {
				if err := e.Apply(mv); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchWorkerResync isolates the per-round worker refresh: commit two
// moves (excluded from the timing), then bring all four exact-scoring
// worker contexts back in sync — through syncWorkers (persistent path)
// or by the old path's from-scratch clones of the engine state.
// Scoring work, being identical in both designs, is deliberately
// absent.
func benchWorkerResync(b *testing.B, persistent bool) {
	d, err := fixture.Suite("s7552")
	if err != nil {
		b.Fatal(err)
	}
	// RefreshEvery -1: the periodic drift rebuild would force full
	// resyncs on both paths at the same cadence; disabling it isolates
	// the steady-state resync cost.
	e, err := New(d, Config{TmaxPs: 1000, Workers: 4, RefreshEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.DelayQuantile(0.99); err != nil {
		b.Fatal(err)
	}
	if _, err := e.LeakQuantile(0.99); err != nil {
		b.Fatal(err)
	}
	if persistent {
		// Seed the worker slots so the loop measures steady-state resync.
		e.syncWorkers(4)
	}
	ids := gateIDs(d)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 2; k++ {
			if mv, ok := randomMove(d, ids, rng); ok {
				if err := e.Apply(mv); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		if persistent {
			e.syncWorkers(4)
		} else {
			for w := 0; w < 4; w++ {
				dc := e.d.Clone()
				e.newScoreCtx(dc, e.acc.CloneFor(dc), e.inc.CloneFor(dc))
			}
		}
	}
}

func BenchmarkWorkerResyncReplayExact(b *testing.B) { benchWorkerResync(b, true) }
func BenchmarkWorkerResyncCloneExact(b *testing.B)  { benchWorkerResync(b, false) }

// Batch 8 is a batched top-k commit round. The per-call clone tax of
// the old path is paid per round regardless of batch size, so the
// small rounds isolate it.
func BenchmarkRoundScoringPersistentExact8(b *testing.B) { benchRoundScoring(b, true, 8) }
func BenchmarkRoundScoringCloneExact8(b *testing.B)      { benchRoundScoring(b, false, 8) }
