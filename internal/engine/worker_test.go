package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixture"
	"repro/internal/tech"
)

// freshCloneScores replicates the pre-persistent-worker exact
// ScoreAllCtx: a throwaway clone of the engine's state per chunk, same
// contiguous chunk partitioning, scored sequentially. It is the bitwise
// reference the persistent workers must match.
func freshCloneScores(e *Engine, moves []Move) ([]Score, error) {
	workers := e.cfg.Workers
	if workers > len(moves) {
		workers = len(moves)
	}
	out := make([]Score, len(moves))
	chunk := (len(moves) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, w*chunk+chunk
		if hi > len(moves) {
			hi = len(moves)
		}
		if lo >= hi {
			break
		}
		dc := e.d.Clone()
		sc := e.newScoreCtx(dc, e.acc.CloneFor(dc), e.inc.CloneFor(dc))
		for i := lo; i < hi; i++ {
			s, err := sc.score(moves[i])
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
	}
	return out, nil
}

// scoreBitsEqual compares two scores bitwise (drift matters here: the
// persistent workers claim bit-for-bit equivalence, not tolerance).
func scoreBitsEqual(a, b Score) bool {
	return math.Float64bits(a.DLeakQNW) == math.Float64bits(b.DLeakQNW) &&
		math.Float64bits(a.DMarginPs) == math.Float64bits(b.DMarginPs) &&
		math.Float64bits(a.DOwnPs) == math.Float64bits(b.DOwnPs) &&
		math.Float64bits(a.DLeakNomNW) == math.Float64bits(b.DLeakNomNW)
}

// TestPersistentWorkersMatchFreshClones is the resync property test:
// it interleaves parallel exact ScoreAllCtx rounds with committed
// moves, transaction peels/rollbacks, forced cache refreshes, and a
// poisoned batch that errors mid-round, asserting after every round
// that (a) the persistent workers produce scores bitwise identical to
// throwaway fresh-clone scorers and (b) the engine's own observable
// state is untouched by scoring. Run under -race this also exercises
// the worker fan-out for data races.
func TestPersistentWorkersMatchFreshClones(t *testing.T) {
	ctx := context.Background()
	e, d := testEngine(t, "s432", Config{Workers: 4, RefreshEvery: 64})
	ids := gateIDs(d)
	rng := rand.New(rand.NewSource(11))

	// Build both caches so exact rounds are available.
	if _, err := e.DelayQuantile(0.99); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LeakQuantile(0.99); err != nil {
		t.Fatal(err)
	}

	batch := func(n int) []Move {
		var mvs []Move
		for len(mvs) < n {
			if mv, ok := randomMove(d, ids, rng); ok {
				mvs = append(mvs, mv)
			}
		}
		return mvs
	}

	for round := 0; round < 40; round++ {
		moves := batch(8 + rng.Intn(32))

		q0 := e.acc.Quantile(e.cfg.LeakPercentile)
		m0 := e.inc.Result().Quantile(e.cfg.YieldTarget)

		want, err := freshCloneScores(e, moves)
		if err != nil {
			t.Fatalf("round %d: reference scorer: %v", round, err)
		}
		got, err := e.ScoreAllCtx(ctx, moves)
		if err != nil {
			t.Fatalf("round %d: ScoreAllCtx: %v", round, err)
		}
		for i := range moves {
			if !scoreBitsEqual(got[i], want[i]) {
				t.Fatalf("round %d move %d: persistent %+v != fresh-clone %+v",
					round, i, got[i], want[i])
			}
		}
		if b0, b1 := math.Float64bits(q0), math.Float64bits(e.acc.Quantile(e.cfg.LeakPercentile)); b0 != b1 {
			t.Fatalf("round %d: ScoreAllCtx disturbed the engine's leakage state", round)
		}
		if b0, b1 := math.Float64bits(m0), math.Float64bits(e.inc.Result().Quantile(e.cfg.YieldTarget)); b0 != b1 {
			t.Fatalf("round %d: ScoreAllCtx disturbed the engine's timing state", round)
		}

		// Interleave engine mutations between rounds.
		switch rng.Intn(4) {
		case 0: // commit a few moves directly
			for i := 0; i < 1+rng.Intn(5); i++ {
				if mv, ok := randomMove(d, ids, rng); ok {
					if err := e.Apply(mv); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 1: // transaction: apply, peel some, then commit or roll back
			txn := e.Begin()
			for i := 0; i < 2+rng.Intn(6); i++ {
				if mv, ok := randomMove(d, ids, rng); ok {
					if err := txn.Apply(mv); err != nil {
						t.Fatal(err)
					}
				}
			}
			for txn.Len() > 0 && rng.Intn(2) == 0 {
				if _, err := txn.PopRevert(); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(2) == 0 {
				if err := txn.Rollback(); err != nil {
					t.Fatal(err)
				}
			} else {
				txn.Commit()
			}
		case 2: // forced full refresh: workers must re-clone
			if err := e.Refresh(); err != nil {
				t.Fatal(err)
			}
		case 3: // poisoned batch: a stale move errors mid-round and must
			// dirty its worker without corrupting later rounds
			id := ids[rng.Intn(len(ids))]
			to := tech.HighVth
			if d.Vth[id] == tech.HighVth {
				to = tech.LowVth
			}
			stale, err := NewVthSwap(d, id, to)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Apply(stale); err != nil { // now stale's precondition is gone
				t.Fatal(err)
			}
			poisoned := append(batch(7), stale)
			if _, err := e.ScoreAllCtx(ctx, poisoned); err == nil {
				t.Fatalf("round %d: poisoned batch scored without error", round)
			}
			if _, err := e.ScoreAllLocalCtx(ctx, poisoned); err == nil {
				t.Fatalf("round %d: poisoned batch scored locally without error", round)
			}
		}
	}
}

// TestLocalScoresOrderIndependent is the oracle for read-only local
// scoring: every ScoreAllLocalCtx score must equal, bitwise, the
// ScoreLocal of that move alone on a fresh engine over the same
// assignment — whatever the move order and whatever Config.Workers —
// and scoring must leave the engine's leakage state bitwise untouched.
// A second pass repeats the check against single-move ScoreLocal on
// the same engine after committed moves have put drift into its
// accumulator.
func TestLocalScoresOrderIndependent(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Config{TmaxPs: 1000, Workers: workers}
			d, err := fixture.Suite("s432")
			if err != nil {
				t.Fatal(err)
			}
			ids := gateIDs(d)
			rng := rand.New(rand.NewSource(int64(29 + workers)))
			// Scramble the assignment before any engine sees it, so the
			// engine under test and the oracle engines are all fresh.
			for i := 0; i < 80; i++ {
				if mv, ok := randomMove(d, ids, rng); ok {
					if err := mv.Apply(d); err != nil {
						t.Fatal(err)
					}
				}
			}
			e, err := New(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.LeakQuantile(e.cfg.LeakPercentile); err != nil {
				t.Fatal(err)
			}
			moves := candidateMoves(t, d)
			want := make([]Score, len(moves))
			for i, mv := range moves {
				oracle, err := New(d.Clone(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want[i], err = oracle.ScoreLocal(mv); err != nil {
					t.Fatal(err)
				}
			}
			checkOrders := func(want []Score) {
				t.Helper()
				q0 := math.Float64bits(e.acc.Quantile(e.cfg.LeakPercentile))
				for trial := 0; trial < 4; trial++ {
					perm := rng.Perm(len(moves))
					shuffled := make([]Move, len(moves))
					for i, j := range perm {
						shuffled[i] = moves[j]
					}
					got, err := e.ScoreAllLocalCtx(ctx, shuffled)
					if err != nil {
						t.Fatal(err)
					}
					for i, j := range perm {
						if !scoreBitsEqual(got[i], want[j]) {
							t.Fatalf("trial %d: move %d (%v gate %d) scored %+v in a batch, %+v alone",
								trial, j, moves[j].Kind(), moves[j].Gate(), got[i], want[j])
						}
					}
					if q1 := math.Float64bits(e.acc.Quantile(e.cfg.LeakPercentile)); q1 != q0 {
						t.Fatalf("trial %d: ScoreAllLocalCtx disturbed the engine's leakage state", trial)
					}
				}
			}
			checkOrders(want)

			for i := 0; i < 40; i++ {
				if mv, ok := randomMove(d, ids, rng); ok {
					if err := e.Apply(mv); err != nil {
						t.Fatal(err)
					}
				}
			}
			moves = candidateMoves(t, d)
			want = make([]Score, len(moves))
			for i, mv := range moves {
				if want[i], err = e.ScoreLocal(mv); err != nil {
					t.Fatal(err)
				}
			}
			checkOrders(want)
		})
	}
}
