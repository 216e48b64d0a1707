package engine

import (
	"testing"

	"repro/internal/fixture"
	"repro/internal/tech"
)

// BenchmarkEngineCorner is the deterministic optimizer's inner step on
// s1908: apply a move, re-run the memoized 3σ corner STA that the move
// invalidated, revert. The corner consumer builds no SSTA or leakage
// cache, so the time is the corner analysis — one gate delay per node
// at the fixed corner plus the arrival/required sweeps.
func BenchmarkEngineCorner(b *testing.B) {
	d, err := fixture.Suite("s1908")
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(d, Config{TmaxPs: 1000, CornerSigma: 3})
	if err != nil {
		b.Fatal(err)
	}
	var moves []Move
	for _, id := range gateIDs(d) {
		sw, err := NewVthSwap(d, id, tech.HighVth)
		if err != nil {
			b.Fatal(err)
		}
		moves = append(moves, sw)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mv := moves[i%len(moves)]
		if err := e.Apply(mv); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Corner(1000); err != nil {
			b.Fatal(err)
		}
		if err := e.Revert(mv); err != nil {
			b.Fatal(err)
		}
	}
}
