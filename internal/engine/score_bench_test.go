package engine

import (
	"context"
	"testing"

	"repro/internal/fixture"
	"repro/internal/tech"
)

// BenchmarkScoreAllLocal measures one local scoring sweep on the
// largest synthetic circuit: every gate's LVT→HVT swap and one-step
// downsize, the candidate set the statistical recovery phase ranks
// each round.
func BenchmarkScoreAllLocal(b *testing.B) {
	d, err := fixture.Suite("s7552")
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(d, Config{TmaxPs: 1000})
	if err != nil {
		b.Fatal(err)
	}
	// Mid-optimization shape: half the gates up one size, so downsizes
	// exist alongside the Vth swaps.
	for i, id := range gateIDs(d) {
		if i%2 == 0 {
			if err := d.SetSizeIndex(id, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	var moves []Move
	for _, id := range gateIDs(d) {
		sw, err := NewVthSwap(d, id, tech.HighVth)
		if err != nil {
			b.Fatal(err)
		}
		moves = append(moves, sw)
		if dn, ok := NewDownsize(d, id); ok {
			moves = append(moves, dn)
		}
	}
	ctx := context.Background()
	if _, err := e.ScoreAllLocalCtx(ctx, moves); err != nil { // build the accumulator
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ScoreAllLocalCtx(ctx, moves); err != nil {
			b.Fatal(err)
		}
	}
}
