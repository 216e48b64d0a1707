package leakage

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixture"
	"repro/internal/logic"
	"repro/internal/stats"
	"repro/internal/tech"
)

// sameBits reports whether two accumulators hold bitwise identical
// factored state.
func sameBits(a, b *Accumulator) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return eq([]float64{a.M, a.Q, a.d1, a.d2, a.gateLeak, a.second2},
		[]float64{b.M, b.Q, b.d1, b.d2, b.gateLeak, b.second2}) &&
		eq(a.pg, b.pg) && eq(a.v, b.v) && eq(a.b, b.b)
}

// TestQuantileAfterMatchesUpdate pins the what-if contract: for random
// gates moved to random assignments, QuantileAfter equals Update
// followed by Quantile bitwise — from a freshly built accumulator and
// from one that has absorbed a run of kept moves — and leaves the
// accumulator bitwise unchanged.
func TestQuantileAfterMatchesUpdate(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, g := range d.Circuit.Gates() {
		if g.Type != logic.Input {
			ids = append(ids, g.ID)
		}
	}
	run, err := NewAccumulator(d) // absorbs every kept move
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 400; step++ {
		p := []float64{0.95, 0.99}[step%2]
		z := stats.NormalQuantile(p)
		fresh, err := NewAccumulator(d)
		if err != nil {
			t.Fatal(err)
		}
		id := ids[rng.Intn(len(ids))]
		v0, s0 := d.Vth[id], d.Size[id]
		if err := d.SetVth(id, tech.VthClass(rng.Intn(tech.NumVthClasses))); err != nil {
			t.Fatal(err)
		}
		if err := d.SetSizeIndex(id, rng.Intn(len(d.Lib.Sizes))); err != nil {
			t.Fatal(err)
		}
		sub, gate := d.GateSubLeak(id), d.GateGateLeak(id)

		for name, acc := range map[string]*Accumulator{"fresh": fresh, "after kept moves": run} {
			before := acc.CloneFor(d)
			got := acc.QuantileAfter(id, sub, gate, z)
			if !sameBits(acc, before) {
				t.Fatalf("step %d (%s): QuantileAfter wrote to the accumulator", step, name)
			}
			ref := acc.CloneFor(d)
			ref.Update(id)
			if want := ref.Quantile(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d (%s): gate %d QuantileAfter %v, Update+Quantile %v",
					step, name, id, got, want)
			}
		}

		if rng.Intn(2) == 0 {
			run.Update(id) // keep the move
			continue
		}
		if err := d.SetVth(id, v0); err != nil {
			t.Fatal(err)
		}
		if err := d.SetSize(id, s0); err != nil {
			t.Fatal(err)
		}
	}
}
