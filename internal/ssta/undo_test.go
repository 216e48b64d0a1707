package ssta_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/logic"
	"repro/internal/ssta"
	"repro/internal/tech"
)

// flip is one reversible gate change (a Vth swap or a one-step
// resize) that can be played on several copies of a design.
type flip struct {
	id               int
	fromVth, toVth   tech.VthClass
	fromSize, toSize float64
}

func randomFlip(d *core.Design, rng *rand.Rand) flip {
	for {
		id := rng.Intn(d.Circuit.NumNodes())
		if d.Circuit.Gate(id).Type == logic.Input {
			continue
		}
		f := flip{id: id, fromVth: d.Vth[id], toVth: d.Vth[id], fromSize: d.Size[id], toSize: d.Size[id]}
		if rng.Intn(2) == 0 {
			f.toVth = tech.HighVth
			if d.Vth[id] == tech.HighVth {
				f.toVth = tech.LowVth
			}
			return f
		}
		si := d.Lib.SizeIndex(d.Size[id])
		ni := si + 1
		if ni >= len(d.Lib.Sizes) || (si > 0 && rng.Intn(2) == 0) {
			ni = si - 1
		}
		f.toSize = d.Lib.Sizes[ni]
		return f
	}
}

func (f flip) set(t testing.TB, d *core.Design, revert bool) {
	t.Helper()
	vth, size := f.toVth, f.toSize
	if revert {
		vth, size = f.fromVth, f.fromSize
	}
	if err := d.SetVth(f.id, vth); err != nil {
		t.Fatal(err)
	}
	if err := d.SetSize(f.id, size); err != nil {
		t.Fatal(err)
	}
}

// snapshot copies every arrival row and the circuit-delay form (last).
func snapshot(r *ssta.Result) []ssta.Canonical {
	out := make([]ssta.Canonical, 0, r.NumNodes()+1)
	for id := 0; id < r.NumNodes(); id++ {
		out = append(out, r.Arrival(id).Clone())
	}
	return append(out, r.Delay.Clone())
}

func sameBits(a, b ssta.Canonical) bool {
	if math.Float64bits(a.Mean) != math.Float64bits(b.Mean) ||
		math.Float64bits(a.Rand) != math.Float64bits(b.Rand) || len(a.Sens) != len(b.Sens) {
		return false
	}
	for k := range a.Sens {
		if math.Float64bits(a.Sens[k]) != math.Float64bits(b.Sens[k]) {
			return false
		}
	}
	return true
}

// diffBits names the first row (or the Delay form) where two snapshots
// differ in any bit, or returns "".
func diffBits(a, b []ssta.Canonical) string {
	for i := range a {
		if !sameBits(a[i], b[i]) {
			if i == len(a)-1 {
				return "Delay"
			}
			return fmt.Sprintf("arrival row %d", i)
		}
	}
	return ""
}

// TestUndoMatchesRetimeBitwise is the optimizer's reject path: every
// move is applied and reverted. One timer reverts through Undo, its
// twin on a cloned design re-times through Update; every row and the
// Delay form must agree bit for bit after each step. From a freshly
// analysed state every row is exactly the function of its fanins, so
// the re-timing revert recomputes the old bits and the copy-back is
// the same answer.
func TestUndoMatchesRetimeBitwise(t *testing.T) {
	for _, name := range []string{"s432", "q344"} {
		dA, err := fixture.Suite(name)
		if err != nil {
			t.Fatal(err)
		}
		dB := dA.Clone()
		undoer, err := ssta.NewIncremental(dA)
		if err != nil {
			t.Fatal(err)
		}
		retimer, err := ssta.NewIncremental(dB)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		for step := 0; step < 120; step++ {
			f := randomFlip(dA, rng)
			f.set(t, dA, false)
			f.set(t, dB, false)
			undoer.Update(f.id)
			retimer.Update(f.id)
			if where := diffBits(snapshot(undoer.Result()), snapshot(retimer.Result())); where != "" {
				t.Fatalf("%s step %d: apply diverged at %s", name, step, where)
			}
			f.set(t, dA, true)
			f.set(t, dB, true)
			if !undoer.Undo(f.id) {
				t.Fatalf("%s step %d: Undo refused the last Update's gate", name, step)
			}
			retimer.Update(f.id)
			if where := diffBits(snapshot(undoer.Result()), snapshot(retimer.Result())); where != "" {
				t.Fatalf("%s step %d: Undo and re-timing differ at %s", name, step, where)
			}
		}
	}
}

// TestUndoRestoresPreUpdateBits mixes kept and reverted moves. Undo
// must land exactly on the bits the timer held before the reverted
// Update. Once kept moves have gone through Update's convergence
// pruning (rows within its 1e-12 tolerance are left as they were), a
// re-timing revert may land a last bit away from them instead; the
// twin timers must then still agree with each other and with a full
// analysis to well within the accuracy the optimizers rely on.
func TestUndoRestoresPreUpdateBits(t *testing.T) {
	dA, err := fixture.Suite("s880")
	if err != nil {
		t.Fatal(err)
	}
	dB := dA.Clone()
	undoer, err := ssta.NewIncremental(dA)
	if err != nil {
		t.Fatal(err)
	}
	retimer, err := ssta.NewIncremental(dB)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for step := 0; step < 150; step++ {
		f := randomFlip(dA, rng)
		before := snapshot(undoer.Result())
		f.set(t, dA, false)
		f.set(t, dB, false)
		undoer.Update(f.id)
		retimer.Update(f.id)
		if rng.Intn(2) == 0 {
			continue // keep the move
		}
		f.set(t, dA, true)
		f.set(t, dB, true)
		if !undoer.Undo(f.id) {
			t.Fatalf("step %d: Undo refused the last Update's gate", step)
		}
		retimer.Update(f.id)
		if where := diffBits(snapshot(undoer.Result()), before); where != "" {
			t.Fatalf("step %d: Undo did not restore the pre-Update bits at %s", step, where)
		}
		formsClose(t, undoer.Result().Delay, retimer.Result().Delay, "undo vs retime delay")
		for id := 0; id < dA.Circuit.NumNodes(); id++ {
			formsClose(t, undoer.Result().Arrival(id), retimer.Result().Arrival(id), "undo vs retime arrival")
		}
	}
	full, err := ssta.Analyze(dA)
	if err != nil {
		t.Fatal(err)
	}
	formsClose(t, undoer.Result().Delay, full.Delay, "undo timer vs full analysis")
}

// TestUndoRefusals: the record covers exactly the timer's last
// mutation, an Update seeded with one gate. Anything else in between
// retires it, and a refused Undo changes nothing.
func TestUndoRefusals(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ssta.NewIncremental(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	f := randomFlip(d, rng)
	g := randomFlip(d, rng)
	for g.id == f.id {
		g = randomFlip(d, rng)
	}
	refuse := func(label string, id int) {
		t.Helper()
		before := snapshot(inc.Result())
		if inc.Undo(id) {
			t.Fatalf("%s: Undo(%d) accepted", label, id)
		}
		if where := diffBits(snapshot(inc.Result()), before); where != "" {
			t.Fatalf("%s: refused Undo changed %s", label, where)
		}
	}

	refuse("fresh timer", f.id)

	f.set(t, d, false)
	inc.Update(f.id)
	refuse("wrong gate", g.id)
	g.set(t, d, false)
	inc.Update(g.id)
	refuse("intervening Update", f.id)

	inc.Update(f.id, g.id)
	refuse("multi-gate Update", f.id)

	inc.Update(g.id)
	inc.StartJournal()
	refuse("journal start", g.id)
	inc.Update(g.id)
	inc.RestoreJournal()
	refuse("journal restore", g.id)

	inc.Update(g.id)
	if err := inc.Rebuild(); err != nil {
		t.Fatal(err)
	}
	refuse("rebuild", g.id)

	inc.Update(g.id)
	if !inc.Undo(g.id) {
		t.Fatal("Undo refused the last Update's gate")
	}
	refuse("second Undo", g.id)
}

// TestUndoInsideJournal: an Update undone inside a scoring round still
// leaves RestoreJournal returning the pre-round bits.
func TestUndoInsideJournal(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ssta.NewIncremental(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	before := snapshot(inc.Result())
	inc.StartJournal()
	kept := randomFlip(d, rng)
	kept.set(t, d, false)
	inc.Update(kept.id)
	f := randomFlip(d, rng)
	f.set(t, d, false)
	inc.Update(f.id)
	f.set(t, d, true)
	if !inc.Undo(f.id) {
		t.Fatal("Undo refused inside a journal round")
	}
	kept.set(t, d, true)
	inc.RestoreJournal()
	if where := diffBits(snapshot(inc.Result()), before); where != "" {
		t.Fatalf("journal restore after Undo differs at %s", where)
	}
}
