package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/ssta"
)

func undoCount() float64 {
	return obs.Default.Values()["statleak_ssta_incremental_undos_total"]
}

// timingBits copies the engine's timing view: every arrival row, then
// the circuit-delay form.
func timingBits(t *testing.T, e *Engine) []ssta.Canonical {
	t.Helper()
	r, err := e.Timing()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]ssta.Canonical, 0, r.NumNodes()+1)
	for id := 0; id < r.NumNodes(); id++ {
		out = append(out, r.Arrival(id).Clone())
	}
	return append(out, r.Delay.Clone())
}

// bitsDiff names the first place two timing copies differ in any bit,
// or returns "".
func bitsDiff(a, b []ssta.Canonical) string {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		same := eq(a[i].Mean, b[i].Mean) && eq(a[i].Rand, b[i].Rand)
		for k := range a[i].Sens {
			same = same && eq(a[i].Sens[k], b[i].Sens[k])
		}
		if !same {
			if i == len(a)-1 {
				return "Delay"
			}
			return fmt.Sprintf("arrival row %d", i)
		}
	}
	return ""
}

// warm builds the engine's timing and leakage caches so Apply/Revert
// maintain both.
func warm(t *testing.T, e *Engine) {
	t.Helper()
	if _, err := e.Timing(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LeakQuantile(0.99); err != nil {
		t.Fatal(err)
	}
}

// retimeRevert reverts m on e through the re-timing path: with no
// last-applied move on record, noteChange re-times the cone.
func retimeRevert(t *testing.T, e *Engine, m Move) {
	t.Helper()
	e.lastApplied = nil
	if err := e.Revert(m); err != nil {
		t.Fatal(err)
	}
}

// TestRevertUndoAcrossRefresh drives rejected moves (apply, then
// revert) through an engine that undoes and a twin that re-times,
// across several RefreshEvery boundaries. The two must stay equal bit
// for bit, the refresh schedule must not move, and a revert must be
// undone exactly when no refresh fell between it and its apply.
func TestRevertUndoAcrossRefresh(t *testing.T) {
	e, d := testEngine(t, "s432", Config{RefreshEvery: 7})
	twin, _ := testEngine(t, "s432", Config{RefreshEvery: 7})
	warm(t, e)
	warm(t, twin)
	ids := gateIDs(d)
	rng := rand.New(rand.NewSource(43))
	undone, refreshed := 0, 0
	for step := 0; step < 60; step++ {
		m, ok := randomMove(d, ids, rng)
		if !ok {
			continue
		}
		if err := e.Apply(m); err != nil {
			t.Fatal(err)
		}
		if err := twin.Apply(m); err != nil {
			t.Fatal(err)
		}
		crossed := e.sinceRefresh == 0
		u0 := undoCount()
		if err := e.Revert(m); err != nil {
			t.Fatal(err)
		}
		retimeRevert(t, twin, m)
		du := undoCount() - u0
		switch {
		case crossed && du != 0:
			t.Fatalf("step %d: revert after a refresh was undone", step)
		case !crossed && du != 1:
			t.Fatalf("step %d: revert of the last applied move not undone (%v undos)", step, du)
		}
		if crossed {
			refreshed++
		} else {
			undone++
		}
		if e.sinceRefresh != twin.sinceRefresh {
			t.Fatalf("step %d: refresh count %d, twin %d", step, e.sinceRefresh, twin.sinceRefresh)
		}
		if where := bitsDiff(timingBits(t, e), timingBits(t, twin)); where != "" {
			t.Fatalf("step %d: undo and re-timing differ at %s", step, where)
		}
		l, err := e.LeakQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		lt, err := twin.LeakQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(l) != math.Float64bits(lt) {
			t.Fatalf("step %d: leakage q99 %v, twin %v", step, l, lt)
		}
	}
	if undone == 0 || refreshed == 0 {
		t.Fatalf("sequence exercised %d undos and %d refresh boundaries; want both", undone, refreshed)
	}
}

// TestTxnPeelUndoesOnlyTop peels a three-move transaction. Only the
// top move is the last one applied, so only its revert is undone —
// landing exactly on the bits held before it was applied; the deeper
// peels re-time and must agree with a full analysis.
func TestTxnPeelUndoesOnlyTop(t *testing.T) {
	e, d := testEngine(t, "s432", Config{})
	warm(t, e)
	ids := gateIDs(d)
	rng := rand.New(rand.NewSource(47))
	txn := e.Begin()
	var beforeTop []ssta.Canonical
	for txn.Len() < 3 {
		m, ok := randomMove(d, ids, rng)
		if !ok {
			continue
		}
		beforeTop = timingBits(t, e)
		if err := txn.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	for peel := 0; peel < 3; peel++ {
		u0 := undoCount()
		if _, err := txn.PopRevert(); err != nil {
			t.Fatal(err)
		}
		du := undoCount() - u0
		if peel == 0 {
			if du != 1 {
				t.Fatalf("top peel: %v undos, want 1", du)
			}
			if where := bitsDiff(timingBits(t, e), beforeTop); where != "" {
				t.Fatalf("top peel did not restore the pre-apply bits at %s", where)
			}
			continue
		}
		if du != 0 {
			t.Fatalf("peel %d: %v undos, want 0 (not the last applied move)", peel, du)
		}
		full, err := ssta.Analyze(d)
		if err != nil {
			t.Fatal(err)
		}
		q, err := e.DelayQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		if re := relErr(q, full.Quantile(0.99)); re > 1e-9 {
			t.Fatalf("peel %d: delay q99 %.12g, full %.12g", peel, q, full.Quantile(0.99))
		}
	}
}

// TestFamilyRevertUndo: a family revert undoes on every corner, and a
// 2-corner family that undoes stays bit for bit equal to a twin that
// re-times.
func TestFamilyRevertUndo(t *testing.T) {
	spec := func() *scenario.Matrix {
		m, err := (&scenario.Spec{Temps: []float64{0, 110}}).Build()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	f := testFamily(t, "s432", Config{}, spec())
	twin := testFamily(t, "s432", Config{}, spec())
	if f.NumCorners() != 2 {
		t.Fatalf("family has %d corners, want 2", f.NumCorners())
	}
	for i := range f.Engines() {
		warm(t, f.Engines()[i])
		warm(t, twin.Engines()[i])
	}
	d := f.Design()
	ids := gateIDs(d)
	rng := rand.New(rand.NewSource(53))
	for step := 0; step < 40; step++ {
		m, ok := randomMove(d, ids, rng)
		if !ok {
			continue
		}
		if err := f.Apply(m); err != nil {
			t.Fatal(err)
		}
		if err := twin.Apply(m); err != nil {
			t.Fatal(err)
		}
		u0 := undoCount()
		if err := f.Revert(m); err != nil {
			t.Fatal(err)
		}
		if du := undoCount() - u0; du != 2 {
			t.Fatalf("step %d: %v undos, want one per corner", step, du)
		}
		for _, e := range twin.Engines() {
			e.lastApplied = nil
		}
		if err := twin.Revert(m); err != nil {
			t.Fatal(err)
		}
		for i, e := range f.Engines() {
			if where := bitsDiff(timingBits(t, e), timingBits(t, twin.Engines()[i])); where != "" {
				t.Fatalf("step %d corner %q: undo and re-timing differ at %s", step, f.Names()[i], where)
			}
		}
	}
}
