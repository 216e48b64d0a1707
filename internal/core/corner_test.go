package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/tech"
)

// TestCornerView pins the corner-view contract: the view aliases the
// base assignment arrays (a write through either side is visible to
// both), swaps the library, carries the bias vector, and rejects
// malformed inputs.
func TestCornerView(t *testing.T) {
	d := c17(t)
	n := d.Circuit.NumNodes()

	p, err := tech.Preset("100nm")
	if err != nil {
		t.Fatal(err)
	}
	p.TempC = 110
	hot, err := tech.NewLibrary(p)
	if err != nil {
		t.Fatal(err)
	}

	bias := make([]float64, n)
	for i := range bias {
		bias[i] = 0.02
	}
	v, err := d.CornerView(hot, bias)
	if err != nil {
		t.Fatal(err)
	}
	if v.Lib != hot {
		t.Fatal("view did not swap the library")
	}
	if v.Circuit != d.Circuit || v.Var != d.Var {
		t.Fatal("view must share circuit and variation model")
	}

	// The assignment arrays are aliased, not copied: a move applied to
	// the base is immediately visible through the view and vice versa.
	id := -1
	for _, g := range d.Circuit.Gates() {
		if g.Type.Arity() > 0 {
			id = g.ID
			break
		}
	}
	if id < 0 {
		t.Fatal("no logic gate")
	}
	want := tech.HighVth
	if d.Vth[id] == tech.HighVth {
		want = tech.LowVth
	}
	if err := d.SetVth(id, want); err != nil {
		t.Fatal(err)
	}
	if v.Vth[id] != want {
		t.Fatal("view does not alias the Vth assignment")
	}
	if err := v.SetVth(id, tech.HighVth); err != nil {
		t.Fatal(err)
	}
	if d.Vth[id] != tech.HighVth {
		t.Fatal("base does not see writes through the view")
	}

	// Reverse bias raises Vth: the biased view must be slower and
	// leak less than an unbiased view over the same library.
	unbiased, err := d.CornerView(hot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unbiased.BiasVth != nil {
		t.Fatal("nil bias must stay nil on the view")
	}
	if gd, ud := v.GateDelay(id), unbiased.GateDelay(id); gd <= ud {
		t.Errorf("reverse-biased delay %g must exceed unbiased %g", gd, ud)
	}
	if gl, ul := v.GateLeak(id), unbiased.GateLeak(id); gl >= ul {
		t.Errorf("reverse-biased leak %g must undercut unbiased %g", gl, ul)
	}
	if bt, ut := v.TotalLeak(), unbiased.TotalLeak(); bt >= ut {
		t.Errorf("reverse-biased total leak %g must undercut unbiased %g", bt, ut)
	}

	// A nil library falls back to the base's.
	same, err := d.CornerView(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if same.Lib != d.Lib {
		t.Fatal("nil library must reuse the base library")
	}

	// Validation: bias vector length and ladder compatibility.
	if _, err := d.CornerView(hot, make([]float64, n+1)); err == nil {
		t.Fatal("wrong-length bias vector must error")
	}
	short := *hot
	short.Sizes = hot.Sizes[:1]
	if _, err := d.CornerView(&short, nil); err == nil {
		t.Fatal("mismatched size ladder must error")
	}
}

// TestCellAtMatchesApplyThenRead pins the read-only cell evaluator:
// for every gate at every (Vth, size), CellAt equals, bitwise, what
// GateDelay, GateSubLeak, GateGateLeak and GateLeak read once the
// assignment is applied — on a plain design and on a hot, body-biased
// corner view.
func TestCellAtMatchesApplyThenRead(t *testing.T) {
	d := c17(t)
	p, err := tech.Preset("100nm")
	if err != nil {
		t.Fatal(err)
	}
	p.TempC = 110
	hot, err := tech.NewLibrary(p)
	if err != nil {
		t.Fatal(err)
	}
	bias := make([]float64, d.Circuit.NumNodes())
	for i := range bias {
		bias[i] = 0.01 * float64(i%5-2) // forward and reverse bias
	}
	biased, err := d.CornerView(hot, bias)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, v := range map[string]*core.Design{"plain": d, "biased": biased} {
		for _, g := range v.Circuit.Gates() {
			id := g.ID
			v0, s0 := v.Vth[id], v.Size[id]
			for vth := tech.VthClass(0); vth < tech.NumVthClasses; vth++ {
				for _, size := range v.Lib.Sizes {
					if err := v.SetVth(id, vth); err != nil {
						t.Fatal(err)
					}
					if err := v.SetSize(id, size); err != nil {
						t.Fatal(err)
					}
					load := v.Load(id)
					delay, sub, gate, leak := v.GateDelay(id), v.GateSubLeak(id), v.GateGateLeak(id), v.GateLeak(id)
					if err := v.SetVth(id, v0); err != nil {
						t.Fatal(err)
					}
					if err := v.SetSize(id, s0); err != nil {
						t.Fatal(err)
					}
					c := v.CellAt(id, vth, size, load)
					if !same(c.DelayPs, delay) || !same(c.SubLeakNW, sub) ||
						!same(c.GateLeakNW, gate) || !same(c.LeakNW(), leak) {
						t.Fatalf("%s gate %s at (%v, %g): CellAt %+v (leak %v), applied (%v, %v, %v, %v)",
							name, g.Name, vth, size, c, c.LeakNW(), delay, sub, gate, leak)
					}
				}
			}
		}
	}
}
