// Fixture: a stand-in for the ssta package (the package path is what
// the ownership table keys on). incremental.go is an owner file of the
// undo record — Update records into it.
package ssta

type incUndo struct {
	ok  bool
	ids []int
}

type incJournal struct{ ids []int }

type Incremental struct {
	journal *incJournal
	spare   *incJournal
	undo    incUndo
}

func (inc *Incremental) Update(id int) {
	inc.undo.ok = true
	inc.undo.ids = append(inc.undo.ids[:0], id)
}
