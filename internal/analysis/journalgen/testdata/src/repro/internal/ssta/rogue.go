// Fixture: rogue.go is not an owner file, so reading or retiring the
// undo record here bypasses the rule that every journal start and
// restore retires it, and reusing a journal's spare allocations here
// bypasses the generation stamps.
package ssta

func (inc *Incremental) peekUndo() bool {
	return inc.undo.ok // want `journal state Incremental\.undo touched outside its owner files`
}

func (inc *Incremental) recycle() {
	inc.journal = inc.spare // want `journal state Incremental\.journal touched outside its owner files` `journal state Incremental\.spare touched outside its owner files`
}
