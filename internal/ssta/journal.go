package ssta

// Journal support: a persistent scoring worker (see engine.ScoreAll)
// records every arrival form an Update overwrites and restores them
// when the round ends, returning the timer bitwise to its pre-round
// state. Recording is O(cones touched): the circuit-delay form is
// snapshotted once, each arrival only on its first overwrite. With
// the structure-of-arrays layout the replaced rows are copied into
// three flat undo slices (Update now overwrites rows in place, so the
// old storage cannot be aliased the way the per-gate []Canonical
// layout allowed), and restore is a contiguous copy-back per touched
// row — bitwise, by construction. The delay snapshot stays by value:
// refold always allocates Result.Delay freshly.
type incJournal struct {
	delay Canonical
	ids   []int     // nodes touched, in first-touch order
	mean  []float64 // pre-touch row values, parallel to ids
	rand  []float64
	sens  []float64 // len(ids)×NumPC row-major

	// First-touch detection by generation stamp: stamp[id] == gen marks
	// id as already recorded this round. Bumping gen retires a whole
	// round in O(1) — no per-round map clearing on the scoring hot path.
	stamp []int
	gen   int
}

// StartJournal begins recording. Every Update until RestoreJournal is
// undone exactly by RestoreJournal; nesting is not supported (a second
// Start before Restore re-snapshots and forgets the first).
func (inc *Incremental) StartJournal() {
	j := inc.journal
	if j == nil {
		j = inc.spare
		if j == nil {
			j = &incJournal{}
		}
		inc.spare = nil
		inc.journal = j
	}
	inc.undo.ok = false
	if len(j.stamp) < len(inc.res.mean) {
		j.stamp = make([]int, len(inc.res.mean))
		j.gen = 0
	}
	j.gen++
	j.delay = inc.res.Delay
	j.ids = j.ids[:0]
	j.mean = j.mean[:0]
	j.rand = j.rand[:0]
	j.sens = j.sens[:0]
}

// RestoreJournal puts the timing view back to its StartJournal state
// bitwise and stops recording. A no-op if no journal is active.
func (inc *Incremental) RestoreJournal() {
	j := inc.journal
	if j == nil {
		return
	}
	inc.undo.ok = false
	k := inc.res.NumPC
	for i, id := range j.ids {
		inc.res.mean[id] = j.mean[i]
		inc.res.rand[id] = j.rand[i]
		copy(inc.res.sens[id*k:(id+1)*k], j.sens[i*k:(i+1)*k])
	}
	inc.res.Delay = j.delay
	inc.journal = nil
	inc.spare = j // keep the allocations for the next round
}

// dropRecords retires the active journal (keeping its allocations for
// the next round) and the undo record: a rebuilt timing view owes
// neither anything.
func (inc *Incremental) dropRecords() {
	if inc.journal != nil {
		inc.spare, inc.journal = inc.journal, nil
	}
	inc.undo.ok = false
}

// note records the arrival row of node id before its first overwrite.
func (j *incJournal) note(inc *Incremental, id int) {
	if j.stamp[id] == j.gen {
		return
	}
	j.stamp[id] = j.gen
	j.ids = append(j.ids, id)
	j.mean = append(j.mean, inc.res.mean[id])
	j.rand = append(j.rand, inc.res.rand[id])
	k := inc.res.NumPC
	j.sens = append(j.sens, inc.res.sens[id*k:(id+1)*k]...)
}

// Undo support: a rejected optimizer move is applied, checked and
// reverted. Re-timing the revert walks the same cone the apply just
// walked; the one-deep undo record below lets the revert copy back the
// rows the apply overwrote instead, returning the timer to exactly the
// bits it held before the apply (the circuit-delay form is snapshotted
// by value, as in the journal).
//
// Where the old rows were exact functions of their fanins — after a
// full analysis, for as long as every move is rejected — a re-timing
// revert recomputes those same bits, so the two are identical. After
// kept moves, Update's convergence pruning may have left rows that
// differ from a fresh evaluation by less than its 1e-12 tolerance; a
// re-timing revert then rewrites them and can land a last bit away,
// while the copy-back keeps the old bits. Both are equally accurate;
// the copy-back is the one that makes a rejected move net-zero bit for
// bit, as journaled scoring already is.
type incUndo struct {
	ok    bool // the record describes the timer's last mutation
	seed  int  // the gate that Update was seeded with
	delay Canonical
	ids   []int     // nodes the Update overwrote
	mean  []float64 // their previous rows, parallel to ids
	rand  []float64
	sens  []float64 // len(ids)×NumPC row-major
}

// begin starts recording for an Update seeded with changed. Only a
// single-gate Update can be undone; the buffers are kept either way.
func (u *incUndo) begin(inc *Incremental, changed []int) {
	u.ok = len(changed) == 1
	if u.ok {
		u.seed = changed[0]
	}
	u.delay = inc.res.Delay
	u.ids = u.ids[:0]
	u.mean = u.mean[:0]
	u.rand = u.rand[:0]
	u.sens = u.sens[:0]
}

// note records the row of node id before Update overwrites it. Update
// writes each row at most once, so no first-touch check is needed.
func (u *incUndo) note(inc *Incremental, id int) {
	u.ids = append(u.ids, id)
	u.mean = append(u.mean, inc.res.mean[id])
	u.rand = append(u.rand, inc.res.rand[id])
	k := inc.res.NumPC
	u.sens = append(u.sens, inc.res.sens[id*k:(id+1)*k]...)
}

// Undo reverts the timer's last Update without re-timing, once the
// caller has put gate id back in the design: it copies back the rows
// and the circuit-delay form that Update overwrote and drops the
// cached loads of id's drivers, as Update does. It reports false, and
// changes nothing, unless the last mutation of the timer was an
// Update seeded with id alone; any other Update, a journal start or
// restore, or a Rebuild in between retires the record. The caller
// then re-times with Update instead.
func (inc *Incremental) Undo(id int) bool {
	u := &inc.undo
	if !u.ok || u.seed != id {
		return false
	}
	u.ok = false
	k := inc.res.NumPC
	for i, n := range u.ids {
		inc.res.mean[n] = u.mean[i]
		inc.res.rand[n] = u.rand[i]
		copy(inc.res.sens[n*k:(n+1)*k], u.sens[i*k:(i+1)*k])
	}
	inc.res.Delay = u.delay
	for _, f := range inc.d.Circuit.Gate(id).Fanin {
		inc.loadOK[f] = false
	}
	metIncUndos.Inc()
	return true
}
