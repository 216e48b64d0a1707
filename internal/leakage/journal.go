package leakage

// Journal support: a scoring worker that keeps a persistent
// Accumulator across rounds (see engine.ScoreAllCtx) records every value
// it is about to overwrite and restores the lot when the round ends,
// so the worker's state returns bitwise to its pre-round snapshot —
// including the floating-point drift a clone-per-round scorer would
// have discarded with the clone. The journal is O(state touched): the
// scalar sums and the k-vectors are snapshotted once, the per-gate
// stride-3 rows (see Accumulator.pg) only on the first Update of each
// gate, copied into one flat undo slice.
type accJournal struct {
	M, Q, d1, d2, gateLeak, second2 float64
	v, b                            []float64

	ids []int     // gates touched, in first-touch order
	pg  []float64 // pre-touch stride-3 rows, parallel to ids

	// First-touch detection by generation stamp: stamp[id] == gen marks
	// id as already recorded this round. Bumping gen retires a whole
	// round in O(1) — no per-round map clearing on the scoring hot path.
	stamp []int
	gen   int
}

// StartJournal begins recording. Every Update until RestoreJournal is
// undone exactly by RestoreJournal; nesting is not supported (a second
// Start before Restore re-snapshots and forgets the first).
func (a *Accumulator) StartJournal() {
	j := a.journal
	if j == nil {
		j = a.spare
		if j == nil {
			j = &accJournal{}
		}
		a.spare = nil
		a.journal = j
	}
	if len(j.stamp) < a.numGates() {
		j.stamp = make([]int, a.numGates())
		j.gen = 0
	}
	j.gen++
	j.M, j.Q, j.d1, j.d2 = a.M, a.Q, a.d1, a.d2
	j.gateLeak, j.second2 = a.gateLeak, a.second2
	j.v = append(j.v[:0], a.v...)
	j.b = append(j.b[:0], a.b...)
	j.ids = j.ids[:0]
	j.pg = j.pg[:0]
}

// RestoreJournal puts the accumulator back to its StartJournal state
// bitwise and stops recording. A no-op if no journal is active.
func (a *Accumulator) RestoreJournal() {
	j := a.journal
	if j == nil {
		return
	}
	a.M, a.Q, a.d1, a.d2 = j.M, j.Q, j.d1, j.d2
	a.gateLeak, a.second2 = j.gateLeak, j.second2
	copy(a.v, j.v)
	copy(a.b, j.b)
	for i, id := range j.ids {
		copy(a.pg[pgStride*id:pgStride*id+pgStride], j.pg[pgStride*i:pgStride*i+pgStride])
	}
	a.journal = nil
	a.spare = j // keep the allocations for the next round
}

// note records gate id's cached row before its first overwrite.
func (j *accJournal) note(a *Accumulator, id int) {
	if j.stamp[id] == j.gen {
		return
	}
	j.stamp[id] = j.gen
	j.ids = append(j.ids, id)
	j.pg = append(j.pg, a.pg[pgStride*id:pgStride*id+pgStride]...)
}
