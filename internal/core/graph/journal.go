package graph

// Journal records the creation indices of variables whose snapshot entry
// may have changed since it was last drained: the resolution layer notes
// the variables whose least solution it changed (a least-solution pass's
// cone; under standard form, a variable that gains a source), and the
// store notes every variable that Forward merges away or ResetVar
// restores. A snapshot
// capture drains it and re-copies only those entries, so its cost follows
// the change since the previous capture, not the graph. Each index is
// listed at most once between drains.
//
// A store has no journal until EnableJournal, so solvers that never
// capture pay one nil check at each noting site and nothing else.
type Journal struct {
	marked []uint64 // bit per creation index: listed in dirty
	dirty  []int
}

// Note records that v's entry may have changed.
func (j *Journal) Note(v *Var) {
	w := v.id / 64
	for w >= len(j.marked) {
		j.marked = append(j.marked, 0)
	}
	if j.marked[w]&(1<<(v.id%64)) != 0 {
		return
	}
	j.marked[w] |= 1 << (v.id % 64)
	j.dirty = append(j.dirty, v.id)
}

// Drain returns the indices noted since the previous Drain and empties
// the journal. The returned slice is reused by later notes; consume it
// before the store is mutated again.
func (j *Journal) Drain() []int {
	out := j.dirty
	for _, id := range out {
		j.marked[id/64] &^= 1 << (id % 64)
	}
	j.dirty = j.dirty[:0]
	return out
}

// EnableJournal switches the store's journal on (idempotent). Changes
// made before the first call are not recorded.
func (st *Store) EnableJournal() {
	if st.journal == nil {
		st.journal = &Journal{}
	}
}

// Journal returns the store's journal, nil until EnableJournal.
func (st *Store) Journal() *Journal { return st.journal }
