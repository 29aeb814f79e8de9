package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"
)

// This file implements constraint retraction (DESIGN.md §12): batch
// footprints plus rollback and ordered replay.
//
// With Options.Retractable set, every top-level constraint is added inside
// a batch (BeginBatch/EndBatch; the façade wraps single adds in implicit
// one-constraint batches). While a batch is open, every variable an edge
// attempt or collapse touches — post-find endpoints, fresh and redundant
// attempts alike — joins its footprint, and the batch joins the
// variable's posting list. Both endpoints of every insertion land in the
// inserting batch's footprint, so footprint-connected groups of batches
// own edge-disjoint regions of the graph.
//
// RetractBatches walks the postings to the dirty region — every batch
// reachable from the retracted ones through shared footprint variables —
// resets the region's variables to their created state (which
// un-collapses its witnesses), and replays the surviving region batches
// in application order, which is id order. Clean regions are untouched,
// so the result is bit-identical to a from-scratch solve of the
// survivors (retract_test.go and FuzzRetractDifferential are the gates),
// a fact two batches derive survives losing one because the other's
// replay derives it again, and the cost is O(region), not O(graph).
//
// The replay argument needs every mutation to happen inside a tracked
// batch: CyclePeriodic's interval-coupled global sweeps are rejected at
// construction, and an offline CollapseCycles on a retractable system
// taints it (subsequent retraction fails with ErrNotRetractable rather
// than returning wrong answers). Variable creation is never undone — the
// vocabulary (creation indices, random orders, interned terms) is
// monotone, which is what lets a replayed batch reuse its original
// expression pointers.

// ErrUnknownBatch is returned by RetractBatches when an id does not name a
// live (previously added, not yet retracted) batch.
var ErrUnknownBatch = errors.New("polce: unknown constraint batch")

// ErrNotRetractable is returned by RetractBatches when the system was not
// built with Options.Retractable, or when the graph has been mutated
// outside batch tracking (an offline CollapseCycles) so replay could no
// longer reproduce it.
var ErrNotRetractable = errors.New("polce: solver not configured for retraction")

// RetractReport describes one RetractBatches pass: how many batches were
// retracted, the size of the dirty cone that was rolled back (DirtyVars out
// of TotalVars canonical variables at entry — the cone being much smaller
// than the graph is the whole point), and how much surviving work was
// replayed. NoOp reports that no retracted batch had ever mutated the
// graph, so the graph was left as it was. The same struct is delivered to
// MetricsSink.RetractDone.
type RetractReport struct {
	// Duration is the wall-clock time of the whole retraction, rollback
	// and replay included.
	Duration time.Duration `json:"duration_ns"`
	// Batches is the number of batches retracted by this call.
	Batches int `json:"batches"`
	// DirtyVars is the number of variables in the rolled-back dirty cone;
	// TotalVars is the number of canonical variables when the call began.
	DirtyVars int `json:"dirty_vars"`
	TotalVars int `json:"total_vars"`
	// ReplayedBatches and ReplayedConstraints count the surviving batches
	// (and their top-level constraints) re-applied during the rebuild.
	ReplayedBatches     int `json:"replayed_batches"`
	ReplayedConstraints int `json:"replayed_constraints"`
	// NoOp reports that the graph was left physically untouched: every
	// retracted batch's attempts were redundant and it caused no collapse.
	NoOp bool `json:"noop"`
}

// retractCon is one recorded top-level constraint of a batch, kept for
// replay. The expression pointers stay valid across rollback because the
// vocabulary is never undone.
type retractCon struct{ l, r Expr }

// batchRecord is the undo-log entry for one batch: its constraints in
// application order, its variable footprint, and its mutation counters.
type batchRecord struct {
	id      uint64
	cons    []retractCon
	touched []*Var // footprint, each variable once

	inserted int // fresh edge attempts, including those a collapse consumed
	errs     int // inconsistencies recorded while this batch was open

	dirty bool // in the dirty region of the retraction in progress
}

// mutated reports whether the batch changed the graph at all. Every online
// collapse is triggered by a fresh edge attempt, so inserted covers it.
func (b *batchRecord) mutated() bool { return b.inserted > 0 }

// resetForReplay clears the footprint and counters while keeping the
// recorded constraints; the replay re-records them as it re-applies.
func (b *batchRecord) resetForReplay() {
	b.touched = b.touched[:0]
	b.inserted, b.errs = 0, 0
}

// retractState is the per-system retraction bookkeeping, allocated only
// when Options.Retractable is set; a nil *retractState costs one branch
// per hook site on the hot paths.
type retractState struct {
	nextID  uint64
	active  *batchRecord
	batches map[uint64]*batchRecord

	// postings maps a variable's creation index to the live batches whose
	// footprint holds it, in application order.
	postings [][]*batchRecord

	// errBatch runs parallel to System.errs: the batch id each retained
	// error is attributed to (0 when recorded outside any batch).
	errBatch []uint64

	// tainted is set when the graph is mutated with no batch open (an
	// offline CollapseCycles); retraction then refuses rather than replay
	// from an unreproducible state.
	tainted bool
}

func newRetractState() *retractState {
	return &retractState{batches: make(map[uint64]*batchRecord)}
}

// touch adds v to b's footprint and b to v's postings, once per batch.
func (r *retractState) touch(b *batchRecord, v *Var) {
	id := v.ID()
	if id >= len(r.postings) {
		r.postings = append(r.postings, make([][]*batchRecord, id+1-len(r.postings))...)
	}
	p := r.postings[id]
	if n := len(p); n > 0 && p[n-1] == b {
		return
	}
	r.postings[id] = append(p, b)
	b.touched = append(b.touched, v)
}

// unpost removes b from the postings of every variable in its footprint.
func (r *retractState) unpost(b *batchRecord) {
	for _, v := range b.touched {
		id := v.ID()
		r.postings[id] = slices.DeleteFunc(r.postings[id], func(q *batchRecord) bool { return q == b })
	}
}

// Retractable reports whether the system tracks batches for retraction.
func (s *System) Retractable() bool { return s.retract != nil }

// BatchCount returns the number of live (added, not yet retracted) batches
// tracked for retraction; zero when the system is not retractable.
func (s *System) BatchCount() int {
	if s.retract == nil {
		return 0
	}
	return len(s.retract.batches)
}

// BeginBatch opens a batch: until EndBatch, every AddConstraint is
// recorded under one retraction handle, returned here. On a
// non-retractable system it returns 0 and records nothing.
func (s *System) BeginBatch() uint64 {
	r := s.retract
	if r == nil {
		return 0
	}
	if r.active != nil {
		panic("core: BeginBatch inside an open batch")
	}
	r.nextID++
	b := &batchRecord{id: r.nextID}
	r.batches[b.id] = b
	r.active = b
	return b.id
}

// EndBatch closes the open batch (no-op when none is open).
func (s *System) EndBatch() {
	if r := s.retract; r != nil {
		r.active = nil
	}
}

// Hook helpers, called from the resolution engine behind a nil check on
// s.retract so the non-retractable hot path pays one branch per site.

// retractEdge records an attempted edge on x, and on y for a variable edge
// x ⊆ y (y is nil for source and sink edges). A fresh attempt that the
// cycle strategy consumes (collapsing instead of inserting) still counts
// as a mutation: the collapse hook adds the merged variables, and the
// inserted counter makes the batch a seed of the retraction fixpoint.
func (s *System) retractEdge(x, y *Var, fresh bool) {
	r := s.retract
	b := r.active
	if b == nil {
		if fresh {
			r.tainted = true
		}
		return
	}
	r.touch(b, x)
	if y != nil {
		r.touch(b, y)
	}
	if fresh {
		b.inserted++
	}
}

func (s *System) retractCollapse(witness *Var, merged []*Var) {
	r := s.retract
	b := r.active
	if b == nil {
		r.tainted = true
		return
	}
	r.touch(b, witness)
	for _, v := range merged {
		r.touch(b, v)
	}
}

func (s *System) retractErr(retained bool) {
	r := s.retract
	var id uint64
	if b := r.active; b != nil {
		b.errs++
		id = b.id
	}
	if retained {
		r.errBatch = append(r.errBatch, id)
	}
}

// dropErrors removes every retained error attributed to a batch marked
// dirty and subtracts the given batches' full error counts (dropped ones
// included) from the running total. The batches must all be marked and
// still registered. Survivors' errors are re-recorded by the replay.
func (s *System) dropErrors(dirty []*batchRecord) {
	r := s.retract
	for _, b := range dirty {
		s.errCount -= b.errs
		b.errs = 0
	}
	errs := s.errs[:0]
	ids := r.errBatch[:0]
	for i, e := range s.errs {
		id := r.errBatch[i]
		if b := r.batches[id]; b != nil && b.dirty {
			continue
		}
		errs = append(errs, e)
		ids = append(ids, id)
	}
	s.errs = errs
	r.errBatch = ids
}

// RetractBatches removes the named batches' constraints as if they had
// never been added, preserving everything the surviving constraints
// justify. It validates every id first (ErrUnknownBatch names the first
// unknown one; nothing is retracted), computes the entangled dirty region,
// rolls it back, and replays the surviving batches of the region in their
// original order. Duplicate ids are allowed and retract once.
//
// The call must not run inside an open batch, and the worklist is empty
// between top-level adds, so the façade can call this under the same lock
// as AddConstraint.
func (s *System) RetractBatches(ids []uint64) (RetractReport, error) {
	r := s.retract
	if r == nil {
		return RetractReport{}, ErrNotRetractable
	}
	if r.active != nil {
		panic("core: RetractBatches inside an open batch")
	}
	if len(s.work) != 0 {
		panic("core: RetractBatches with a non-empty worklist")
	}
	targets := make([]*batchRecord, 0, len(ids))
	for _, id := range ids {
		b, ok := r.batches[id]
		if !ok {
			return RetractReport{}, fmt.Errorf("%w: batch %d", ErrUnknownBatch, id)
		}
		if !slices.Contains(targets, b) {
			targets = append(targets, b)
		}
	}
	if r.tainted {
		return RetractReport{}, fmt.Errorf("%w: graph was mutated outside batch tracking (offline collapse)", ErrNotRetractable)
	}
	start := time.Now()
	rep := RetractReport{
		Batches:   len(targets),
		TotalVars: s.store.NumLive(),
	}

	// Entanglement fixpoint, seeded with the retracted batches that
	// actually mutated the graph: a batch is dirty when its footprint
	// meets a dirty variable; a variable is dirty when a dirty batch
	// touched it. Each dirty variable's postings are walked once and
	// cleared (replay re-posts them), so an empty list marks a variable
	// already taken: every footprint variable holds its own batch's
	// posting.
	var region []*batchRecord
	for _, b := range targets {
		if b.mutated() {
			b.dirty = true
			region = append(region, b)
		}
	}
	var cone []*Var
	for i := 0; i < len(region); i++ {
		for _, v := range region[i].touched {
			p := r.postings[v.ID()]
			if len(p) == 0 {
				continue
			}
			r.postings[v.ID()] = p[:0]
			cone = append(cone, v)
			for _, nb := range p {
				if !nb.dirty {
					nb.dirty = true
					region = append(region, nb)
				}
			}
		}
	}
	// Targets that never mutated the graph and sit outside the region
	// only lose their postings: their edges stay, inserted by survivors.
	for _, b := range targets {
		if !b.dirty {
			r.unpost(b)
			b.dirty = true
			region = append(region, b)
		}
	}

	// Rollback: reset every dirty variable to its created state (this
	// un-collapses every witness in the region and retires its arena
	// segments), invalidate its least-solution entry, and drop the dirty
	// batches' errors. With an empty cone the graph, version and
	// least-solution cache stay as they were unless errors went.
	for _, v := range cone {
		s.store.ResetVar(v)
		s.dropConsumers(v)
		s.markLS(v)
	}
	anyErrs := false
	for _, b := range region {
		anyErrs = anyErrs || b.errs > 0
	}
	if anyErrs {
		s.dropErrors(region)
		if len(cone) == 0 {
			s.graphVersion++
		}
	}
	rep.NoOp = len(cone) == 0 && !anyErrs

	// Replay the surviving dirty batches in original application order.
	// Clean batches' regions are untouched; dirty survivors rebuild their
	// components exactly as a from-scratch solve of the survivors would.
	replay := make([]*batchRecord, 0, len(region))
	for _, b := range region {
		b.dirty = false
		if !slices.Contains(targets, b) {
			replay = append(replay, b)
		}
	}
	slices.SortFunc(replay, func(a, b *batchRecord) int { return cmp.Compare(a.id, b.id) })
	for _, b := range replay {
		b.resetForReplay()
		r.active = b
		for _, c := range b.cons {
			s.push(c.l, c.r)
			s.drain(false)
		}
		r.active = nil
		rep.ReplayedBatches++
		rep.ReplayedConstraints += len(b.cons)
	}
	s.removeBatches(targets)

	rep.DirtyVars = len(cone)
	rep.Duration = time.Since(start)
	s.finishRetract(rep)
	return rep, nil
}

// removeBatches deletes the retracted batches' records.
func (s *System) removeBatches(targets []*batchRecord) {
	for _, b := range targets {
		delete(s.retract.batches, b.id)
	}
}

// finishRetract updates the retraction counters and notifies the sink.
func (s *System) finishRetract(rep RetractReport) {
	s.stats.Retractions++
	s.stats.RetractConeVars += int64(rep.DirtyVars)
	s.stats.RetractReplayed += int64(rep.ReplayedConstraints)
	if s.opt.Metrics != nil {
		s.opt.Metrics.RetractDone(rep)
	}
}
