package polce_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"polce"
	"polce/internal/walreplay"
)

// TestSnapshotCaching pins the epoch guard: snapshots of an unchanged
// graph are the same object, and any least-solution-changing mutation
// produces a fresh one.
func TestSnapshotCaching(t *testing.T) {
	for _, form := range []polce.Form{polce.SF, polce.IF} {
		s := polce.New(polce.Options{Form: form, Cycles: polce.CycleOnline, Seed: 9})
		a := atoms(2)
		x := s.Fresh("X")
		y := s.Fresh("Y")
		s.AddConstraint(a[0], x)
		s.AddConstraint(x, y)

		s1 := s.Snapshot()
		if s2 := s.Snapshot(); s2 != s1 {
			t.Fatalf("%v: unchanged graph rebuilt the snapshot", form)
		}
		// A redundant re-add leaves the version, and hence the snapshot,
		// untouched.
		s.AddConstraint(a[0], x)
		if s2 := s.Snapshot(); s2 != s1 {
			t.Fatalf("%v: redundant re-add invalidated the snapshot", form)
		}
		s.AddConstraint(a[1], y)
		s3 := s.Snapshot()
		if s3 == s1 || s3.Version() <= s1.Version() {
			t.Fatalf("%v: mutation did not advance the snapshot", form)
		}
		if got := lsNames(s1.LeastSolution(y)); len(got) != 1 {
			t.Fatalf("%v: old snapshot LS(Y) = %v, want 1 atom", form, got)
		}
		if got := lsNames(s3.LeastSolution(y)); len(got) != 2 {
			t.Fatalf("%v: new snapshot LS(Y) = %v, want 2 atoms", form, got)
		}
		if s3.Form() != form || s3.NumVars() != 2 {
			t.Fatalf("%v: snapshot meta form=%v vars=%d", form, s3.Form(), s3.NumVars())
		}
	}
}

// TestSnapshotIsolation checks that a captured snapshot is frozen: later
// ingestion, collapses included, must not change what an old snapshot
// reports.
func TestSnapshotIsolation(t *testing.T) {
	for _, form := range []polce.Form{polce.SF, polce.IF} {
		s := polce.New(polce.Options{Form: form, Cycles: polce.CycleOnline, Seed: 11})
		a := atoms(8)
		vars := make([]*polce.Var, 40)
		for i := range vars {
			vars[i] = s.Fresh(fmt.Sprintf("v%d", i))
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 80; i++ {
			s.AddConstraint(a[rng.Intn(len(a))], vars[rng.Intn(len(vars))])
			s.AddConstraint(vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))])
		}
		snap := s.Snapshot()
		frozen := make([][]string, len(vars))
		for i, v := range vars {
			frozen[i] = lsNames(snap.LeastSolution(v))
		}
		// Keep ingesting, forcing plenty of new sources and collapses.
		for i := 0; i < 200; i++ {
			s.AddConstraint(a[rng.Intn(len(a))], vars[rng.Intn(len(vars))])
			s.AddConstraint(vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))])
		}
		s.ComputeLeastSolutions()
		for i, v := range vars {
			if got := lsNames(snap.LeastSolution(v)); fmt.Sprint(got) != fmt.Sprint(frozen[i]) {
				t.Fatalf("%v: snapshot LS(v%d) drifted:\nbefore %v\nafter  %v", form, i, frozen[i], got)
			}
		}
	}
}

// TestSnapshotConcurrentQueries is the headline concurrency test: one
// goroutine ingests constraint batches while five reader goroutines race
// it, each taking snapshots and checking that snapshot versions never go
// backwards and that a snapshot is frozen (reading it twice gives the
// same answers while the solver moves on). Without retraction the system
// is monotone, so least solutions must also only grow. With retraction the
// ingester also retracts and re-adds batches, so readers of chunks shared
// between snapshots race collapse, rollback and chunk re-materialisation.
// Run under -race this also proves the capture/read paths are race-clean.
func TestSnapshotConcurrentQueries(t *testing.T) {
	for _, form := range []polce.Form{polce.SF, polce.IF} {
		for _, retracting := range []bool{false, true} {
			name := form.String()
			if retracting {
				name += "/retracting"
			}
			t.Run(name, func(t *testing.T) {
				concurrentQueries(t, form, retracting)
			})
		}
	}
}

func concurrentQueries(t *testing.T, form polce.Form, retracting bool) {
	s := polce.New(polce.Options{Form: form, Cycles: polce.CycleOnline, Seed: 17, Retractable: retracting})
	const nVars = 120
	vars := make([]*polce.Var, nVars)
	for i := range vars {
		vars[i] = s.Fresh(fmt.Sprintf("v%d", i))
	}
	a := atoms(16)

	done := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // ingestion
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(23))
		var ids []polce.BatchID
		var batches [][]polce.Constraint
		for i := 0; i < 300; i++ {
			if retracting && len(ids) > 0 && i%4 == 3 {
				j := rng.Intn(len(ids))
				if _, err := s.RetractBatch(ids[j]); err != nil {
					errc <- fmt.Errorf("retract: %v", err)
					return
				}
				ids[j] = s.AddBatch(batches[j][:len(batches[j])/2])
				batches[j] = batches[j][:len(batches[j])/2]
				continue
			}
			batch := make([]polce.Constraint, 0, 8)
			for j := 0; j < 8; j++ {
				if rng.Intn(3) == 0 {
					batch = append(batch, polce.Constraint{
						L: a[rng.Intn(len(a))], R: vars[rng.Intn(nVars)]})
				} else {
					batch = append(batch, polce.Constraint{
						L: vars[rng.Intn(nVars)], R: vars[rng.Intn(nVars)]})
				}
			}
			ids = append(ids, s.AddBatch(batch))
			batches = append(batches, batch)
		}
	}()

	const readers = 5
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastVersion uint64
			sizes := make([]int, nVars)
			snaps := 0
			for alive := true; alive; {
				select {
				case <-done:
					alive = false // one final snapshot after ingestion
				default:
				}
				snap := s.Snapshot()
				if snap.Version() < lastVersion {
					errc <- fmt.Errorf("reader %d: version went backwards: %d -> %d",
						r, lastVersion, snap.Version())
					return
				}
				lastVersion = snap.Version()
				first := make([]string, nVars)
				for i, v := range vars {
					ls := snap.LeastSolution(v)
					first[i] = fmt.Sprint(lsNames(ls))
					if !retracting && len(ls) < sizes[i] {
						errc <- fmt.Errorf("reader %d: LS(v%d) shrank %d -> %d",
							r, i, sizes[i], len(ls))
						return
					}
					sizes[i] = len(ls)
				}
				snap.CollapsedClasses()
				snap.Top(3)
				for i, v := range vars {
					if again := fmt.Sprint(lsNames(snap.LeastSolution(v))); again != first[i] {
						errc <- fmt.Errorf("reader %d: snapshot v%d changed under the reader: %s -> %s",
							r, snap.Version(), first[i], again)
						return
					}
				}
				snaps++
			}
			if snaps == 0 {
				errc <- fmt.Errorf("reader %d took no snapshots", r)
			}
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// All readers' final snapshots and the live solver agree.
	final := s.Snapshot()
	for _, v := range vars {
		want := fmt.Sprint(lsNames(s.LeastSolution(v)))
		if got := fmt.Sprint(lsNames(final.LeastSolution(v))); got != want {
			t.Fatalf("final snapshot diverges from live LS: %s vs %s", got, want)
		}
	}
}

// TestSnapshotIntrospection checks the debug-surface data a snapshot
// answers — collapsed-class sizes, LS cache state and the top-k ranking —
// all from the frozen capture, so an old snapshot keeps its numbers while
// the solver moves on. Graph size comes from the live solver.
func TestSnapshotIntrospection(t *testing.T) {
	s := polce.New(polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 3})
	a := atoms(4)
	x := s.Fresh("X")
	y := s.Fresh("Y")
	z := s.Fresh("Z")
	big := s.Fresh("Big")
	for _, t := range a {
		s.AddConstraint(t, big)
	}
	s.AddConstraint(a[0], x)
	// Collapse {X, Y, Z} into one class.
	s.AddConstraint(x, y)
	s.AddConstraint(y, z)
	s.AddConstraint(z, x)

	sn := s.Snapshot()
	if g := s.CurrentGraphStats(); g.Vars <= 0 || g.VarVarEdges+g.SourceEdges+g.SinkEdges <= 0 {
		t.Fatalf("graph stats empty: %+v", g)
	}
	classes := sn.CollapsedClasses()
	if len(classes) != 1 || classes[0] != 3 {
		t.Fatalf("collapsed classes = %v, want [3]", classes)
	}
	eliminated := 0
	for _, sz := range classes {
		eliminated += sz - 1
	}
	if eliminated != sn.Stats().VarsEliminated {
		t.Fatalf("classes imply %d eliminated vars, stats say %d", eliminated, sn.Stats().VarsEliminated)
	}
	if lc := sn.LSCache(); !lc.Hot || lc.InternedNodes == 0 {
		t.Fatalf("LS cache after capture = %+v, want hot with interned nodes", lc)
	}

	top := sn.Top(2)
	if len(top) != 2 || top[0].Var.Name() != "Big" || top[0].Terms != 4 {
		t.Fatalf("Top(2) = %+v, want Big with 4 terms first", top)
	}
	if top[1].Terms > top[0].Terms {
		t.Fatalf("Top(2) not sorted: %+v", top)
	}
	if got := sn.Top(0); got != nil {
		t.Fatalf("Top(0) = %v, want nil", got)
	}
	if got := sn.Top(100); len(got) != sn.NumVars() {
		t.Fatalf("Top(100) returned %d entries, want all %d", len(got), sn.NumVars())
	}

	// Ties rank by name, so repeated calls are deterministic.
	t1, t2 := fmt.Sprint(sn.Top(100)), fmt.Sprint(sn.Top(100))
	if t1 != t2 {
		t.Fatalf("Top is nondeterministic:\n%s\n%s", t1, t2)
	}

	// The capture is frozen: more ingestion must not change it.
	w := s.Fresh("W")
	s.AddConstraint(a[1], w)
	s.AddConstraint(w, x)
	if got := fmt.Sprint(sn.CollapsedClasses()); got != fmt.Sprint(classes) {
		t.Fatalf("old snapshot classes changed after ingestion: %v", got)
	}
	if sn2 := s.Snapshot(); len(sn2.CollapsedClasses()) == 0 {
		t.Fatalf("new snapshot lost collapsed classes")
	}
}

// TestSnapshotIntrospectionSF covers the standard-form capture: the LS
// cache reports hot (the closed graph is the solution) and the class
// accounting still matches the stats.
func TestSnapshotIntrospectionSF(t *testing.T) {
	s := polce.New(polce.Options{Form: polce.SF, Cycles: polce.CycleOnline, Seed: 3})
	a := atoms(1)
	x := s.Fresh("X")
	y := s.Fresh("Y")
	s.AddConstraint(a[0], x)
	s.AddConstraint(x, y)
	s.AddConstraint(y, x)
	sn := s.Snapshot()
	if !sn.LSCache().Hot {
		t.Fatalf("SF LS cache = %+v, want hot", sn.LSCache())
	}
	if classes := sn.CollapsedClasses(); len(classes) != 1 || classes[0] != 2 {
		t.Fatalf("SF collapsed classes = %v, want [2]", classes)
	}
}

// TestSnapshotCaptureScalesWithCone is the capture-side twin of the core
// TestEditCostScalesWithCone gate: retracting one cluster, re-adding it
// and capturing a snapshot must allocate about the same at 4096 clusters
// as at 256. A capture re-copies only the chunks the edit's cone touched,
// plus one spine pointer per chunk, so only the spine's byte size — not
// the allocation count — grows with the graph.
func TestSnapshotCaptureScalesWithCone(t *testing.T) {
	measure := func(clusters int) float64 {
		const size, edited = 12, 100 // cluster 101 reads cluster 100's last variable
		s := polce.New(polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 1, Retractable: true})
		vars := make([][]*polce.Var, clusters)
		for c := range vars {
			for i := 0; i < size; i++ {
				vars[c] = append(vars[c], s.Fresh(fmt.Sprintf("c%d_v%d", c, i)))
			}
		}
		add := func(c int) polce.BatchID {
			batch := []polce.Constraint{{L: polce.NewTerm(polce.NewConstructor(fmt.Sprintf("a%d", c))), R: vars[c][0]}}
			for i := 1; i < size; i++ {
				batch = append(batch, polce.Constraint{L: vars[c][i-1], R: vars[c][i]})
			}
			batch = append(batch, polce.Constraint{L: vars[c][size-1], R: vars[c][size/2]})
			if c%3 == 2 {
				batch = append(batch, polce.Constraint{L: vars[c-1][size-1], R: vars[c][0]})
			}
			return s.AddBatch(batch)
		}
		ids := make([]polce.BatchID, clusters)
		for c := range ids {
			ids[c] = add(c)
		}
		s.Snapshot()
		return testing.AllocsPerRun(20, func() {
			if _, err := s.RetractBatch(ids[edited]); err != nil {
				t.Fatalf("retract: %v", err)
			}
			ids[edited] = add(edited)
			sn := s.Snapshot()
			for _, v := range vars[edited] {
				if len(sn.LeastSolution(v)) != 1 {
					t.Fatalf("LS(%s) lost its atom", v.Name())
				}
			}
		})
	}
	small, large := measure(256), measure(4096)
	t.Logf("allocations per retract + re-add + capture: %.1f at 256 clusters, %.1f at 4096", small, large)
	if large > 1.5*small {
		t.Errorf("allocations per capture grew with the graph: %.1f at 256 clusters, %.1f at 4096", small, large)
	}
}

// TestCapturesDoNotPerturbSolve runs one seeded edit script twice — once
// capturing a snapshot after every step, once never — and requires the
// same partition signature, least-solution samples and work counters.
// Captures run least-solution passes, which canonicalise the adjacency of
// their cone; none of that may change what a later collapse merges or how
// much work the closure does.
func TestCapturesDoNotPerturbSolve(t *testing.T) {
	run := func(opt polce.Options, capture bool) (*polce.Solver, polce.Stats) {
		rng := rand.New(rand.NewSource(opt.Seed))
		s := polce.New(opt)
		a := atoms(5)
		vars := make([]*polce.Var, 30)
		for i := range vars {
			vars[i] = s.Fresh(fmt.Sprintf("v%d", i))
		}
		var live []polce.BatchID
		var specs [][]polce.Constraint
		for step := 0; step < 120; step++ {
			if len(live) > 4 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				if _, err := s.RetractBatch(live[i]); err != nil {
					t.Fatalf("retract: %v", err)
				}
				live[i] = s.AddBatch(specs[i][:len(specs[i])/2]) // re-add half of it
				specs[i] = specs[i][:len(specs[i])/2]
			} else {
				batch := make([]polce.Constraint, 1+rng.Intn(4))
				for j := range batch {
					if rng.Intn(4) == 0 {
						batch[j] = polce.Constraint{L: a[rng.Intn(len(a))], R: vars[rng.Intn(len(vars))]}
					} else {
						batch[j] = polce.Constraint{L: vars[rng.Intn(len(vars))], R: vars[rng.Intn(len(vars))]}
					}
				}
				live = append(live, s.AddBatch(batch))
				specs = append(specs, batch)
			}
			if capture {
				s.Snapshot()
			}
		}
		st := s.Stats()
		// The capturing run alone ran least-solution passes.
		st.LSWork, st.LSPasses, st.LSConeVars, st.LSLevels, st.LSUnionHits, st.LSUnionMisses = 0, 0, 0, 0, 0, 0
		return s, st
	}
	for _, form := range []polce.Form{polce.IF, polce.SF} {
		for _, repr := range []polce.StorageRepr{polce.ReprHybrid, polce.ReprCSR} {
			for _, cyc := range []polce.CyclePolicy{polce.CycleOnline, polce.CycleOnlineIncreasing} {
				for seed := int64(1); seed <= 4; seed++ {
					opt := polce.Options{Form: form, Repr: repr, Cycles: cyc, Seed: seed, Retractable: true}
					quiet, qst := run(opt, false)
					busy, bst := run(opt, true)
					if qst != bst {
						t.Fatalf("%v/%v/%v seed %d: captures changed the work counters:\nwithout %v\nwith    %v", form, repr, cyc, seed, qst, bst)
					}
					if diff := walreplay.Fingerprint(quiet, 0).Diff(walreplay.Fingerprint(busy, 0)); diff != nil {
						t.Fatalf("%v/%v/%v seed %d: captures changed the solve: %v", form, repr, cyc, seed, diff)
					}
				}
			}
		}
	}
}
