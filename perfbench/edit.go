package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"polce"
	"polce/internal/telemetry"
)

// clusterSize is the number of variables per cluster in the edit and
// serve graphs, as in polce-bench's retraction workload.
const clusterSize = 12

// clusterBatch is cluster c's constraints, shaped like polce-bench's
// retraction workload: an atom seeds the first variable, a chain runs
// through the rest, the last closes a small cycle back to the middle, and
// every third cluster reads its predecessor's last variable. So
// LS(c_i) = {a_c}, plus a_{c-1} when c mod 3 = 2.
func clusterBatch(atoms []*polce.Term, vars [][]*polce.Var, c int) []polce.Constraint {
	v := vars[c]
	batch := []polce.Constraint{{L: atoms[c], R: v[0]}}
	for i := 1; i < len(v); i++ {
		batch = append(batch, polce.Constraint{L: v[i-1], R: v[i]})
	}
	batch = append(batch, polce.Constraint{L: v[len(v)-1], R: v[len(v)/2]})
	if c%3 == 2 {
		batch = append(batch, polce.Constraint{L: vars[c-1][len(v)-1], R: v[0]})
	}
	return batch
}

// expectedAtoms returns the names of the atoms in every least solution of
// cluster c, by the rule above.
func expectedAtoms(c int) []string {
	if c%3 == 2 {
		return []string{fmt.Sprintf("a%d", c), fmt.Sprintf("a%d", c-1)}
	}
	return []string{fmt.Sprintf("a%d", c)}
}

// sameAtoms reports whether terms are exactly the atoms of cluster c, in
// any order.
func sameAtoms(terms []string, c int) bool {
	want := expectedAtoms(c)
	if len(terms) != len(want) {
		return false
	}
	for _, w := range want {
		found := false
		for _, t := range terms {
			found = found || t == w
		}
		if !found {
			return false
		}
	}
	return true
}

// editGraph is a retractable solver holding one batch per cluster.
type editGraph struct {
	s       *polce.Solver
	sm      *telemetry.SolverMetrics
	vars    [][]*polce.Var
	batches [][]polce.Constraint
	ids     []polce.BatchID
}

// buildEdit creates the clusters' variables, adds one batch per cluster
// and runs the first least-solution pass.
func buildEdit(clusters int, sm *telemetry.SolverMetrics) *editGraph {
	opt := polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 1, Retractable: true}
	if sm != nil {
		opt.Metrics = sm
	}
	g := &editGraph{s: polce.New(opt), sm: sm, vars: make([][]*polce.Var, clusters)}
	for c := range g.vars {
		g.vars[c] = make([]*polce.Var, clusterSize)
		for i := range g.vars[c] {
			g.vars[c][i] = g.s.Fresh(fmt.Sprintf("c%d_v%d", c, i))
		}
	}
	atoms := make([]*polce.Term, clusters)
	for c := range atoms {
		atoms[c] = polce.NewTerm(polce.NewConstructor(fmt.Sprintf("a%d", c)))
	}
	for c := 0; c < clusters; c++ {
		g.batches = append(g.batches, clusterBatch(atoms, g.vars, c))
		g.ids = append(g.ids, g.s.AddBatch(g.batches[c]))
	}
	g.s.ComputeLeastSolutions()
	return g
}

// phase returns the solver's cumulative time in a phase (0 untraced).
func (g *editGraph) phase(name string) time.Duration {
	if g.sm == nil {
		return 0
	}
	d, _ := g.sm.Phases.Get(name)
	return d
}

// checkAll verifies every cluster's least solutions by the rule.
func (g *editGraph) checkAll() bool {
	for c, vs := range g.vars {
		for _, v := range vs {
			if !sameAtoms(termNames(g.s.LeastSolution(v)), c) {
				return false
			}
		}
	}
	return true
}

func termNames(ts []*polce.Term) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

// editStep is one edit's measurements.
type editStep struct {
	d              time.Duration
	retract, readd time.Duration
	read           time.Duration
	cone, replayed int
	lsCone         int64
	ok             bool
}

// editOp retracts cluster c's batch, adds the same constraints back and
// reads the cluster's least solutions: the graph afterwards equals the
// one before.
func editOp(g *editGraph, c int, tr *tracer, id int) editStep {
	var st editStep
	ls0 := g.s.Stats().LSConeVars
	got := make([][]*polce.Term, clusterSize)

	ctx, root := tr.op(context.Background(), id)
	start := time.Now()
	_, sp := tr.span(ctx, "retract")
	rep, err := g.s.RetractBatch(g.ids[c])
	sp.end()
	t1 := time.Now()
	actx, sp := tr.span(ctx, "core.readd")
	closure0 := g.phase(telemetry.PhaseClosure)
	g.ids[c] = g.s.AddBatch(g.batches[c])
	tr.emit(actx, "core.closure", t1, g.phase(telemetry.PhaseClosure)-closure0)
	sp.end()
	t2 := time.Now()
	rctx, sp := tr.span(ctx, "core.ls_read")
	lsT0 := g.phase(telemetry.PhaseLeastSolution)
	for i, v := range g.vars[c] {
		got[i] = append(got[i], g.s.LeastSolution(v)...)
	}
	tr.emit(rctx, "core.ls", t2, g.phase(telemetry.PhaseLeastSolution)-lsT0)
	sp.end()
	end := time.Now()
	root.end()

	st.d = end.Sub(start)
	st.retract, st.readd, st.read = t1.Sub(start), t2.Sub(t1), end.Sub(t2)
	st.cone, st.replayed = rep.DirtyVars, rep.ReplayedConstraints
	st.lsCone = g.s.Stats().LSConeVars - ls0
	st.ok = err == nil && g.ids[c] != 0
	for _, ts := range got {
		st.ok = st.ok && sameAtoms(termNames(ts), c)
	}
	return st
}

func runEdit(cfg config) (*result, error) {
	res := newResult()
	n := cfg.scale.editClusters
	var setupS samples
	var g *editGraph
	reps := cfg.scale.quickSetups
	if cfg.trace {
		reps = 1 // setup_s is an end-to-end metric; traced runs skip the repeats
	}
	for rep := 0; rep < reps; rep++ {
		g = nil
		settle()
		t0 := time.Now()
		g = buildEdit(n, nil)
		setupS.add(time.Since(t0).Seconds())
	}
	// The traced run edits a second, instrumented graph on alternate ops.
	var tg *editGraph
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		tg = buildEdit(n, telemetry.NewSolverMetrics(telemetry.NewRegistry()))
	}
	before := g.s.CurrentGraphStats()

	rng := rand.New(rand.NewSource(cfg.seed))
	perm := rng.Perm(n)
	var ms, tms, retractMS, readdMS, readMS, cone, replayed, lsCone samples
	var allocBytes uint64
	start := time.Now()
	for i := 0; i < cfg.scale.minRounds*8 || time.Since(start) < cfg.seconds; i++ {
		c := perm[i%n]
		settle()
		if tr != nil && i%2 == 0 {
			st := editOp(tg, c, tr, i)
			res.check(st.ok)
			tms.add(msOf(st.d))
			retractMS.add(msOf(st.retract))
			readdMS.add(msOf(st.readd))
			readMS.add(msOf(st.read))
			cone.add(float64(st.cone))
			replayed.add(float64(st.replayed))
			lsCone.add(float64(st.lsCone))
			continue
		}
		a0 := totalAlloc()
		st := editOp(g, c, nil, i)
		allocBytes += totalAlloc() - a0
		res.check(st.ok)
		ms.add(msOf(st.d))
	}
	heap := liveHeapMB()
	runtime.KeepAlive(g)
	runtime.KeepAlive(tg)

	// Every op restores the graph, so the end state must match the start.
	after := g.s.CurrentGraphStats()
	res.check(after == before)
	res.check(g.checkAll())
	if after != before {
		res.note("graph changed over the run: %+v -> %+v", before, after)
	}

	allocMB := float64(allocBytes) / float64(len(ms)) / 1e6
	res.table = append(res.table,
		row{"setup_s", setupS.median(), "s"},
		row{"edit_ms", ms.median(), "ms"},
		row{"edit_p90_ms", ms.quantile(0.9), "ms"},
		row{"alloc_mb", allocMB, "MB/op"},
		row{"live_heap_mb", heap, "MB"},
	)
	res.note("edits %d over %d clusters x %d vars; quartiles_ms %s %s %s", len(ms), n, clusterSize,
		fmtValue(ms.quantile(0.25)), fmtValue(ms.median()), fmtValue(ms.quantile(0.75)))
	res.e2e["setup_s"] = setupS.median()
	res.e2e["op_ms"] = ms.median()
	res.e2e["op_p90_ms"] = ms.quantile(0.9)
	res.e2e["alloc_mb"] = allocMB
	res.e2e["live_heap_mb"] = heap

	if tr == nil {
		return res, nil
	}
	L := res.layer
	L["retract.ms"] = retractMS.median()
	L["retract.cone_vars"] = cone.median()
	L["retract.replayed_constraints"] = replayed.median()
	L["core.readd_ms"] = readdMS.median()
	L["core.ls_read_ms"] = readMS.median()
	L["core.ls_cone_vars"] = lsCone.median()
	L["edit.layer_coverage"] = ratio(retractMS.median()+readdMS.median()+readMS.median(), tms.median())
	res.note("edit layer coverage %s (retract + readd + ls_read medians over the traced edit median; want 0.75-1.25)",
		fmtValue(L["edit.layer_coverage"]))
	L["trace.overhead"] = ratio(tms.median(), ms.median())
	_, err := finishTrace(res, tr, cfg, "edit")
	return res, err
}
