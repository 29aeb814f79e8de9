package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// FuzzRetractDifferential drives random edit sequences — batch adds,
// retractions, retract-then-re-add, and Fresh variables created after a
// least-solution pass — through every online configuration, and after
// every step checks the live system three ways:
//
//   - its least solutions against leastSolutionsReference;
//   - its partition signature, least solutions and error count against a
//     from-scratch solve of the surviving batches (checkAgainstReference);
//   - the cone the incremental pass recomputed against sweepConeSize, the
//     whole-graph sweep definition of the dirty cone.
//
// The seed corpus runs as a plain test; `go test -fuzz
// FuzzRetractDifferential ./internal/core` explores further.
func FuzzRetractDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 24; i++ {
		data := make([]byte, 48+rng.Intn(160))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, form := range []Form{IF, SF} {
			for _, repr := range []StorageRepr{ReprHybrid, ReprCSR} {
				for _, cyc := range []CyclePolicy{CycleOnline, CycleOnlineIncreasing} {
					opt := Options{Form: form, Repr: repr, Cycles: cyc, Seed: 1, Retractable: true}
					runEditScript(t, opt, data)
				}
			}
		}
	})
}

// editScript decodes fuzz bytes; reads past the end yield zero.
type editScript struct {
	data []byte
	pos  int
}

func (e *editScript) next() int {
	if e.pos >= len(e.data) {
		return 0
	}
	b := e.data[e.pos]
	e.pos++
	return int(b)
}

func (e *editScript) done() bool { return e.pos >= len(e.data) }

// runEditScript replays one decoded edit sequence on a live retractable
// system under opt and checks it after every step.
func runEditScript(t *testing.T, opt Options, data []byte) {
	t.Helper()
	in := &editScript{data: data}
	nVars := 2 + in.next()%8
	nTerms := 1 + in.next()%6
	tspecs := make([]rtTermSpec, nTerms)
	for i := range tspecs {
		tspecs[i] = rtTermSpec{con: in.next() % 4, args: [2]int{in.next() % nVars, in.next() % nVars}}
	}
	live := newRTEnv(opt, nVars, tspecs)

	type liveBatch struct {
		id   uint64
		spec []rtConSpec
	}
	var alive []liveBatch
	surviving := func() [][]rtConSpec {
		out := make([][]rtConSpec, len(alive))
		for i, b := range alive {
			out[i] = b.spec
		}
		return out
	}
	retract := func(js ...int) {
		var ids []uint64
		for _, j := range js {
			ids = append(ids, alive[j].id)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(js)))
		for _, j := range js {
			alive = append(alive[:j], alive[j+1:]...)
		}
		if _, err := live.sys.RetractBatches(ids); err != nil {
			t.Fatalf("RetractBatches(%v): %v", ids, err)
		}
	}
	add := func(spec []rtConSpec) {
		alive = append(alive, liveBatch{id: live.applyBatch(spec), spec: spec})
	}

	for step := 0; !in.done() && step < 48; step++ {
		op := in.next() % 8
		switch {
		case op < 3 || len(alive) == 0:
			// Var-var edges dominate, so small vocabularies close and
			// collapse cycles; a few terms keep sources, sinks and
			// inconsistencies in play.
			spec := make([]rtConSpec, 1+in.next()%4)
			for i := range spec {
				c := rtConSpec{a: in.next() % nVars, b: in.next() % nVars, s: in.next() % nTerms, t: in.next() % nTerms}
				switch k := in.next() % 10; {
				case k < 7:
					c.kind = 0
				case k < 8:
					c.kind = 1
				case k < 9:
					c.kind = 2
				default:
					c.kind = 3
				}
				spec[i] = c
			}
			add(spec)
		case op < 5:
			retract(in.next() % len(alive))
		case op == 5:
			j := in.next() % len(alive)
			spec := alive[j].spec
			retract(j)
			add(spec)
		case op == 6 && len(alive) >= 2:
			j := in.next() % len(alive)
			k := (j + 1 + in.next()%(len(alive)-1)) % len(alive)
			retract(j, k)
		default:
			live.sys.ComputeLeastSolutions()
			live.vars = append(live.vars, live.sys.Fresh(fmt.Sprintf("v%d", nVars)))
			nVars++
		}

		label := fmt.Sprintf("%v/%v/%v step %d", opt.Form, opt.Repr, opt.Cycles, step)
		checkLiveList(t, live.sys, label)
		want := sweepConeSize(live.sys)
		cone0 := live.sys.Stats().LSConeVars
		live.sys.ComputeLeastSolutions()
		if got := live.sys.Stats().LSConeVars - cone0; want >= 0 && got != int64(want) {
			t.Fatalf("%s: pass recomputed %d variables, sweep-defined cone has %d", label, got, want)
		}
		checkLSAgainstReference(t, live.sys, label)
		checkAgainstReference(t, live, opt, nVars, tspecs, surviving(), label)
	}
}

// checkLiveList asserts that the store's live list, repaired locally by
// retraction rollback, still lists every distinct created variable that is
// canonical, once and in creation order, and that the O(1) live count
// agrees with it.
func checkLiveList(t *testing.T, s *System, label string) {
	t.Helper()
	var want []*Var
	seen := make(map[*Var]bool)
	for i := 0; i < s.NumCreated(); i++ {
		if v := s.CreatedVar(i); !seen[v] && !v.Forwarded() {
			seen[v] = true
			want = append(want, v)
		}
	}
	n := s.store.NumLive()
	if got := s.CanonicalVars(); !slices.Equal(got, want) || n != len(want) {
		t.Fatalf("%s: CanonicalVars = %v (NumLive %d), want %v", label, got, n, want)
	}
}

// sweepConeSize recomputes, without touching the graph, the cone the next
// least-solution pass must recompute as the whole-graph sweep defines it:
// every canonical variable on the first pass; afterwards, in o(·) order,
// every canonical variable with no node yet, marked dirty, or with a
// canonical predecessor already in the cone. It returns -1 when no pass
// would run (standard form, or a hot cache).
func sweepConeSize(s *System) int {
	if s.opt.Form == SF || (s.lsEngine != nil && s.lsVersion == s.graphVersion) {
		return -1
	}
	vars := s.CanonicalVars()
	if s.lsEngine == nil {
		return len(vars)
	}
	sort.Slice(vars, func(i, j int) bool { return before(vars[i], vars[j]) })
	in := make(map[*Var]bool, len(vars))
	n := 0
	for _, y := range vars {
		rec := y.Sol.Node == nil || y.Sol.Pending
		for _, x := range y.PredV.List() {
			if x = find(x); x != y && in[x] {
				rec = true
			}
		}
		if rec {
			in[y] = true
			n++
		}
	}
	return n
}
