package polce

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// refSnapshot is the map-building capture that persistent snapshots
// replaced, kept as the reference they are checked against: one map entry
// per distinct created handle, resolved through the live union-find at
// capture time, the first-created variable per name, and the class-size
// histogram over creation indices.
type refSnapshot struct {
	version uint64
	created []*Var // creation index → handle at capture time
	ls      map[*Var][]*Term
	names   map[string]*Var
	classes []int
}

// refCapture captures the reference, or returns prev while the graph
// version is unchanged — the same epoch guard Snapshot applies, so
// variables created without a version bump stay invisible to both.
func refCapture(s *Solver, prev *refSnapshot) refSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev != nil && prev.version == s.sys.Version() {
		return *prev
	}
	s.sys.ComputeLeastSolutions()
	n := s.sys.NumCreated()
	ref := refSnapshot{version: s.sys.Version(), ls: make(map[*Var][]*Term, n), names: make(map[string]*Var, n)}
	classSize := make(map[*Var]int, n)
	for i := 0; i < n; i++ {
		v := s.sys.CreatedVar(i)
		ref.created = append(ref.created, v)
		classSize[s.sys.Find(v)]++
		if _, ok := ref.names[v.Name()]; !ok {
			ref.names[v.Name()] = v
		}
		if _, ok := ref.ls[v]; ok {
			continue // oracle-aliased index: handle already captured
		}
		ref.ls[v] = append([]*Term(nil), s.sys.LeastSolution(v)...)
	}
	for _, sz := range classSize {
		if sz >= 2 {
			ref.classes = append(ref.classes, sz)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ref.classes)))
	return ref
}

// top ranks the reference's variables as Snapshot.Top does.
func (ref refSnapshot) top(k int) []TopVar {
	var all []TopVar
	for v, terms := range ref.ls {
		all = append(all, TopVar{Var: v, Terms: len(terms)})
	}
	slices.SortFunc(all, func(a, b TopVar) int {
		return cmp.Or(cmp.Compare(b.Terms, a.Terms),
			strings.Compare(a.Var.Name(), b.Var.Name()),
			cmp.Compare(a.Var.ID(), b.Var.ID()))
	})
	return all[:min(k, len(all))]
}

// checkAgainstRef asserts that sn reads exactly what ref recorded. later
// holds variables created after the capture (and one from another
// solver): they must read nil. names is every name that may be asked.
func checkAgainstRef(t *testing.T, what string, sn *Snapshot, ref refSnapshot, later []*Var, names []string) {
	t.Helper()
	for i, v := range ref.created {
		if got, want := sn.LeastSolution(v), ref.ls[v]; !slices.Equal(got, want) {
			t.Fatalf("%s: LS(%s) at index %d = %v, reference %v", what, v, i, got, want)
		}
	}
	for _, v := range later {
		if got := sn.LeastSolution(v); got != nil {
			t.Fatalf("%s: LS(%s) of a variable the capture never saw = %v, want nil", what, v, got)
		}
	}
	if got := sn.LeastSolution(nil); got != nil {
		t.Fatalf("%s: LS(nil) = %v", what, got)
	}
	for _, name := range names {
		if got, want := sn.VarByName(name), ref.names[name]; got != want {
			t.Fatalf("%s: VarByName(%q) = %p, reference %p", what, name, got, want)
		}
	}
	if got, want := sn.NumVars(), len(ref.ls); got != want {
		t.Fatalf("%s: NumVars = %d, reference %d", what, got, want)
	}
	if got := sn.CollapsedClasses(); !slices.Equal(got, ref.classes) {
		t.Fatalf("%s: CollapsedClasses = %v, reference %v", what, got, ref.classes)
	}
	for _, k := range []int{1, 3, len(ref.ls) + 1} {
		if got, want := sn.Top(k), ref.top(k); !slices.Equal(got, want) {
			t.Fatalf("%s: Top(%d) = %v, reference %v", what, k, got, want)
		}
	}
}

// snapScript drives one random add / retract / re-add / Fresh / collapse
// sequence on a retractable solver, capturing after every step and
// checking the new snapshot and every earlier one against the reference
// capture taken with it.
func snapScript(t *testing.T, opt Options, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := New(opt)
	other := New(opt).Fresh("v0") // same name and index, another solver
	atom := make([]*Term, 6)
	for i := range atom {
		atom[i] = NewTerm(NewConstructor(fmt.Sprintf("a%d", i)))
	}
	box := NewConstructor("box", Covariant)
	names := []string{"nosuch"}
	var vars []*Var
	fresh := func() {
		// Names repeat, so first-created-wins is exercised.
		name := fmt.Sprintf("v%d", rng.Intn(len(vars)+4))
		vars = append(vars, s.Fresh(name))
		names = append(names, name)
	}
	for i := 0; i < 6; i++ {
		fresh()
	}
	pick := func() *Var { return vars[rng.Intn(len(vars))] }
	constraint := func() Constraint {
		switch rng.Intn(5) {
		case 0:
			return Constraint{L: atom[rng.Intn(len(atom))], R: pick()}
		case 1:
			return Constraint{L: NewTerm(box, pick()), R: pick()}
		case 2:
			return Constraint{L: pick(), R: NewTerm(box, pick())}
		default:
			return Constraint{L: pick(), R: pick()}
		}
	}
	type batch struct {
		id   BatchID
		cons []Constraint
	}
	var live []batch
	tainted := false
	type taken struct {
		sn  *Snapshot
		ref refSnapshot
	}
	var history []taken
	for step := 0; step < 40; step++ {
		for op := rng.Intn(3); op >= 0; op-- {
			switch r := rng.Intn(20); {
			case r < 7: // add
				cons := make([]Constraint, 1+rng.Intn(4))
				for i := range cons {
					cons[i] = constraint()
				}
				live = append(live, batch{s.AddBatch(cons), cons})
			case r < 9: // collapse: close a cycle
				ring := []*Var{pick(), pick(), pick()}
				var cons []Constraint
				for i, v := range ring {
					cons = append(cons, Constraint{L: v, R: ring[(i+1)%len(ring)]})
				}
				live = append(live, batch{s.AddBatch(cons), cons})
			case r < 14 && len(live) > 0 && !tainted: // retract, sometimes re-add
				i := rng.Intn(len(live))
				b := live[i]
				if _, err := s.RetractBatch(b.id); err != nil {
					t.Fatalf("step %d: retract: %v", step, err)
				}
				live = append(live[:i], live[i+1:]...)
				if rng.Intn(2) == 0 {
					live = append(live, batch{s.AddBatch(b.cons), b.cons})
				}
			case r < 17:
				fresh()
			case r < 18:
				s.LeastSolution(pick()) // a pass outside any capture
			case r < 19 && step > 30:
				s.CollapseCycles() // offline collapse; retraction is off from here
				tainted = true
			}
		}
		var prev *refSnapshot
		if len(history) > 0 {
			prev = &history[len(history)-1].ref
		}
		history = append(history, taken{ref: refCapture(s, prev)})
		history[len(history)-1].sn = s.Snapshot()
		for k, h := range history {
			later := append([]*Var{other}, vars[len(h.ref.created):]...)
			checkAgainstRef(t, fmt.Sprintf("seed %d step %d, snapshot %d", seed, step, k), h.sn, h.ref, later, names)
		}
	}
}

// TestSnapshotDifferential checks persistent snapshots against the
// map-building reference capture over random edit sequences, in every
// form × representation × online policy.
func TestSnapshotDifferential(t *testing.T) {
	for _, form := range []Form{IF, SF} {
		for _, repr := range []StorageRepr{ReprHybrid, ReprCSR} {
			for _, cyc := range []CyclePolicy{CycleOnline, CycleOnlineIncreasing} {
				opt := Options{Form: form, Repr: repr, Cycles: cyc, Seed: 1, Retractable: true}
				t.Run(fmt.Sprintf("%v/%v/%v", form, repr, cyc), func(t *testing.T) {
					for seed := int64(1); seed <= 6; seed++ {
						snapScript(t, opt, seed)
					}
				})
			}
		}
	}
}

// TestSnapshotDifferentialOracle covers oracle-aliased creation indices:
// a guided run hands out earlier witnesses for some Fresh calls, so
// several indices share one handle.
func TestSnapshotDifferentialOracle(t *testing.T) {
	a := NewTerm(NewConstructor("a"))
	build := func(opt Options, check bool) *Solver {
		s := New(opt)
		var vars []*Var
		var history []*Snapshot
		var refs []refSnapshot
		for i := 0; i < 24; i++ {
			vars = append(vars, s.Fresh(fmt.Sprintf("v%d", i)))
			if i%3 == 0 {
				s.AddConstraint(a, vars[i])
			}
			if i > 0 {
				s.AddConstraint(vars[i-1], vars[i])
			}
			if i%4 == 3 {
				s.AddConstraint(vars[i], vars[i-3]) // a 4-cycle
			}
			if check {
				var prev *refSnapshot
				if len(refs) > 0 {
					prev = &refs[len(refs)-1]
				}
				refs = append(refs, refCapture(s, prev))
				history = append(history, s.Snapshot())
				for k := range history {
					checkAgainstRef(t, fmt.Sprintf("step %d, snapshot %d", i, k), history[k], refs[k], nil, []string{"v0", "v5", "v23"})
				}
			}
		}
		return s
	}
	for _, form := range []Form{IF, SF} {
		oracle := BuildOracle(build(Options{Form: form, Cycles: CycleOnline, Seed: 5}, false))
		guided := build(Options{Form: form, Cycles: CycleOracle, Oracle: oracle, Seed: 5}, true)
		if guided.Stats().VarsEliminated == 0 || guided.NumCreated() == guided.Stats().VarsCreated {
			t.Fatalf("%v: oracle aliased no index", form)
		}
	}
}

// TestSnapshotNameLayers exercises the persistent name index past the
// differential scripts' small graphs: a large base, then many captures
// that each create a few variables (some reusing a name), so layers are
// added, merged and folded. Every capture must answer VarByName like the
// reference, keep O(log n) layers, and leave earlier snapshots intact.
func TestSnapshotNameLayers(t *testing.T) {
	s := New(Options{Form: IF, Cycles: CycleOnline, Seed: 1})
	a := NewTerm(NewConstructor("a"))
	rng := rand.New(rand.NewSource(3))
	var names []string
	fresh := func(name string) {
		v := s.Fresh(name)
		names = append(names, name)
		s.AddConstraint(a, v) // bump the version so the capture is new
	}
	for i := 0; i < 400; i++ {
		fresh(fmt.Sprintf("n%d", i))
	}
	var history []*Snapshot
	var refs []refSnapshot
	maxLayers := 0
	for step := 0; step < 300; step++ {
		for k := rng.Intn(4); k >= 0; k-- {
			fresh(fmt.Sprintf("n%d", rng.Intn(len(names)+20)))
		}
		refs = append(refs, refCapture(s, nil))
		history = append(history, s.Snapshot())
		l := len(history[step].names.layers)
		if 1<<l > 2*len(names) {
			t.Fatalf("step %d: %d name layers over %d names", step, l, len(names))
		}
		maxLayers = max(maxLayers, l)
		for _, k := range []int{0, step / 2, step} {
			for _, name := range names {
				if got, want := history[k].VarByName(name), refs[k].names[name]; got != want {
					t.Fatalf("step %d, snapshot %d: VarByName(%q) = %p, reference %p", step, k, name, got, want)
				}
			}
		}
	}
	if maxLayers < 2 {
		t.Fatalf("at most %d name layers: merging never exercised", maxLayers)
	}
	t.Logf("up to %d name layers", maxLayers)
}
