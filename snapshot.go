package polce

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"strings"
	"sync"

	"polce/internal/core"
)

// A Snapshot is an immutable view of the least solutions at one graph
// version. Taking a snapshot locks the solver once; reading from it never
// locks, so any number of goroutines can query a snapshot while another
// keeps ingesting constraints into the live solver.
//
// Snapshots are persistent. Entries — one per creation index, holding the
// index's least solution and its canonical handle at capture time — live
// in fixed-size chunks reached through a spine indexed by creation index.
// A capture copies the previous snapshot's spine and re-materialises only
// the chunks holding an entry that changed since then (the solver keeps a
// journal of them); every other chunk is shared with the previous
// snapshot. No chunk is written after a snapshot publishes it. Under
// inductive form the least-solution slices are the engine's interned,
// immutable term lists and are shared outright; under standard form the
// least solution aliases the live source-predecessor storage, so a
// capture copies each slice it re-materialises. An eliminated variable's
// entry names its witness, and reads resolve through the snapshot's own
// entries, so a collapse re-copies only the merged variables' entries.
// While the graph version is unchanged, Snapshot returns the same object.
type Snapshot struct {
	version uint64
	form    Form
	stats   Stats
	errs    int
	lsCache LSCacheState
	storage StorageStats

	n       int          // creation indices captured
	chunks  []*snapChunk // chunk c holds indices [c·snapChunkSize, (c+1)·snapChunkSize)
	names   *nameIndex
	numVars int // distinct handles among the n indices

	// Debug figures, derived from the entries on first use.
	classesOnce sync.Once
	classes     []int
	rankOnce    sync.Once
	ranked      []TopVar
}

const (
	snapChunkBits = 8
	snapChunkSize = 1 << snapChunkBits
)

// snapEntry is one creation index as captured. handle is the variable
// handed out for the index (for an oracle-aliased index, its witness,
// whose reads go through the witness's own index). canon is handle's
// representative when the entry was captured; terms is set only when
// canon == handle. A stale canon — its witness merged away since — still
// resolves correctly, because that merge re-captured the witness's entry.
type snapEntry struct {
	handle *Var
	canon  *Var
	terms  []*Term
}

type snapChunk [snapChunkSize]snapEntry

// Snapshot captures the current least solutions. While the graph version
// is unchanged since the last capture, the previous snapshot is returned
// as-is; otherwise the solver brings its least solutions up to date
// (reusing the incremental engine's dirty-cone pass) and captures a new
// snapshot that shares every unchanged chunk with the previous one.
func (s *Solver) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// SnapshotContext is Snapshot with cancellation: if ctx is already done
// when the solver's lock is acquired, no least-solution pass is started
// and ctx's error is returned. A capture that has begun runs to
// completion — the pass mutates only the solver's own cache, so there is
// no partially captured state to observe.
func (s *Solver) SnapshotContext(ctx context.Context) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.snapshotLocked(), nil
}

// snapshotLocked captures a snapshot in time proportional to what changed
// since the previous one: the entries the solver's capture journal lists
// (least solutions the pass rewrote, standard-form source additions,
// collapses, retraction resets) and the indices created since, plus one
// pointer per chunk for the spine copy. The first capture switches the
// journal on and captures every entry.
func (s *Solver) snapshotLocked() *Snapshot {
	prev := s.snap
	if prev != nil && prev.version == s.sys.Version() {
		return prev
	}
	s.sys.ComputeLeastSolutions()
	dirty, all := s.sys.DrainCaptureJournal()
	n := s.sys.NumCreated()
	sn := &Snapshot{
		version: s.sys.Version(),
		form:    s.sys.Form(),
		stats:   s.sys.Stats(),
		errs:    s.sys.ErrorCount(),
		lsCache: s.sys.LSCacheState(),
		storage: s.sys.StorageStats(),
		n:       n,
		chunks:  make([]*snapChunk, (n+snapChunkSize-1)>>snapChunkBits),
	}
	from := 0
	var shared []*snapChunk
	var names *nameIndex
	if prev != nil && !all {
		shared = prev.chunks
		copy(sn.chunks, shared)
		from, sn.numVars, names = prev.n, prev.numVars, prev.names
		for _, i := range dirty {
			if i < from {
				sn.capture(s.sys, i, shared)
			}
		}
	}
	for i := from; i < n; i++ {
		if sn.capture(s.sys, i, shared) {
			sn.numVars++
		}
	}
	sn.names = names.extend(s.sys, n)
	s.snap = sn
	return sn
}

// capture (re)writes index i's entry, first copying its chunk if the
// chunk is still shared with the previous snapshot. It reports whether i
// is its handle's own index (false for an oracle alias).
func (sn *Snapshot) capture(sys *core.System, i int, shared []*snapChunk) bool {
	c := i >> snapChunkBits
	ch := sn.chunks[c]
	if ch == nil || c < len(shared) && ch == shared[c] {
		fresh := new(snapChunk)
		if ch != nil {
			*fresh = *ch
		}
		sn.chunks[c], ch = fresh, fresh
	}
	v := sys.CreatedVar(i)
	e := &ch[i&(snapChunkSize-1)]
	*e = snapEntry{handle: v, canon: v}
	if v.ID() != i {
		return false
	}
	if r := sys.Find(v); r != v {
		e.canon = r
		return true
	}
	terms := sys.LeastSolution(v)
	if sn.form == SF && len(terms) > 0 {
		terms = append([]*Term(nil), terms...)
	}
	e.terms = terms
	return true
}

// at returns index i's entry.
func (sn *Snapshot) at(i int) *snapEntry {
	return &sn.chunks[i>>snapChunkBits][i&(snapChunkSize-1)]
}

// resolve follows an entry to its representative's entry.
func (sn *Snapshot) resolve(e *snapEntry) *snapEntry {
	for e.canon != e.handle {
		e = sn.at(e.canon.ID())
	}
	return e
}

// LeastSolution returns the least solution of v as of the snapshot. It is
// safe to call from any goroutine without locking. The returned slice must
// not be modified. Variables created after the snapshot was taken, or by
// another solver, report a nil solution.
func (sn *Snapshot) LeastSolution(v *Var) []*Term {
	if v == nil || v.ID() >= sn.n {
		return nil
	}
	e := sn.at(v.ID())
	if e.handle != v {
		return nil
	}
	return sn.resolve(e).terms
}

// LeastSolutionContext is LeastSolution with a cancellation check, for
// callers that thread one context through every query of a request: if ctx
// is done the read is skipped and ctx's error returned. The read itself is
// lock-free.
func (sn *Snapshot) LeastSolutionContext(ctx context.Context, v *Var) ([]*Term, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sn.LeastSolution(v), nil
}

// VarByName returns the variable captured under the given name, or nil if
// no variable of that name existed at capture time. When several created
// variables share a name the first-created one wins; clients that need
// exact handles should keep the *Var from Fresh instead.
func (sn *Snapshot) VarByName(name string) *Var {
	return sn.names.lookup(name)
}

// Version returns the graph version the snapshot was taken at.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Form returns the representation of the solver the snapshot came from.
func (sn *Snapshot) Form() Form { return sn.form }

// Stats returns the solver counters as of the snapshot.
func (sn *Snapshot) Stats() Stats { return sn.stats }

// ErrorCount returns the solver's total inconsistency count as of the
// snapshot.
func (sn *Snapshot) ErrorCount() int { return sn.errs }

// NumVars returns the number of variables captured in the snapshot.
func (sn *Snapshot) NumVars() int { return sn.numVars }

// LSCache returns the least-solution cache state as of the snapshot.
func (sn *Snapshot) LSCache() LSCacheState { return sn.lsCache }

// Storage returns the storage-backend state (representation name, arena
// edge blocks, delta-worklist high-water marks) as of the snapshot.
func (sn *Snapshot) Storage() StorageStats { return sn.storage }

// CollapsedClasses returns the sizes of the equivalence classes that cycle
// elimination has collapsed so far — one entry per class of two or more
// creation indices, in descending size order. The eliminated-variable
// count is the sum of (size − 1) over the entries. The figures are
// derived from the snapshot's entries on the first call. The returned
// slice is shared and must not be modified.
func (sn *Snapshot) CollapsedClasses() []int {
	sn.classesOnce.Do(func() {
		size := make([]int32, sn.n)
		for i := 0; i < sn.n; i++ {
			h := sn.at(i).handle
			size[sn.resolve(sn.at(h.ID())).handle.ID()]++
		}
		for _, sz := range size {
			if sz >= 2 {
				sn.classes = append(sn.classes, int(sz))
			}
		}
		sort.Sort(sort.Reverse(sort.IntSlice(sn.classes)))
	})
	return sn.classes
}

// TopVar is one entry of Top: a variable and the size of its least
// solution at the snapshot.
type TopVar struct {
	Var   *Var
	Terms int
}

// Top returns the k variables with the largest least solutions, largest
// first, ties broken by name (then creation order) so the ranking is
// deterministic. The ranking is derived from the snapshot's entries on
// the first call. Like every snapshot read it is lock-free and safe for
// any number of concurrent callers.
func (sn *Snapshot) Top(k int) []TopVar {
	if k <= 0 {
		return nil
	}
	sn.rankOnce.Do(func() {
		sn.ranked = make([]TopVar, 0, sn.numVars)
		for i := 0; i < sn.n; i++ {
			if e := sn.at(i); e.handle.ID() == i {
				sn.ranked = append(sn.ranked, TopVar{Var: e.handle, Terms: len(sn.resolve(e).terms)})
			}
		}
		slices.SortFunc(sn.ranked, func(a, b TopVar) int {
			return cmp.Or(cmp.Compare(b.Terms, a.Terms),
				strings.Compare(a.Var.Name(), b.Var.Name()),
				cmp.Compare(a.Var.ID(), b.Var.ID()))
		})
	})
	return append([]TopVar(nil), sn.ranked[:min(k, len(sn.ranked))]...)
}

// nameIndex maps each name to the first-created variable bearing it. It
// is persistent like the chunks: a capture that created no variable
// shares the previous index, and one that did layers the new names over
// it. Every name sits in exactly one map, so a lookup may probe them in
// any order. Layers merge while the newest is at least half the size of
// the one below (so there are O(log n) of them), and all layers fold into
// the base once they hold an eighth of its size; each name is thus copied
// amortised O(log n) times over the solver's life, and never by a capture
// that created nothing.
type nameIndex struct {
	base   map[string]*Var
	layers []map[string]*Var
	size   int // names across layers
	upTo   int // creation indices covered
}

func (x *nameIndex) lookup(name string) *Var {
	if v, ok := x.base[name]; ok {
		return v
	}
	for _, l := range x.layers {
		if v, ok := l[name]; ok {
			return v
		}
	}
	return nil
}

// extend returns the index covering creation indices [0, n): x itself if
// nothing was created since, otherwise a new index sharing x's maps.
func (x *nameIndex) extend(sys *core.System, n int) *nameIndex {
	if x == nil {
		x = &nameIndex{}
	} else if x.upTo == n {
		return x
	}
	layer := make(map[string]*Var)
	for i := x.upTo; i < n; i++ {
		v := sys.CreatedVar(i)
		if _, ok := layer[v.Name()]; !ok && x.lookup(v.Name()) == nil {
			layer[v.Name()] = v
		}
	}
	out := &nameIndex{base: x.base, layers: x.layers, size: x.size, upTo: n}
	if len(layer) == 0 {
		return out
	}
	out.layers = append(x.layers[:len(x.layers):len(x.layers)], layer)
	out.size += len(layer)
	if out.size*8 > len(out.base) {
		out.base, out.layers, out.size = union(append(out.layers, out.base)), nil, 0
		return out
	}
	for k := len(out.layers); k >= 2 && 2*len(out.layers[k-1]) >= len(out.layers[k-2]); k-- {
		out.layers = append(out.layers[:k-2], union(out.layers[k-2:k]))
	}
	return out
}

// union merges disjoint name maps. Published maps are never written, so
// when only one is non-empty it is returned as is.
func union(ms []map[string]*Var) map[string]*Var {
	var last map[string]*Var
	n := 0
	for _, m := range ms {
		if len(m) > 0 {
			last, n = m, n+len(m)
		}
	}
	if n == len(last) {
		return last
	}
	out := make(map[string]*Var, n)
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}
