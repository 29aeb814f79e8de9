package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"polce"
)

// This file is the live introspection surface: two read-only endpoints
// answered from copy-on-write snapshots, so they are safe to hit on a
// production server under full ingestion load. /v1/debug/top never takes
// the solver lock beyond the shared snapshot capture; /v1/debug/stats
// takes it once more, for the graph walk behind its size and density
// figures (Solver.CurrentGraphStats), which no snapshot carries — so it
// waits behind, and briefly blocks, the ingester.
//
//	GET /v1/debug/stats   graph size/density, collapsed-SCC histogram,
//	                      least-solution cache state, queue + cache health
//	GET /v1/debug/top?k=N hottest variables by points-to set size

// handleDebugStats reports the solver's internal state as of the current
// snapshot: live variables and edges, what online cycle elimination has
// collapsed so far (class count, largest class, size histogram), the
// least-solution cache, and the serving-side queue and snapshot-cache
// state.
func (s *Server) handleDebugStats(w http.ResponseWriter, r *http.Request) error {
	snap, err := s.snapshot(r.Context())
	if err != nil {
		return err
	}
	trackFrom(r.Context()).versioned(snap.Version())
	classes := snap.CollapsedClasses()
	eliminated, maxClass := 0, 0
	hist := map[string]int{}
	for _, sz := range classes {
		eliminated += sz - 1
		if sz > maxClass {
			maxClass = sz
		}
		hist[classBucket(sz)]++
	}
	g, gv := s.graphStats()
	walBlock := map[string]any{"enabled": s.wal != nil}
	if s.wal != nil {
		walBlock["sync"] = s.wal.Policy().String()
		walBlock["frames"] = s.wal.Frames()
		walBlock["bytes"] = s.wal.Bytes()
		walBlock["syncs"] = s.wal.Syncs()
		walBlock["last_seq"] = s.wal.LastSeq()
		walBlock["replayed_frames"] = s.walReplayed.Load()
		walBlock["truncated_bytes"] = s.wal.TruncatedBytes()
		walBlock["failed"] = s.walFailed.Load()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version": snap.Version(),
		"form":    snap.Form().String(),
		"vars":    snap.NumVars(),
		"errors":  snap.ErrorCount(),
		"graph": map[string]any{
			"version":       gv,
			"live_vars":     g.Vars,
			"var_var_edges": g.VarVarEdges,
			"source_edges":  g.SourceEdges,
			"sink_edges":    g.SinkEdges,
			"density":       g.Density,
		},
		"scc": map[string]any{
			"collapsed_classes": len(classes),
			"vars_eliminated":   eliminated,
			"max_class":         maxClass,
			"size_histogram":    hist,
		},
		"ls_cache": snap.LSCache(),
		"queue": map[string]any{
			"len":      s.QueueLen(),
			"cap":      s.QueueCap(),
			"ingested": s.Ingested(),
			"draining": s.draining.Load(),
		},
		"wal":   walBlock,
		"core":  snap.Storage(),
		"stats": snap.Stats(),
	})
	return nil
}

// graphStats measures the live graph and returns the version it was
// measured at. The walk takes the solver lock once; version reads on
// either side of it tell whether a write landed in between, and a walk
// that raced one is retried (a few times at most, so a saturated writer
// cannot starve the endpoint — the figures are then from some version
// between the two reads, and the later is reported).
func (s *Server) graphStats() (polce.GraphStats, uint64) {
	for i := 0; ; i++ {
		v0 := s.solver.Version()
		g := s.solver.CurrentGraphStats()
		if v1 := s.solver.Version(); v1 == v0 || i == 2 {
			return g, v1
		}
	}
}

// classBucket buckets a collapsed-class size into power-of-two ranges:
// "2", "3-4", "5-8", "9-16", ... — coarse enough to stay readable on a
// graph with thousands of collapsed cycles, fine enough to show whether
// elimination is finding the long chains or only trivial 2-cycles.
func classBucket(sz int) string {
	lo, hi := 2, 2
	for sz > hi {
		lo, hi = hi+1, hi*2
	}
	if lo == hi {
		return strconv.Itoa(lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi)
}

// handleDebugTop reports the k variables with the largest least solutions
// (points-to sets), largest first — the "which variables are blowing up"
// question. k defaults to 10 and is capped at 10000; the ranking is
// computed from the frozen snapshot, so repeated calls at one version are
// deterministic.
func (s *Server) handleDebugTop(w http.ResponseWriter, r *http.Request) error {
	k := 10
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			return fmt.Errorf("%w: k must be a positive integer, got %q", ErrBadRequest, q)
		}
		k = n
	}
	if k > 10000 {
		k = 10000
	}
	snap, err := s.snapshot(r.Context())
	if err != nil {
		return err
	}
	trackFrom(r.Context()).versioned(snap.Version())
	top := snap.Top(k)
	rows := make([]map[string]any, len(top))
	for i, tv := range top {
		rows[i] = map[string]any{"var": tv.Var.Name(), "terms": tv.Terms}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version": snap.Version(),
		"k":       len(rows),
		"top":     rows,
	})
	return nil
}

// handleUnmatched is the catch-all for requests no route claimed: a 404
// counted under the "other" route metrics instead of vanishing.
func (s *Server) handleUnmatched(w http.ResponseWriter, r *http.Request) error {
	return fmt.Errorf("%w: no route for %s %s", ErrNotFound, r.Method, r.URL.Path)
}
