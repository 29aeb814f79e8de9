package core

import "fmt"

// Stats holds the solver's work counters. Work and Redundant follow the
// paper's accounting: Work is the total number of attempted edge additions
// (a constraint solver does work proportional to this, including additions
// of edges already present), and Redundant counts the attempts that found
// the edge already present.
type Stats struct {
	// VarsCreated is the number of variables actually allocated.
	VarsCreated int
	// VarsEliminated counts variables merged away, by online collapse or
	// by the oracle's pre-merging.
	VarsEliminated int
	// Work is the total number of attempted edge additions, including
	// redundant ones.
	Work int64
	// Redundant counts edge additions that found the edge already present.
	Redundant int64
	// CycleSearches counts online closing-chain searches performed.
	CycleSearches int64
	// CycleVisits counts nodes visited across all searches; CycleVisits /
	// CycleSearches is the empirical analogue of E(R_X) in Theorem 5.2.
	CycleVisits int64
	// CyclesFound counts searches that found (and collapsed) a cycle.
	CyclesFound int64
	// LSWork counts terms materialised by the inductive-form
	// least-solution engine. Interned nodes are shared, so a suffix reused
	// across many variables is counted once — unlike the naive pass, which
	// recopied it per variable.
	LSWork int64
	// LSPasses counts least-solution engine passes actually run (cache
	// misses); a hot cache answers LeastSolution without a pass.
	LSPasses int64
	// LSConeVars counts variables recomputed across all passes — the sum
	// of dirty-cone sizes, the engine's cost measure.
	LSConeVars int64
	// LSLevels is the number of topological levels of the predecessor DAG
	// restricted to the most recent pass's cone (the whole DAG on a first
	// pass).
	LSLevels int64
	// LSUnionHits and LSUnionMisses count memoized-union lookups across
	// all passes: a hit reuses an interned result, a miss computes one.
	LSUnionHits   int64
	LSUnionMisses int64
	// PeriodicSweeps counts offline elimination passes under
	// CyclePeriodic.
	PeriodicSweeps int64
	// SweepVisits counts variables examined by periodic sweeps (their
	// cost measure, the counterpart of CycleVisits for the online
	// policies).
	SweepVisits int64
	// Retractions counts RetractBatches calls; RetractConeVars sums the
	// dirty-cone sizes they rolled back (the retract-side counterpart of
	// LSConeVars: cone ≪ graph is the win being measured), and
	// RetractReplayed counts the surviving constraints re-applied during
	// rebuilds.
	Retractions     int64
	RetractConeVars int64
	RetractReplayed int64
}

// VisitsPerSearch returns the mean number of nodes visited per online
// cycle search (the measured counterpart of Theorem 5.2's bound).
func (st Stats) VisitsPerSearch() float64 {
	if st.CycleSearches == 0 {
		return 0
	}
	return float64(st.CycleVisits) / float64(st.CycleSearches)
}

// LSUnionHitRate returns the fraction of memoized-union lookups answered
// from the memo (0 when no unions were attempted).
func (st Stats) LSUnionHitRate() float64 {
	total := st.LSUnionHits + st.LSUnionMisses
	if total == 0 {
		return 0
	}
	return float64(st.LSUnionHits) / float64(total)
}

// String summarises the counters on one line.
func (st Stats) String() string {
	return fmt.Sprintf("vars=%d elim=%d work=%d redundant=%d searches=%d visits=%d cycles=%d lswork=%d lspasses=%d lscone=%d lslevels=%d lsunionhits=%d lsunionmisses=%d sweeps=%d sweepvisits=%d retracts=%d retractcone=%d retractreplayed=%d",
		st.VarsCreated, st.VarsEliminated, st.Work, st.Redundant,
		st.CycleSearches, st.CycleVisits, st.CyclesFound, st.LSWork,
		st.LSPasses, st.LSConeVars, st.LSLevels, st.LSUnionHits, st.LSUnionMisses,
		st.PeriodicSweeps, st.SweepVisits, st.Retractions, st.RetractConeVars, st.RetractReplayed)
}
