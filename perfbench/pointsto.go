package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"polce"
	"polce/internal/andersen"
	"polce/internal/bench"
	"polce/internal/cgen"
	"polce/internal/progen"
	"polce/internal/telemetry"
)

// cell is one pointsto configuration: a suite program under one form,
// always with the paper's online cycle elimination.
type cell struct {
	program string
	form    polce.Form
}

func (c cell) String() string { return c.program + "/" + c.form.String() }

// paperCells are the largest suite programs whose SF-Online op stays
// under about half a second on a 2-CPU host, so a run of 20 s repeats
// every cell; pmake adds one IF-only cell at twice their scale.
var paperCells = []cell{
	{"simulator", polce.IF}, {"less-177", polce.IF}, {"li", polce.IF}, {"pmake", polce.IF},
	{"simulator", polce.SF}, {"less-177", polce.SF}, {"li", polce.SF},
}

// fingerprintPrograms are the programs fingerprints.json covers: the
// paper cells' programs plus allroots, which the smoke test runs.
var fingerprintPrograms = []string{"allroots", "simulator", "less-177", "li", "pmake"}

//go:embed fingerprints.json
var fingerprintsJSON []byte

func loadFingerprints() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(fingerprintsJSON, &m); err != nil {
		panic(fmt.Sprintf("fingerprints.json: %v", err)) // embedded at build time
	}
	return m
}

// fingerprint hashes a report's points-to sets: every location with a
// non-empty set, by name, with its sorted targets. The least solution is
// unique, so every form and cycle policy must produce the same value.
func fingerprint(rep andersen.Report) string {
	h := sha256.New()
	for _, l := range rep.Locations {
		fmt.Fprintf(h, "%s\t%s\n", l.Name, strings.Join(l.PointsTo, ","))
	}
	return fmt.Sprintf("sha256:%s:%d", hex.EncodeToString(h.Sum(nil)), len(rep.Locations))
}

// generate renders a suite program's C source the way the paper
// harness does.
func generate(program string) (string, error) {
	b, ok := bench.ByName(program)
	if !ok {
		return "", fmt.Errorf("no suite program %q", program)
	}
	pc := progen.ByScale(b.Seed, b.TargetAST)
	if b.DataHeavy {
		pc = progen.ByScaleDataHeavy(b.Seed, b.TargetAST)
	}
	return progen.Generate(pc), nil
}

// regenFingerprints recomputes fingerprints.json from SF-Plain solves
// (no cycle elimination: the most direct route to the least solution).
func regenFingerprints(path string) error {
	out := map[string]string{}
	for _, p := range fingerprintPrograms {
		src, err := generate(p)
		if err != nil {
			return err
		}
		file, err := cgen.MustParse(p+".c", src)
		if err != nil {
			return err
		}
		r := andersen.Analyze(file, andersen.Options{Form: polce.SF, Cycles: polce.CycleNone, Seed: 1})
		out[p] = fingerprint(r.BuildReport(false))
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cellRun is one cell's source and measurements over a run.
type cellRun struct {
	cell
	src    string
	want   string
	ms     samples // untraced op times
	traced samples // traced op times
	alloc  samples // bytes per untraced op
	// layer holds per-span durations of traced ops, by metric name.
	layer map[string]samples
	// counts are the deterministic counters of the first op; varies
	// marks those a later repeat disagreed on.
	counts map[string]float64
	varies map[string]bool
}

// pointsToOp runs one op — parse, analyze, least solutions, report —
// and returns its time, the counters it left, and whether the points-to
// sets matched the fingerprint. A non-nil tr traces the op and turns on
// the solver's metrics sink.
func pointsToOp(c *cellRun, seed int64, tr *tracer, id int) (time.Duration, map[string]float64, *andersen.Result, bool) {
	opts := andersen.Options{Form: c.form, Cycles: polce.CycleOnline, Seed: seed}
	var sm *telemetry.SolverMetrics
	if tr != nil {
		sm = telemetry.NewSolverMetrics(telemetry.NewRegistry())
		opts.Metrics = sm
	}
	ctx, root := tr.op(context.Background(), id)
	start := time.Now()

	_, sp := tr.span(ctx, "cgen.parse")
	file, err := cgen.MustParse(c.program+".c", c.src)
	sp.end()
	if err != nil {
		root.end()
		return time.Since(start), nil, nil, false
	}
	if tr != nil {
		// The unclosed graph, for the constraint-generation share; traced
		// ops only, so untraced op times never include it.
		_, sp = tr.span(ctx, "andersen.initial")
		andersen.AnalyzeInitial(file, opts)
		sp.end()
	}
	actx, sp := tr.span(ctx, "andersen.analyze")
	aStart := time.Now()
	r := andersen.Analyze(file, opts)
	if sm != nil {
		d, _ := sm.Phases.Get(telemetry.PhaseClosure)
		tr.emit(actx, "core.closure", aStart, d)
	}
	sp.end()
	_, sp = tr.span(ctx, "core.ls")
	r.Sys.ComputeLeastSolutions()
	sp.end()
	_, sp = tr.span(ctx, "andersen.report")
	rep := r.BuildReport(false)
	sp.end()
	elapsed := time.Since(start)
	root.end()

	st := r.Sys.Stats()
	ss := r.Sys.StorageStats()
	counts := map[string]float64{
		"core.work":            float64(st.Work),
		"core.edges":           float64(r.Sys.TotalEdges()),
		"core.searches":        float64(st.CycleSearches),
		"core.visits":          float64(st.CycleVisits),
		"core.eliminated":      float64(st.VarsEliminated),
		"graph.worklist_hwm":   float64(ss.WorklistHWM),
		"graph.delta_ranges":   float64(ss.DeltaRanges),
		"core.ls_levels":       float64(st.LSLevels),
		"core.ls_union_hits":   float64(st.LSUnionHits),
		"core.ls_union_misses": float64(st.LSUnionMisses),
	}
	if sm != nil {
		counts["core.search_depth_p90"] = sm.SearchDepth.Quantile(0.9)
	}
	return elapsed, counts, r, fingerprint(rep) == c.want
}

func runPointsTo(cfg config) (*result, error) {
	res := newResult()
	var (
		setupS samples
		cells  []*cellRun
	)
	reps := cfg.scale.setups
	if cfg.trace {
		reps = 1 // setup_s is an end-to-end metric; traced runs skip the repeats
	}
	for rep := 0; rep < reps; rep++ {
		settle()
		t0 := time.Now()
		srcs := map[string]string{}
		cells = cells[:0]
		for _, c := range cfg.scale.cells {
			if _, ok := srcs[c.program]; !ok {
				src, err := generate(c.program)
				if err != nil {
					return nil, err
				}
				srcs[c.program] = src
			}
			want, ok := cfg.scale.fingerprints[c.program]
			if !ok {
				return nil, fmt.Errorf("no fingerprint for %s", c.program)
			}
			cells = append(cells, &cellRun{cell: c, src: srcs[c.program], want: want,
				layer: map[string]samples{}, varies: map[string]bool{}})
		}
		for _, c := range cells {
			_, _, _, ok := pointsToOp(c, cfg.seed, nil, 0)
			res.check(ok)
		}
		setupS.add(time.Since(t0).Seconds())
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var last *andersen.Result
	start := time.Now()
	id := 0
	for round := 0; round < cfg.scale.minRounds || time.Since(start) < cfg.seconds; round++ {
		for i, c := range cells {
			// A traced run alternates each cell between traced and
			// untraced ops, so the tracing overhead is a paired
			// comparison within one run.
			var optr *tracer
			if tr != nil && (round+i)%2 == 0 {
				optr = tr
				for k := range optr.durs {
					delete(optr.durs, k)
				}
			}
			settle()
			a0 := totalAlloc()
			d, counts, r, ok := pointsToOp(c, cfg.seed, optr, id)
			alloc := totalAlloc() - a0
			id++
			res.check(ok)
			last = r
			if optr == nil {
				c.ms.add(msOf(d))
				c.alloc.add(float64(alloc))
			} else {
				c.traced.add(msOf(d))
				for name, ds := range optr.durs {
					c.layer[name] = append(c.layer[name], ds.sum())
				}
			}
			c.audit(counts)
		}
	}
	heap := liveHeapMB()
	runtime.KeepAlive(cells)
	runtime.KeepAlive(last)

	var med, p90, alloc, ifMed, sfMed []float64
	for _, c := range cells {
		med = append(med, c.ms.median())
		p90 = append(p90, c.ms.quantile(0.9))
		alloc = append(alloc, c.alloc.mean()/1e6)
		if c.form == polce.IF {
			ifMed = append(ifMed, c.ms.median())
		} else {
			sfMed = append(sfMed, c.ms.median())
		}
		res.note("cell %s ops %d median_ms %s p90_ms %s alloc_mb %s", c, len(c.ms),
			fmtValue(c.ms.median()), fmtValue(c.ms.quantile(0.9)), fmtValue(c.alloc.mean()/1e6))
	}
	res.table = append(res.table,
		row{"setup_s", setupS.median(), "s"},
		row{"solve_if_ms", geomean(ifMed), "ms"},
		row{"solve_sf_ms", geomean(sfMed), "ms"},
		row{"alloc_mb", geomean(alloc), "MB/op"},
		row{"live_heap_mb", heap, "MB"},
	)
	res.e2e["setup_s"] = setupS.median()
	res.e2e["op_ms"] = geomean(med)
	res.e2e["op_p90_ms"] = geomean(p90)
	res.e2e["alloc_mb"] = geomean(alloc)
	res.e2e["live_heap_mb"] = heap

	auditNotes(res, cells)
	if tr != nil {
		if err := pointsToLayers(res, tr, cells, cfg); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// audit compares an op's counters with the cell's first op.
func (c *cellRun) audit(counts map[string]float64) {
	if counts == nil {
		return
	}
	if c.counts == nil {
		c.counts = counts
		return
	}
	for k, v := range counts {
		if ref, ok := c.counts[k]; !ok {
			c.counts[k] = v // traced-only counters join on the first traced op
		} else if ref != v {
			c.varies[k] = true
		}
	}
}

// auditNotes prints, per counter and form, whether every repeat of every
// cell reported the same value: only counters marked exact can carry a
// claim on their own.
func auditNotes(res *result, cells []*cellRun) {
	verdict := map[string]string{}
	for _, c := range cells {
		suffix := "." + strings.ToLower(c.form.String())
		for k := range c.counts {
			name := k + suffix
			if c.varies[k] {
				verdict[name] = "varies"
			} else if verdict[name] == "" {
				verdict[name] = "exact"
			}
		}
	}
	for _, k := range sortedKeys(verdict) {
		res.note("counter %s %s", k, verdict[k])
	}
}

// pointsToLayers fills the per-layer metrics of a traced pointsto run.
// Times are geometric means over the form's cells of each cell's median;
// counts are sums over the form's cells.
func pointsToLayers(res *result, tr *tracer, cells []*cellRun, cfg config) error {
	byForm := func(form polce.Form, f func(c *cellRun) float64) []float64 {
		var out []float64
		for _, c := range cells {
			if c.form == form {
				out = append(out, f(c))
			}
		}
		return out
	}
	sum := func(xs []float64) float64 { return samples(xs).sum() }
	all := func(f func(c *cellRun) float64) []float64 {
		var out []float64
		for _, c := range cells {
			out = append(out, f(c))
		}
		return out
	}
	spanMed := func(name string) func(c *cellRun) float64 {
		return func(c *cellRun) float64 { return c.layer[name].median() }
	}
	count := func(name string) func(c *cellRun) float64 {
		return func(c *cellRun) float64 { return c.counts[name] }
	}
	L := res.layer
	L["cgen.parse_ms"] = geomean(all(spanMed("cgen.parse")))
	L["andersen.report_ms"] = geomean(all(spanMed("andersen.report")))
	var overhead []float64
	for _, c := range cells {
		overhead = append(overhead, ratio(c.traced.median(), c.ms.median()))
	}
	L["trace.overhead"] = geomean(overhead)
	for _, form := range []polce.Form{polce.IF, polce.SF} {
		sfx := "." + strings.ToLower(form.String())
		L["andersen.initial_ms"+sfx] = geomean(byForm(form, spanMed("andersen.initial")))
		L["andersen.analyze_ms"+sfx] = geomean(byForm(form, spanMed("andersen.analyze")))
		L["core.closure_ms"+sfx] = geomean(byForm(form, spanMed("core.closure")))
		for _, k := range []string{"core.work", "core.edges", "core.searches", "core.visits",
			"core.eliminated", "graph.worklist_hwm", "graph.delta_ranges"} {
			L[k+sfx] = sum(byForm(form, count(k)))
		}
		if s := L["core.searches"+sfx]; s > 0 {
			L["core.visits_per_search"+sfx] = L["core.visits"+sfx] / s
		}
		L["core.search_depth_p90"+sfx] = geomean(byForm(form, count("core.search_depth_p90")))
	}
	L["core.ls_ms.if"] = geomean(byForm(polce.IF, spanMed("core.ls")))
	L["core.ls_levels"] = sum(byForm(polce.IF, count("core.ls_levels")))
	hits := sum(byForm(polce.IF, count("core.ls_union_hits")))
	misses := sum(byForm(polce.IF, count("core.ls_union_misses")))
	if hits+misses > 0 {
		L["core.ls_union_hit_rate"] = hits / (hits + misses)
	}
	_, err := finishTrace(res, tr, cfg, "pointsto")
	return err
}

// finishTrace writes the run's spans, adds the self-time metrics and
// returns the spans for workload-specific analysis.
func finishTrace(res *result, tr *tracer, cfg config, workload string) ([]telemetry.TraceRecord, error) {
	path := fmt.Sprintf("%s/trace-%s-seed%d.ndjson", cfg.dir, workload, cfg.seed)
	spans, err := tr.finish(path)
	if err != nil {
		return nil, err
	}
	self := selfTimes(spans, tr.ops)
	for _, name := range sortedKeys(self) {
		res.note("self %s %s ms/op", name, fmtValue(self[name]))
		if key := "self_ms." + name; hasMetric(perLayer, key) {
			res.layer[key] = self[name]
		}
	}
	res.layer["trace.spans_per_op"] = float64(len(spans)) / float64(tr.ops)
	res.note("trace %s (%d spans, %d traced ops)", path, len(spans), tr.ops)
	return spans, nil
}
