// Command perfbench is polce's benchmark: three workloads that drive the
// solver, the points-to client and the HTTP service through their public
// functions, check every op's output, and print one JSON result line.
//
//	perfbench -workload pointsto|edit|serve -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// the run records spans and solver instruments and the result carries the
// per-layer metrics instead. See README.md for what each workload
// measures and why.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload; BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"alloc_mb", "MB/op"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run, reported by every workload;
// a layer the workload bypasses reads 0. BENCHMARK.json lists the same
// names and units.
var perLayer = []metricDef{
	// cgen, andersen and the core closure (pointsto).
	{"cgen.parse_ms", "ms"},
	{"andersen.initial_ms.if", "ms"},
	{"andersen.initial_ms.sf", "ms"},
	{"andersen.analyze_ms.if", "ms"},
	{"andersen.analyze_ms.sf", "ms"},
	{"andersen.report_ms", "ms"},
	{"core.closure_ms.if", "ms"},
	{"core.closure_ms.sf", "ms"},
	{"core.work.if", "count"},
	{"core.work.sf", "count"},
	{"core.edges.if", "count"},
	{"core.edges.sf", "count"},
	{"core.searches.if", "count"},
	{"core.searches.sf", "count"},
	{"core.visits.if", "count"},
	{"core.visits.sf", "count"},
	{"core.visits_per_search.if", "count"},
	{"core.visits_per_search.sf", "count"},
	{"core.eliminated.if", "count"},
	{"core.eliminated.sf", "count"},
	{"core.search_depth_p90.if", "count"},
	{"core.search_depth_p90.sf", "count"},
	{"graph.worklist_hwm.if", "count"},
	{"graph.worklist_hwm.sf", "count"},
	{"graph.delta_ranges.if", "count"},
	{"graph.delta_ranges.sf", "count"},
	// The least-solution engine (pointsto IF cells, edit reads).
	{"core.ls_ms.if", "ms"},
	{"core.ls_levels", "count"},
	{"core.ls_union_hit_rate", "ratio"},
	{"core.ls_read_ms", "ms"},
	{"core.ls_cone_vars", "count"},
	// Retraction (edit).
	{"retract.ms", "ms"},
	{"retract.cone_vars", "count"},
	{"retract.replayed_constraints", "count"},
	{"core.readd_ms", "ms"},
	{"edit.layer_coverage", "ratio"},
	// Snapshots, write path, read path and recovery (serve).
	{"serve.snapshot_capture_ms", "ms"},
	{"serve.snapshot_capture_p99_ms", "ms"},
	{"serve.ls_pass_ms", "ms"},
	{"serve.snapshot_miss_ratio", "ratio"},
	{"serve.post_ms", "ms"},
	{"serve.delete_ms", "ms"},
	{"serve.accept_ms", "ms"},
	{"wal.append_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.ingest_drain_ms", "ms"},
	{"serve.retract_drain_ms", "ms"},
	{"serve.get_ms.least-solution", "ms"},
	{"serve.get_ms.points-to", "ms"},
	{"serve.get_ms.snapshot", "ms"},
	{"serve.not_modified_ratio", "ratio"},
	{"wal.open_ms", "ms"},
	{"serve.recover_ms", "ms"},
	// Self time per op of each span name (benchmark spans around public
	// calls, and the server's own request spans).
	{"self_ms.cgen.parse", "ms"},
	{"self_ms.andersen.initial", "ms"},
	{"self_ms.andersen.analyze", "ms"},
	{"self_ms.core.closure", "ms"},
	{"self_ms.core.ls", "ms"},
	{"self_ms.andersen.report", "ms"},
	{"self_ms.retract", "ms"},
	{"self_ms.core.readd", "ms"},
	{"self_ms.core.ls_read", "ms"},
	{"self_ms.serve.delete", "ms"},
	{"self_ms.serve.post", "ms"},
	{"self_ms.serve.get", "ms"},
	{"self_ms.http", "ms"},
	{"self_ms.await-apply", "ms"},
	{"self_ms.await-retract", "ms"},
	{"self_ms.queue-wait", "ms"},
	{"self_ms.ingest-drain", "ms"},
	{"self_ms.retract-drain", "ms"},
	{"self_ms.cycle-search", "ms"},
	{"self_ms.snapshot-capture", "ms"},
	{"self_ms.ls-pass", "ms"},
	{"self_ms.result-handoff", "ms"},
	// Tracing itself.
	{"trace.spans_per_op", "count"},
	{"trace.overhead", "ratio"},
}

// row is one metric line of the human-readable report.
type row struct {
	name  string
	value float64
	unit  string
}

// result is what a workload run hands back to main.
type result struct {
	attempted, failed int
	// e2e holds the end-to-end metrics (untraced runs), layer the
	// per-layer ones (traced runs), keyed by name.
	e2e, layer map[string]float64
	// table holds the workload's own metrics under the names its issue
	// and README use (solve_if_ms, edit_ms, read_p99_ms, error_rate, ...),
	// printed before the JSON line.
	table []row
	// notes are further report lines (per-cell figures, counter audit).
	notes []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// dir holds the run's files: WAL directories (removed at the end)
	// and the trace.
	dir   string
	scale scale
}

// scale sizes the workloads; the smoke test shrinks it.
type scale struct {
	// cells are the pointsto cells, in rotation order.
	cells []cell
	// fingerprints are the expected points-to fingerprints by program.
	fingerprints map[string]string
	// editClusters and serveClusters size the edit and serve graphs.
	editClusters, serveClusters int
	// setups is how many times a pointsto run sets its workload up, and
	// quickSetups the same for edit and serve, whose set-ups take well
	// under a second; setup_s is the median.
	setups, quickSetups int
	// minRounds is the least number of op rounds a run measures, however
	// short -seconds is.
	minRounds int
}

func fullScale() scale {
	return scale{
		cells:         paperCells,
		fingerprints:  loadFingerprints(),
		editClusters:  4096,
		serveClusters: 1024,
		setups:        3,
		quickSetups:   7,
		minRounds:     3,
	}
}

var workloads = map[string]func(config) (*result, error){
	"pointsto": runPointsTo,
	"edit":     runEdit,
	"serve":    runServe,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: pointsto, edit or serve")
		seed     = flag.Int64("seed", 1, "workload seed: the variable order for pointsto, the cluster order and read script for edit and serve")
		seconds  = flag.Float64("seconds", 20, "how long to measure")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
		dir      = flag.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for the run's files")
		regen    = flag.String("regen-fingerprints", "", "recompute the points-to fingerprints with an SF-Plain solve, write them to this file, and exit")
	)
	flag.Parse()
	if *regen != "" {
		if err := regenFingerprints(*regen); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want pointsto, edit or serve)", *workload))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		dir:     *dir,
		scale:   fullScale(),
	}
	if err := execute(os.Stdout, *workload, run, cfg); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// execute runs one workload and prints its report: a meta line, the
// workload's metric table, notes, and last the JSON result line.
func execute(w io.Writer, name string, run func(config) (*result, error), cfg config) error {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	wd, _ := os.Getwd() // only names the commit; commitOf reports "unknown" for ""
	steal0 := stealTicks()
	res, err := run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defs, vals := endToEnd, res.e2e
	if cfg.trace {
		defs, vals = perLayer, res.layer
	}
	for k := range vals {
		if !hasMetric(defs, k) {
			return fmt.Errorf("%s reported undeclared metric %q", name, k)
		}
	}
	meta, err := json.Marshal(map[string]any{
		"workload":    name,
		"seed":        cfg.seed,
		"trace":       cfg.trace,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu":         cpuModel(),
		"go":          runtime.Version(),
		"commit":      commitOf(wd),
		"steal_ticks": stealTicks() - steal0,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "meta %s\n", meta)
	res.table = append(res.table, row{"error_rate", res.errorRate(), "fraction"})
	for _, r := range res.table {
		fmt.Fprintf(w, "metric %s %s %s\n", r.name, fmtValue(r.value), r.unit)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	metrics := map[string]any{}
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": vals[d.name], "unit": d.unit}
		if cfg.trace {
			fmt.Fprintf(w, "layer %s %s %s\n", d.name, fmtValue(vals[d.name]), d.unit)
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", out)
	return nil
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sortedKeys returns m's keys in order, for stable report lines.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
