package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"polce"
	"polce/internal/serve"
	"polce/internal/telemetry"
	"polce/internal/wal"
	"polce/internal/walreplay"
)

// session is the SCL session every serve request names.
const session = "bench"

// clusterSCL renders cluster c's batch as SCL: the same shape as
// clusterBatch. The first POST of a cluster declares its atom; a re-POST
// reuses it, so an edit never mints a name (fresh names would grow every
// snapshot capture run over run).
func clusterSCL(c int, declare bool) string {
	var b strings.Builder
	if declare {
		fmt.Fprintf(&b, "cons a%d\n", c)
	}
	fmt.Fprintf(&b, "a%d <= c%d_v0\n", c, c)
	for i := 1; i < clusterSize; i++ {
		fmt.Fprintf(&b, "c%d_v%d <= c%d_v%d\n", c, i-1, c, i)
	}
	fmt.Fprintf(&b, "c%d_v%d <= c%d_v%d\n", c, clusterSize-1, c, clusterSize/2)
	if c%3 == 2 {
		fmt.Fprintf(&b, "c%d_v%d <= c%d_v0\n", c-1, clusterSize-1, c)
	}
	return b.String()
}

// solverOptions are polce-serve's defaults: IF, online cycle
// elimination, retractable, seed 1.
func solverOptions() polce.Options {
	return polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 1, Retractable: true}
}

// service is one in-process server recovered from its constraint log.
type service struct {
	srv      *serve.Server
	h        http.Handler
	log      *wal.Log
	dir      string
	reg      *telemetry.Registry
	handles  []uint64 // current retraction handle per cluster
	clusters int
}

// writeLog writes the constraint log the service recovers from: one
// frame per cluster, synced once at the end.
func writeLog(dir string, clusters int) error {
	log, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, Meta: walreplay.OptionsMeta(solverOptions())})
	if err != nil {
		return err
	}
	for c := 0; c < clusters; c++ {
		if _, err := log.Append(wal.FrameConstraints, session, clusterSCL(c, true)); err != nil {
			log.Close()
			return err
		}
	}
	if err := log.Sync(); err != nil {
		log.Close()
		return err
	}
	return log.Close()
}

// startService writes the log, opens it with per-batch fsync, recovers a
// server from it and captures the first snapshot. With tr set the server
// runs with its tracer, registry and solver metrics on.
func startService(dir string, clusters int, tr *tracer) (*service, time.Duration, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, 0, err
	}
	if err := writeLog(dir, clusters); err != nil {
		return nil, 0, 0, fmt.Errorf("writing constraint log: %w", err)
	}
	t0 := time.Now()
	log, rec, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, Meta: walreplay.OptionsMeta(solverOptions())})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("opening constraint log: %w", err)
	}
	openD := time.Since(t0)
	opt := solverOptions()
	cfg := serve.Config{WAL: log, WALSession: session}
	sv := &service{log: log, dir: dir, clusters: clusters}
	if tr != nil {
		sv.reg = telemetry.NewRegistry()
		sm := telemetry.NewSolverMetrics(sv.reg)
		opt.Metrics = sm
		cfg.Registry, cfg.SolverMetrics, cfg.Tracer = sv.reg, sm, tr.t
	}
	cfg.Solver = polce.New(opt)
	sv.srv = serve.New(cfg)
	sv.h = sv.srv.Handler()
	t1 := time.Now()
	if _, err := sv.srv.Recover(rec.Frames); err != nil {
		sv.stop()
		return nil, 0, 0, fmt.Errorf("recovering: %w", err)
	}
	recoverD := time.Since(t1)
	// Recovered handles are the frames' sequence numbers.
	for _, f := range rec.Frames {
		sv.handles = append(sv.handles, f.Seq)
	}
	if len(sv.handles) != clusters {
		sv.stop()
		return nil, 0, 0, fmt.Errorf("recovered %d frames, want %d", len(sv.handles), clusters)
	}
	if rr, _ := sv.do(context.Background(), http.MethodGet, "/v1/snapshot/"+session, "", ""); rr.Code != http.StatusOK {
		sv.stop()
		return nil, 0, 0, fmt.Errorf("first snapshot: status %d", rr.Code)
	}
	return sv, openD, recoverD, nil
}

// stop drains the server, closes its log and deletes it.
func (sv *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := sv.srv.Shutdown(ctx)
	if cerr := sv.log.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(sv.dir); err == nil {
		err = rerr
	}
	return err
}

// do sends one request straight into the server's handler and returns
// the response and how long the handler took. The request carries ctx,
// so on a traced op the server's spans nest under the benchmark's and
// share the op's trace ID.
func (sv *service) do(ctx context.Context, method, path, body, ifNoneMatch string) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	if id := telemetry.TraceIDFrom(ctx); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	rr := httptest.NewRecorder()
	start := time.Now()
	sv.h.ServeHTTP(rr, req)
	return rr, time.Since(start)
}

// serveStats accumulates one service's client-side measurements.
type serveStats struct {
	edit, reads samples
	byRoute     map[string]samples
	requests    int
	reqSeconds  float64
	allocBytes  uint64
	notModified int
}

func newServeStats() *serveStats { return &serveStats{byRoute: map[string]samples{}} }

// step runs one script step against cluster c: the edit (DELETE of the
// cluster's batch, POST of the same constraints, GET of one of its least
// solutions), then reads of two other clusters' points-to sets, the
// snapshot route, and If-None-Match re-polls of the two that carry
// ETags. check is called once per request with whether its status and
// body were as expected.
func (sv *service) step(rng *rand.Rand, c int, st *serveStats, tr *tracer, id int, check func(bool)) {
	ctx, root := tr.op(context.Background(), id)
	defer root.end()
	k := rng.Intn(clusterSize)
	others := [2]int{rng.Intn(sv.clusters), rng.Intn(sv.clusters)}

	// send issues one request; kind names it in the per-route figures:
	// delete, post, least-solution (the read that follows an edit and pays
	// the capture), points-to, snapshot, or repoll (the If-None-Match
	// reads, answered 304).
	send := func(kind, method, path, body, inm string) (*httptest.ResponseRecorder, float64) {
		name := "serve." + kind
		if method == http.MethodGet {
			name = "serve.get"
		}
		sctx, sp := tr.span(ctx, name)
		a0 := totalAlloc()
		rr, d := sv.do(sctx, method, path, body, inm)
		st.allocBytes += totalAlloc() - a0
		sp.end()
		st.requests++
		st.reqSeconds += d.Seconds()
		if method == http.MethodGet {
			st.reads.add(msOf(d))
			if rr.Code == http.StatusNotModified {
				st.notModified++
			}
		}
		st.byRoute[kind] = append(st.byRoute[kind], msOf(d))
		return rr, msOf(d)
	}

	rr, delMS := send("delete", http.MethodDelete, fmt.Sprintf("/v1/constraints/%s/%d", session, sv.handles[c]), "", "")
	var del struct{ Batch uint64 }
	check(rr.Code == http.StatusOK && json.Unmarshal(rr.Body.Bytes(), &del) == nil && del.Batch == sv.handles[c])

	rr, postMS := send("post", http.MethodPost, "/v1/constraints/"+session+"?wait=1", clusterSCL(c, false), "")
	var post struct {
		Applied int
		Batch   uint64
	}
	ok := rr.Code == http.StatusOK && json.Unmarshal(rr.Body.Bytes(), &post) == nil && post.Batch != 0
	check(ok && post.Applied == len(strings.Split(strings.TrimSpace(clusterSCL(c, false)), "\n")))
	if ok {
		sv.handles[c] = post.Batch
	}

	lsPath := fmt.Sprintf("/v1/least-solution/%s/c%d_v%d", session, c, k)
	rr, getMS := send("least-solution", http.MethodGet, lsPath, "", "")
	st.edit.add(delMS + postMS + getMS)
	var ls struct{ Terms []string }
	check(rr.Code == http.StatusOK && json.Unmarshal(rr.Body.Bytes(), &ls) == nil && sameAtoms(ls.Terms, c))
	lsTag := rr.Header().Get("ETag")

	for _, o := range others {
		rr, _ = send("points-to", http.MethodGet, fmt.Sprintf("/v1/points-to/%s/c%d_v%d", session, o, k), "", "")
		var pt struct {
			PointsTo []string `json:"points_to"`
		}
		check(rr.Code == http.StatusOK && json.Unmarshal(rr.Body.Bytes(), &pt) == nil && sameAtoms(pt.PointsTo, o))
	}

	rr, _ = send("snapshot", http.MethodGet, "/v1/snapshot/"+session, "", "")
	var snap struct {
		SessionVars int `json:"session_vars"`
		Batches     int
	}
	check(rr.Code == http.StatusOK && json.Unmarshal(rr.Body.Bytes(), &snap) == nil &&
		snap.SessionVars == sv.clusters*clusterSize && snap.Batches == sv.clusters)
	snapTag := rr.Header().Get("ETag")

	rr, _ = send("repoll", http.MethodGet, lsPath, "", lsTag)
	check(rr.Code == http.StatusNotModified && lsTag != "")
	rr, _ = send("repoll", http.MethodGet, "/v1/snapshot/"+session, "", snapTag)
	check(rr.Code == http.StatusNotModified && snapTag != "")
}

func runServe(cfg config) (*result, error) {
	res := newResult()
	n := cfg.scale.serveClusters
	walDir := func(tag string) string {
		return filepath.Join(cfg.dir, fmt.Sprintf("wal-%d-%s", os.Getpid(), tag))
	}
	var setupS, openMS, recoverMS samples
	var sv *service
	reps := cfg.scale.quickSetups
	if cfg.trace {
		reps = 1 // setup_s is an end-to-end metric; traced runs skip the repeats
	}
	for rep := 0; rep < reps; rep++ {
		if sv != nil {
			if err := sv.stop(); err != nil {
				return nil, err
			}
			sv = nil
		}
		settle()
		t0 := time.Now()
		var openD, recoverD time.Duration
		var err error
		sv, openD, recoverD, err = startService(walDir("plain"), n, nil)
		if err != nil {
			return nil, err
		}
		setupS.add(time.Since(t0).Seconds())
		openMS.add(msOf(openD))
		recoverMS.add(msOf(recoverD))
	}
	defer sv.stop()
	// The traced run drives a second, instrumented server on alternate
	// steps.
	var tsv *service
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		var openD, recoverD time.Duration
		var err error
		tsv, openD, recoverD, err = startService(walDir("traced"), n, tr)
		if err != nil {
			return nil, err
		}
		defer tsv.stop()
		openMS, recoverMS = samples{msOf(openD)}, samples{msOf(recoverD)}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	perm := rng.Perm(n)
	plain, traced := newServeStats(), newServeStats()
	start := time.Now()
	for i := 0; i < cfg.scale.minRounds*8 || time.Since(start) < cfg.seconds; i++ {
		c := perm[i%n]
		settle()
		if tr != nil && i%2 == 0 {
			tsv.step(rng, c, traced, tr, i, res.check)
			continue
		}
		sv.step(rng, c, plain, nil, i, res.check)
	}
	heap := liveHeapMB()
	runtime.KeepAlive(sv)

	allocMB := float64(plain.allocBytes) / float64(plain.requests) / 1e6
	rps := float64(plain.requests) / plain.reqSeconds
	res.table = append(res.table,
		row{"setup_s", setupS.median(), "s"},
		row{"edit_ms", plain.edit.median(), "ms"},
		row{"edit_p90_ms", plain.edit.quantile(0.9), "ms"},
		row{"read_ms", plain.reads.median(), "ms"},
		row{"read_p99_ms", plain.reads.quantile(0.99), "ms"},
		row{"rps", rps, "1/s"},
		row{"alloc_mb", allocMB, "MB/op"},
		row{"live_heap_mb", heap, "MB"},
	)
	res.note("requests %d (%d edits, %d reads) over %d clusters x %d vars", plain.requests, len(plain.edit), len(plain.reads), n, clusterSize)
	for _, r := range sortedKeys(plain.byRoute) {
		s := plain.byRoute[r]
		res.note("route %s n %d median_ms %s p99_ms %s", r, len(s), fmtValue(s.median()), fmtValue(s.quantile(0.99)))
	}
	res.e2e["setup_s"] = setupS.median()
	res.e2e["op_ms"] = plain.edit.median()
	res.e2e["op_p90_ms"] = plain.edit.quantile(0.9)
	res.e2e["alloc_mb"] = allocMB
	res.e2e["live_heap_mb"] = heap
	if tr == nil {
		return res, nil
	}

	L := res.layer
	L["wal.open_ms"] = openMS.median()
	L["serve.recover_ms"] = recoverMS.median()
	L["serve.post_ms"] = traced.byRoute["post"].median()
	L["serve.delete_ms"] = traced.byRoute["delete"].median()
	for _, r := range []string{"least-solution", "points-to", "snapshot"} {
		L["serve.get_ms."+r] = traced.byRoute[r].median()
	}
	L["serve.not_modified_ratio"] = ratio(float64(traced.notModified), float64(len(traced.reads)))
	L["trace.overhead"] = ratio(traced.edit.median(), plain.edit.median())
	if h, ok := tsv.reg.Snapshot()["polce_serve_wal_append_seconds"].(map[string]any); ok {
		if cnt, _ := h["count"].(uint64); cnt > 0 {
			L["wal.append_ms"] = h["sum"].(float64) / float64(cnt) * 1e3
		}
	}
	spans, err := finishTrace(res, tr, cfg, "serve")
	if err != nil {
		return nil, err
	}
	serveSpanLayers(L, spans)
	return res, nil
}

// serveSpanLayers derives the server-side per-layer metrics from the
// server's own spans. The server records whole microseconds, so these
// times are means, which keep their digits, rather than medians.
func serveSpanLayers(L map[string]float64, spans []telemetry.TraceRecord) {
	byID := map[string]telemetry.TraceRecord{}
	for _, r := range spans {
		byID[r.Span] = r
	}
	durs := map[string]samples{}
	var accept, captures samples
	lastVersion := -1.0
	for _, r := range spans {
		ms := float64(r.DurMicros) / 1e3
		durs[r.Name] = append(durs[r.Name], ms)
		switch r.Name {
		case "await-apply":
			// The POST's http span minus its await-apply child: parse, log
			// append and fsync, enqueue.
			if p, ok := byID[r.Parent]; ok {
				accept.add(float64(p.DurMicros)/1e3 - ms)
			}
		case "snapshot-capture":
			// A capture at a new graph version does real work (a miss); a
			// repeat capture of the same version is answered by the
			// solver's epoch guard.
			if v, _ := r.Attrs["version"].(float64); v != lastVersion {
				captures.add(ms)
				lastVersion = v
			}
		}
	}
	L["serve.accept_ms"] = accept.mean()
	L["serve.snapshot_capture_ms"] = captures.mean()
	L["serve.snapshot_capture_p99_ms"] = captures.quantile(0.99)
	L["serve.snapshot_miss_ratio"] = ratio(float64(len(captures)), float64(len(durs["snapshot-capture"])))
	L["serve.ls_pass_ms"] = durs["ls-pass"].mean()
	L["serve.queue_wait_ms"] = durs["queue-wait"].mean()
	L["serve.ingest_drain_ms"] = durs["ingest-drain"].mean()
	L["serve.retract_drain_ms"] = durs["retract-drain"].mean()
}
