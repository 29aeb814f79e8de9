package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"polce"
)

// tinyScale runs every workload in well under a second.
func tinyScale() scale {
	return scale{
		cells:         []cell{{"allroots", polce.IF}, {"allroots", polce.SF}},
		fingerprints:  loadFingerprints(),
		editClusters:  48,
		serveClusters: 48,
		setups:        1,
		quickSetups:   1,
		minRounds:     2,
	}
}

// tableMetrics are the metrics each workload prints by name and unit in
// its report lines, under the names the README uses.
var tableMetrics = map[string][]metricDef{
	"pointsto": {{"setup_s", "s"}, {"solve_if_ms", "ms"}, {"solve_sf_ms", "ms"},
		{"alloc_mb", "MB/op"}, {"live_heap_mb", "MB"}, {"error_rate", "fraction"}},
	"edit": {{"setup_s", "s"}, {"edit_ms", "ms"}, {"edit_p90_ms", "ms"},
		{"alloc_mb", "MB/op"}, {"live_heap_mb", "MB"}, {"error_rate", "fraction"}},
	"serve": {{"setup_s", "s"}, {"edit_ms", "ms"}, {"edit_p90_ms", "ms"},
		{"read_ms", "ms"}, {"read_p99_ms", "ms"}, {"rps", "1/s"},
		{"alloc_mb", "MB/op"}, {"live_heap_mb", "MB"}, {"error_rate", "fraction"}},
}

type jsonResult struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runTiny runs one workload at tiny scale and returns its report lines
// and parsed result line.
func runTiny(t *testing.T, workload string, trace bool, sc scale) ([]string, jsonResult) {
	t.Helper()
	var out bytes.Buffer
	cfg := config{seed: 1, seconds: 50 * time.Millisecond, trace: trace, dir: t.TempDir(), scale: sc}
	if err := execute(&out, workload, workloads[workload], cfg); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("%s: last line is not JSON: %v\n%s", workload, err, last)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("%s: result keys %v, want correct, attempted, failed, metrics", workload, keys)
	}
	var res jsonResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	return lines, res
}

func TestSmoke(t *testing.T) {
	for _, workload := range []string{"pointsto", "edit", "serve"} {
		for _, trace := range []bool{false, true} {
			lines, res := runTiny(t, workload, trace, tinyScale())
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", workload, trace,
					res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", workload, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", workload, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, d.name, m.Value)
				}
			}
			for _, d := range tableMetrics[workload] {
				if !hasLine(lines, "metric "+d.name+" ", " "+d.unit) {
					t.Errorf("%s trace=%v: no line for metric %s in %s", workload, trace, d.name, d.unit)
				}
			}
			if !hasLine(lines, "metric error_rate 0 ", "fraction") {
				t.Errorf("%s trace=%v: error_rate is not 0", workload, trace)
			}
		}
	}
}

// TestPlantedFingerprint checks that the pointsto check is live: a wrong
// expected fingerprint must fail every op of that program.
func TestPlantedFingerprint(t *testing.T) {
	sc := tinyScale()
	sc.fingerprints = map[string]string{"allroots": "sha256:planted:0"}
	lines, res := runTiny(t, "pointsto", false, sc)
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("planted fingerprint: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if hasLine(lines, "metric error_rate 0 ", "fraction") {
		t.Error("planted fingerprint left error_rate at 0")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics the program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func hasLine(lines []string, prefix, suffix string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) && strings.HasSuffix(l, suffix) {
			return true
		}
	}
	return false
}
