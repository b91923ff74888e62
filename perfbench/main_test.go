package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
)

func testConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	g, err := parseGoldens(goldensTxt)
	if err != nil {
		t.Fatal(err)
	}
	return config{workload: workload, setups: 1, seconds: 0.4, trace: trace, goldens: g}
}

// A tiny run of every workload, untraced and traced, reports every
// declared metric with its unit and no failures.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the IP once per run")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var out strings.Builder
			res, err := run(testConfig(t, w.name, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := res.Metrics[d.name]
				if !ok || got.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.name, got, d.unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, got.Value)
				}
			}
			if trace && !strings.Contains(out.String(), "trace.overhead_ms = ") {
				t.Errorf("%s: traced run does not report the tracing overhead:\n%s", w.name, out.String())
			}
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func testEnv(t *testing.T, workload string) *env {
	t.Helper()
	g, err := parseGoldens(goldensTxt)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := setup(workloadByName(workload), 7, g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// A vendor op whose sealed suite differs from its golden digest fails.
func TestGateTripsOnCorruptedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the IP")
	}
	e := testEnv(t, "vendor-select")
	p := vendorLoop(selectMethod)(e, time.Millisecond, nil)
	if p.attempted != 1 || p.failed != 0 {
		t.Fatalf("intact golden: attempted %d failed %d %v", p.attempted, p.failed, p.failures)
	}
	corrupt := make(goldens)
	for k, v := range e.goldens {
		corrupt[k] = v
	}
	key := goldenKey{selectMethod.name, e.pools(0)}
	d := corrupt[key]
	d[0] ^= 1
	corrupt[key] = d
	e.goldens = corrupt
	p = vendorLoop(selectMethod)(e, time.Millisecond, nil)
	if p.failed != 1 || !strings.Contains(p.failures[0], "digest") {
		t.Fatalf("corrupted golden: failed %d %v", p.failed, p.failures)
	}
}

// swapServer replaces the env's server with one serving an
// SBA-tampered replica of the IP.
func swapServer(t *testing.T, e *env) {
	t.Helper()
	bad := e.net.Clone()
	if _, err := attack.SBA(bad, sbaMagnitude, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	e.srv.Close()
	var err error
	if e.srv, e.store, err = serve(bad); err != nil {
		t.Fatal(err)
	}
}

// Replay verdicts from a tampered IP fail, and the tamper gate trips
// when the "tampered" replica is intact.
func TestGatesTripOnTamperedIP(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the IP")
	}
	e := testEnv(t, "replay-quant")
	bad, err := e.tamperedReplica(sbaMagnitude)
	if err != nil {
		t.Fatal(err)
	}
	if errs := e.tamperGate(bad); len(errs) != 0 {
		t.Fatalf("tamper gate on a tampered replica: %v", errs)
	}
	if errs := e.tamperGate(e.net.Clone()); len(errs) != 2 {
		t.Fatalf("tamper gate on an intact replica tripped %d of 2 dialects: %v", len(errs), errs)
	}
	if _, err := e.tamperedReplica(0); err == nil {
		t.Fatal("a zero-magnitude SBA was taken as changing the suite's outputs")
	}
	swapServer(t, e)
	p := replayLoop(e, 200*time.Millisecond, nil)
	if p.attempted == 0 || p.failed != p.attempted {
		t.Fatalf("replay on a tampered IP: attempted %d, failed %d", p.attempted, p.failed)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got, ok := tailOf(xs)
	if !ok || got.Percentile != 90 || got.Value != 90 || got.Beyond != 10 {
		t.Errorf("100 samples: %+v ok=%v, want p90 = 90 with 10 beyond", got, ok)
	}
	got, ok = tailOf(xs[:15])
	if ok || got.Percentile != 50 {
		t.Errorf("15 samples: %+v ok=%v, want p50 flagged short", got, ok)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	add := func(name string, parent int, startMS, endMS int64) {
		tr.spans = append(tr.spans, span{ID: len(tr.spans), Name: name, Parent: parent,
			Start: startMS * 1e6, End: endMS * 1e6})
	}
	add("op", -1, 0, 10)
	add("a", 0, 1, 4)
	add("b", 0, 3, 6) // overlaps a
	add("c", 0, 8, 12)
	tr.finish()
	if got := tr.selfs("op"); len(got) != 1 || got[0] != 3 {
		t.Errorf("op self = %v ms, want 3", got)
	}
}
