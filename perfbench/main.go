// Command perfbench is the repository's end-to-end benchmark of the
// vendor→user pipeline: vendors generate and seal functional test suites
// (Algorithm 1 or the combined method), users replay them against a
// served IP. It drives the internal packages through their public
// functions, checks every output against goldens and references, and
// prints one JSON result line last. See NOTES.md.
//
//	bash perfbench/run.sh --workload vendor-select --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type config struct {
	workload string
	setups   int // set-ups per run; setup_s is their median
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // trace files go here; none when empty
	goldens  goldens
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{setups: 3}
	var traceFlag int
	var refresh string
	flag.StringVar(&cfg.workload, "workload", "", "workload: vendor-select, vendor-combined, replay-quant")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out-dir", "", "directory for the span file of a traced run")
	flag.StringVar(&refresh, "refresh-goldens", "", "regenerate the golden digests into this file and exit")
	flag.Parse()

	if refresh != "" {
		if err := refreshGoldens(refresh); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = traceFlag == 1
	g, err := parseGoldens(goldensTxt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.goldens = g
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up cfg.setups times, checks the gates, measures,
// and returns the result. Human-readable lines go to out. An error means
// the benchmark could not run at all; failed checks are counted in the
// result instead.
func run(cfg config, out io.Writer) (result, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 || cfg.setups < 1 {
		return result{}, fmt.Errorf("--seconds and the set-up count must be positive")
	}

	// Set-up, several times; the last environment is kept.
	var gates phase
	var e *env
	var setups, fits []float64
	var digest [32]byte
	for rep := 0; rep < cfg.setups; rep++ {
		start := time.Now()
		env, fit, err := setup(w, cfg.seed, cfg.goldens)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		fits = append(fits, fit.Seconds())
		d := paramDigest(env.net)
		if rep == 0 {
			digest = d
		} else {
			gates.attempted++
			if d != digest {
				gates.fail(fmt.Errorf("setup %d trained a different IP (parameter digest %x, first %x)", rep, d, digest))
			}
		}
		if rep < cfg.setups-1 {
			env.close()
		} else {
			e = env
		}
	}
	defer e.close()

	// Gates before timing.
	if w.wire {
		gates.attempted++
		if err := checkVendor(e.net, e.goldens, selectMethod, e.pools(0), e.vendor); err != nil {
			gates.fail(fmt.Errorf("vendor suite: %w", err))
		}
		gates.attempted += 2
		bad, err := e.tamperedReplica(sbaMagnitude)
		if err != nil {
			gates.fail(fmt.Errorf("tamper gate: %w", err))
		}
		if bad != nil {
			for _, err := range e.tamperGate(bad) {
				gates.fail(err)
			}
		}
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	m := metricSet{}
	total := gates
	runtime.GC()
	if !cfg.trace {
		p := w.run(e, d, nil)
		total.merge(p)
		reportEndToEnd(out, m, p, setups)
		return finish(out, cfg, total, m.export(endToEnd)), nil
	}

	// Traced run: odd ops traced, even ops not, then the shadow calls on
	// the traced ops' inputs.
	tr := newTracer()
	p := w.run(e, d, tr)
	total.merge(p)
	ls := newLayerSamples()
	if err := w.shadow(e, tr, p, ls, m); err != nil {
		total.attempted++
		total.fail(fmt.Errorf("shadow calls: %w", err))
	}
	tr.finish()
	reportPerLayer(out, m, p, tr, ls, fits)
	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	return finish(out, cfg, total, m.export(perLayer)), nil
}

func finish(out io.Writer, cfg config, total phase, metrics map[string]metric) result {
	fmt.Fprintf(out, "%s seed %d: %d attempted, %d failed\n", cfg.workload, cfg.seed, total.attempted, total.failed)
	for _, f := range total.failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	return result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: metrics}
}

// reportEndToEnd fills the end-to-end metrics from an untraced phase.
func reportEndToEnd(out io.Writer, m metricSet, p phase, setups []float64) {
	m["setup_s"] = median(setups)
	m["op_p50_ms"] = median(p.lat)
	t, ok := tailOf(p.lat)
	m["op_tail_ms"] = t.Value
	m["throughput"] = p.throughput
	m["cpu_ms_per_item"] = p.cpuPerItem
	m["bytes_per_item"] = p.bytesPerItem
	m["peak_rss_mb"] = peakRSSMB()

	for _, d := range endToEnd {
		fmt.Fprintf(out, "%s = %.4f %s\n", d.name, m[d.name], d.unit)
	}
	fmt.Fprintf(out, "setup_s is the median of %d set-ups: %s s\n", len(setups), joinFloats(setups))
	note := ""
	if !ok {
		note = ", FEWER THAN 10 BEYOND: run longer"
	}
	fmt.Fprintf(out, "op_tail_ms is p%d of %d ops, %d beyond%s\n", t.Percentile, t.N, t.Beyond, note)
	fmt.Fprintf(out, "op latency ms: p50 %.4f p75 %.4f p90 %.4f p95 %.4f p99 %.4f max %.4f\n",
		percentile(p.lat, 50), percentile(p.lat, 75), percentile(p.lat, 90), percentile(p.lat, 95), percentile(p.lat, 99), percentile(p.lat, 100))
}

// reportPerLayer fills the per-layer metrics of a traced run and prints
// the span table and the derived attributions.
func reportPerLayer(out io.Writer, m metricSet, p phase, tr *tracer, ls *layerSamples, fits []float64) {
	m["train.fit_s"] = median(fits)
	for name, span := range map[string]string{
		"core.generate_ms":        "core.generate",
		"validate.build_suite_ms": "validate.build_suite",
		"validate.seal_ms":        "validate.seal",
		"validate.open_ms":        "validate.open",
		"validate.dial_ms":        "validate.dial",
		"validate.replay_ms":      "validate.replay",
	} {
		m[name] = tr.medianMS(span)
	}
	for name, v := range p.extra {
		m[name] = v
	}
	ls.emit(m)
	if p.attempted > 0 {
		m["runtime.alloc_mb_per_op"] = mb(p.rt.allocBytes) / float64(p.attempted)
		m["runtime.gc_cycles_per_op"] = float64(p.rt.gcCycles) / float64(p.attempted)
	}
	if p.rt.totalCPU > 0 {
		m["runtime.gc_cpu_share"] = p.rt.gcCPU / p.rt.totalCPU
	}
	m["op.self_ms"] = median(tr.selfs("op"))
	untracedP50, tracedP50 := median(p.lat), median(p.tracedLat)
	m["trace.overhead_ms"] = tracedP50 - untracedP50

	tr.summary(out)
	fmt.Fprintf(out, "trace.overhead_ms = %.4f ms (traced op_p50 %.4f ms over %d ops − untraced %.4f ms over %d ops)\n",
		tracedP50-untracedP50, tracedP50, len(p.tracedLat), untracedP50, len(p.lat))
	attribute := func(label string, v, base float64, baseName string) {
		if base > 0 {
			fmt.Fprintf(out, "%s = %.4f (base %s = %.4f, %.1f%%)\n", label, v, baseName, base, 100*v/base)
		}
	}
	gen, ext := m["core.generate_ms"], m["coverage.extract_ms"]
	attribute("core.generate_ms − coverage.extract_ms", gen-ext, gen, "core.generate_ms")
	if synth := m["core.synth_round_ms"]; synth > 0 {
		fmt.Fprintf(out, "(core.generate_ms − coverage.extract_ms) / core.synth_round_ms = %.2f rounds (base core.synth_round_ms = %.4f)\n", (gen-ext)/synth, synth)
	}
	replay, local := m["validate.replay_ms"], m["validate.local_replay_ms"]
	attribute("validate.replay_ms − validate.local_replay_ms (wire and dispatch)", replay-local, replay, "validate.replay_ms")
	for _, d := range perLayer {
		fmt.Fprintf(out, "%s = %.4f %s\n", d.name, m[d.name], d.unit)
	}
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
