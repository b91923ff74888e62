package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/validate"
)

const (
	// replayBatch is the user's replay batch size.
	replayBatch = 16
	// sbaMagnitude is the bias offset of the tampered replica.
	sbaMagnitude = 5
	// sbaDraws bounds the seeded SBA draws tried for the tamper gate.
	sbaDraws = 16
	// shadowOps is how many traced vendor ops get shadow calls.
	shadowOps = 3
)

// env is the state one workload runs on: the trained IP, the worker
// pool, and for the wire workloads the vendor's suite and a server.
type env struct {
	seed    int64
	net     *nn.Network
	wp      *parallel.Pool
	goldens goldens
	pools   func(op int) int64

	vendor vendorResult    // the suite the user replays (wire workloads)
	exact  *validate.Suite // the same tests with ExactOutputs references
	srv    *validate.Server
	store  *validate.FrameStore
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.Close()
	}
	e.wp.Close()
}

// phase is what one timed loop measured.
type phase struct {
	lat               []float64 // ms per untraced op
	tracedLat         []float64 // ms per traced op
	attempted, failed int
	failures          []string // the first few failure messages

	throughput   float64
	cpuPerItem   float64 // ms
	bytesPerItem float64
	rt           rtSample // runtime counter deltas over the ops

	extra   metricSet // per-layer values the loop itself measures
	shadows []int     // vendor ops whose pools get shadow calls
}

func (p *phase) fail(err error) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, err.Error())
	}
}

// addLat records an op's latency as traced or untraced.
func (p *phase) addLat(t *tracer, d time.Duration) {
	if t != nil {
		p.tracedLat = append(p.tracedLat, ms(d))
	} else {
		p.lat = append(p.lat, ms(d))
	}
}

func (p *phase) merge(q phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	for _, f := range q.failures {
		if len(p.failures) < 5 {
			p.failures = append(p.failures, f)
		}
	}
}

// workload is one benchmark workload.
type workload struct {
	name string
	wire bool // runs against a served IP
	// run measures for d. With a tracer, every odd op is traced
	// (tracer.forOp), so traced and untraced ops share the conditions.
	run func(e *env, d time.Duration, tr *tracer) phase
	// shadow makes the traced run's extra calls on the traced phase's
	// inputs, outside every op span.
	shadow func(e *env, tr *tracer, p phase, ls *layerSamples, m metricSet) error
}

var workloads = []*workload{
	{name: "vendor-select", run: vendorLoop(selectMethod), shadow: vendorShadow(selectMethod)},
	{name: "vendor-combined", run: vendorLoop(combinedMethod), shadow: vendorShadow(combinedMethod)},
	{name: "replay-quant", wire: true, run: replayLoop, shadow: replayShadow},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// setup trains the IP and warms the workload up: worker pool, and for
// the wire workloads the vendor suite, the server, the first dial and
// the frame-store fill. fit is the training time alone.
func setup(w *workload, seed int64, g goldens) (e *env, fit time.Duration, err error) {
	start := time.Now()
	ip, err := trainIP()
	if err != nil {
		return nil, 0, fmt.Errorf("train IP: %w", err)
	}
	fit = time.Since(start)
	e = &env{seed: seed, net: ip, wp: parallel.NewPool(workers()), goldens: g, pools: poolSeeds(seed)}
	if !w.wire {
		return e, fit, nil
	}
	if err := e.warmWire(); err != nil {
		e.close()
		return nil, 0, err
	}
	return e, fit, nil
}

// serve starts a server for ip with a private frame store.
func serve(ip *nn.Network) (*validate.Server, *validate.FrameStore, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	store := validate.NewFrameStore(0, 0)
	return validate.ServeWith(ln, ip, validate.ServerOptions{Workers: workers(), FrameStore: store}), store, nil
}

func (e *env) warmWire() error {
	ps := e.pools(0)
	r, err := vendorOp(e.net, selectMethod, makePool(ps), ps, e.wp, nil, -1)
	if err != nil {
		return fmt.Errorf("vendor suite: %w", err)
	}
	e.vendor = r
	e.exact = validate.BuildSuite("perfbench-exact", e.net, r.suite.Inputs, validate.ExactOutputs)
	if e.srv, e.store, err = serve(e.net); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// First dial and frame-store fill.
	c, err := validate.DialWith(e.srv.Addr(), validate.DialOptions{Wire: validate.WireQuant})
	if err != nil {
		return fmt.Errorf("warm dial: %w", err)
	}
	defer c.Close()
	if _, err := r.suite.Replay(c, validate.ReplayConfig{Batch: replayBatch, Wire: validate.WireQuant}); err != nil {
		return fmt.Errorf("warm replay: %w", err)
	}
	return nil
}

// tamperedReplica returns a clone of the IP with a seeded attack.SBA
// applied that changes the suite's outputs in process. An SBA on a
// neuron that no suite input activates changes no output, so no replay
// can detect it; such draws are skipped, up to sbaDraws of them.
func (e *env) tamperedReplica(magnitude float64) (*nn.Network, error) {
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < sbaDraws; i++ {
		bad := e.net.Clone()
		if _, err := attack.SBA(bad, magnitude, rng); err != nil {
			return nil, err
		}
		rep, err := e.vendor.suite.Replay(validate.LocalIP{Net: bad}, validate.ReplayConfig{})
		if err != nil {
			return nil, err
		}
		if !rep.Passed {
			return bad, nil
		}
	}
	return nil, fmt.Errorf("no SBA of magnitude %v in %d draws changed the suite's outputs", magnitude, sbaDraws)
}

// tamperGate serves the tampered replica bad and checks that the vendor
// suite FAILs on it over both dialects: the quantised v5 wire with the
// quantised suite, and the gob v2 wire with the exact suite. It returns
// one error per dialect whose replay did not FAIL.
func (e *env) tamperGate(bad *nn.Network) []error {
	srv, _, err := serve(bad)
	if err != nil {
		return []error{err}
	}
	defer srv.Close()
	var errs []error
	for _, c := range []struct {
		wire  validate.Wire
		suite *validate.Suite
	}{{validate.WireQuant, e.vendor.suite}, {validate.WireGob, e.exact}} {
		ip, err := validate.DialWith(srv.Addr(), validate.DialOptions{Wire: c.wire})
		if err != nil {
			errs = append(errs, fmt.Errorf("tamper gate %v: %w", c.wire, err))
			continue
		}
		rep, err := c.suite.Replay(ip, validate.ReplayConfig{Batch: replayBatch, Wire: c.wire})
		ip.Close()
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("tamper gate %v: %w", c.wire, err))
		case rep.Passed:
			errs = append(errs, fmt.Errorf("tamper gate %v: the SBA-tampered replica passed the suite", c.wire))
		}
	}
	return errs
}

// vendorLoop is the closed vendor loop: one op at a time, each on a
// freshly rendered pool (rendered outside the op's timing).
func vendorLoop(m method) func(e *env, d time.Duration, tr *tracer) phase {
	return func(e *env, d time.Duration, tr *tracer) phase {
		var p phase
		var busy, cpu time.Duration
		var tests, bytes int
		var switches, synthetic []float64
		deadline := time.Now().Add(d)
		// A traced run makes at least one traced op.
		for op := 0; time.Now().Before(deadline) || (tr != nil && op < 2); op++ {
			ps := e.pools(op)
			pool := makePool(ps)
			t := tr.forOp(op)
			rt0, cpu0, start := readRuntime(), cpuTime(), time.Now()
			r, err := vendorOp(e.net, m, pool, ps, e.wp, t, op)
			lat := time.Since(start)
			cpu1, rt1 := cpuTime(), readRuntime()

			busy += lat
			cpu += cpu1 - cpu0
			p.rt.add(rt0, rt1)
			p.attempted++
			p.addLat(t, lat)
			if err == nil {
				err = checkVendor(e.net, e.goldens, m, ps, r)
			}
			if err != nil {
				p.fail(fmt.Errorf("op %d: %w", op, err))
				continue
			}
			tests += len(r.gen.Tests)
			bytes += len(r.sealed)
			sp := r.gen.SwitchPoint
			if sp < 0 {
				sp = len(r.gen.Tests)
			}
			switches = append(switches, float64(sp))
			synthetic = append(synthetic, float64(len(r.gen.Tests)-sp))
			if t != nil && len(p.shadows) < shadowOps {
				p.shadows = append(p.shadows, op)
			}
		}
		if tests > 0 {
			p.throughput = float64(tests) / busy.Seconds()
			p.cpuPerItem = ms(cpu) / float64(tests)
			p.bytesPerItem = float64(bytes) / float64(tests)
		}
		p.extra = metricSet{}
		if m == combinedMethod {
			p.extra["core.switch_point"] = mean(switches)
			p.extra["core.synthetic_tests"] = mean(synthetic)
		}
		return p
	}
}

// vendorShadow times, on the pools of the first traced ops, one
// PinnedExtractor.ParamSets pass, one Algorithm 2 round (combined only)
// and the per-layer probe.
func vendorShadow(m method) func(e *env, tr *tracer, p phase, ls *layerSamples, out metricSet) error {
	return func(e *env, tr *tracer, p phase, ls *layerSamples, out metricSet) error {
		cfg := coverage.DefaultConfig(e.net)
		ext := coverage.NewPinnedExtractor(e.net, e.wp, 1)
		var extractMB, synthMB []float64
		for _, op := range p.shadows {
			ps := e.pools(op)
			pool := makePool(ps)

			a0 := allocatedBytes()
			sp := tr.begin("coverage.extract", op, -1)
			ext.ParamSets(pool, cfg)
			tr.end(sp)
			extractMB = append(extractMB, mb(allocatedBytes()-a0))

			if m == combinedMethod {
				opts := core.DefaultOptions(pool.Classes)
				opts.Coverage = cfg
				opts.Seed = ps
				opts.Parallelism = e.wp.Workers()
				opts.Pool = e.wp
				a0 = allocatedBytes()
				sp = tr.begin("core.synth_round", op, -1)
				_, err := core.GradientGenerate(e.net, []int{pool.C, pool.H, pool.W}, pool.Classes, opts)
				tr.end(sp)
				if err != nil {
					return fmt.Errorf("synthesis round: %w", err)
				}
				synthMB = append(synthMB, mb(allocatedBytes()-a0))
			}

			xs := make([]*tensor.Tensor, coverage.DefaultBatch)
			for i := range xs {
				xs[i] = pool.Samples[i].X
			}
			ls.probe(e.net, xs, 5)
		}
		out["coverage.extract_ms"] = tr.medianMS("coverage.extract")
		out["coverage.extract_alloc_mb"] = median(extractMB)
		if m == combinedMethod {
			out["core.synth_round_ms"] = tr.medianMS("core.synth_round")
			out["core.synth_round_alloc_mb"] = median(synthMB)
		}
		return nil
	}
}

// replayLoop is the closed user loop: workers() clients, each running
// whole sessions back to back (dial v5, replay the sealed suite in
// batches, check the verdict, close).
func replayLoop(e *env, d time.Duration, tr *tracer) phase {
	var p phase
	var mu sync.Mutex
	var queries, good int
	var wire int64
	var next atomic.Int64
	st0 := e.store.Stats()
	rt0, cpu0, start := readRuntime(), cpuTime(), time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < workers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op := int(next.Add(1) - 1)
				t := tr.forOp(op)
				t0 := time.Now()
				n, bytes, err := replaySession(e, t, op)
				lat := time.Since(t0)
				mu.Lock()
				p.attempted++
				p.addLat(t, lat)
				queries += n
				wire += bytes
				if err != nil {
					p.fail(fmt.Errorf("op %d: %w", op, err))
				} else {
					good += n
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu, rt1, st1 := cpuTime()-cpu0, readRuntime(), e.store.Stats()
	p.rt.add(rt0, rt1)
	if queries > 0 {
		p.throughput = float64(good) / elapsed.Seconds()
		p.cpuPerItem = ms(cpu) / float64(queries)
		p.bytesPerItem = float64(wire) / float64(queries)
	}
	p.extra = metricSet{}
	if probes := (st1.Hits - st0.Hits) + (st1.Misses - st0.Misses); probes > 0 {
		p.extra["validate.store_hit_ratio"] = float64(st1.Hits-st0.Hits) / float64(probes)
	}
	return p
}

// replaySession is one user session; it returns the queries replayed
// and the wire bytes the session exchanged.
func replaySession(e *env, tr *tracer, op int) (int, int64, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	sp := tr.begin("validate.dial", op, root)
	ip, err := validate.DialWith(e.srv.Addr(), validate.DialOptions{Wire: validate.WireQuant})
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	sp = tr.begin("validate.replay", op, root)
	rep, err := e.vendor.suite.Replay(ip, validate.ReplayConfig{Batch: replayBatch, Wire: validate.WireQuant})
	tr.end(sp)
	bytes := ip.WireStats().Total()
	sp = tr.begin("validate.close", op, root)
	cerr := ip.Close()
	tr.end(sp)
	switch {
	case err != nil:
		return 0, bytes, err
	case !rep.Passed:
		return rep.Total, bytes, fmt.Errorf("replay on the intact IP: %v", rep)
	case cerr != nil:
		return rep.Total, bytes, fmt.Errorf("close: %w", cerr)
	}
	return rep.Total, bytes, nil
}

// replayShadow times the same replay against an in-process IP, the quant
// frame codec over the suite outputs, and the per-layer probe at the
// replay batch size.
func replayShadow(e *env, tr *tracer, _ phase, ls *layerSamples, out metricSet) error {
	local := validate.LocalIP{Net: e.net}
	for i := 0; i < 20; i++ {
		sp := tr.begin("validate.local_replay", -1, -1)
		rep, err := e.vendor.suite.Replay(local, validate.ReplayConfig{Batch: replayBatch})
		tr.end(sp)
		if err != nil || !rep.Passed {
			return fmt.Errorf("local replay: %v %v", rep, err)
		}
	}
	out["validate.local_replay_ms"] = tr.medianMS("validate.local_replay")
	enc, dec, err := codecSamples(e.vendor.suite, 20)
	if err != nil {
		return err
	}
	out["quant.encode_us"] = median(enc)
	out["quant.decode_us"] = median(dec)
	ls.probe(e.net, e.vendor.suite.Inputs[:replayBatch], 5)
	return nil
}
