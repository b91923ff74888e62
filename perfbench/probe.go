package main

import (
	"runtime"
	"time"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/validate"
)

// probedLayers are the parameter layers whose per-layer cost the traced
// run reports.
var probedLayers = []string{"conv1", "conv2", "conv3", "conv4", "fc1", "fc2"}

// layerSamples collects per-call timings and allocations of each probed
// layer's BatchLayer methods, in µs and KiB.
type layerSamples struct {
	fwd, bwdInput, bwdSample, allocKB map[string][]float64
	flops                             map[string]float64 // per forward call
}

func newLayerSamples() *layerSamples {
	return &layerSamples{
		fwd: map[string][]float64{}, bwdInput: map[string][]float64{},
		bwdSample: map[string][]float64{}, allocKB: map[string][]float64{},
		flops: map[string]float64{},
	}
}

// forwardFlops is the multiply-add count (×2) of one forward call of l
// on a batch of b samples; 0 for layers without parameters.
func forwardFlops(l nn.Layer, b int) float64 {
	switch l := l.(type) {
	case *nn.Conv2D:
		g := l.Geom()
		return 2 * float64(b) * float64(l.OutC*g.OutH*g.OutW) * float64(l.InC*l.K*l.K)
	case *nn.Dense:
		return 2 * float64(b) * float64(l.In) * float64(l.Out)
	}
	return 0
}

// probe runs xs as one batch through the BatchLayer methods of a clone
// of net layer by layer: ForwardBatch, BackwardBatchInput, and
// BackwardSample of sample 0. reps timed passes are followed by one pass
// that reads the allocator around every call.
func (ls *layerSamples) probe(net *nn.Network, xs []*tensor.Tensor, reps int) {
	clone := net.Clone()
	x := tensor.Stack(xs)
	stack := clone.LayerStack
	probed := make(map[string]bool, len(probedLayers))
	for _, n := range probedLayers {
		probed[n] = true
	}
	for _, l := range stack {
		if probed[l.Name()] {
			ls.flops[l.Name()] = forwardFlops(l, len(xs))
		}
	}

	// measure runs fn and, for a probed layer, records its duration in µs
	// and (when mem is set) its allocation in KiB; the allocation pass
	// reads exact counters, which stops the world, so it is not timed.
	var before runtime.MemStats
	var after runtime.MemStats
	measure := func(name string, into map[string][]float64, mem map[string]float64, fn func()) {
		if !probed[name] {
			fn()
			return
		}
		if mem != nil {
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			mem[name] += float64(after.TotalAlloc-before.TotalAlloc) / 1024
			return
		}
		start := time.Now()
		fn()
		into[name] = append(into[name], float64(time.Since(start).Nanoseconds())/1e3)
	}
	pass := func(mem map[string]float64) {
		in := x
		for _, l := range stack {
			bl := l.(nn.BatchLayer)
			measure(l.Name(), ls.fwd, mem, func() { in = bl.ForwardBatch(in) })
		}
		logits := in
		d := nn.OnesLike(logits)
		for i := len(stack) - 1; i >= 0; i-- {
			bl := stack[i].(nn.BatchLayer)
			measure(stack[i].Name(), ls.bwdInput, mem, func() { d = bl.BackwardBatchInput(d) })
		}
		clone.ForwardBatch(x)
		clone.ZeroGrad()
		ds := nn.OnesLike(logits.Sample(0))
		for i := len(stack) - 1; i >= 0; i-- {
			bl := stack[i].(nn.BatchLayer)
			measure(stack[i].Name(), ls.bwdSample, mem, func() { ds = bl.BackwardSample(0, ds) })
		}
	}
	pass(nil) // warm the layer caches
	ls.fwd, ls.bwdInput, ls.bwdSample = map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for r := 0; r < reps; r++ {
		pass(nil)
	}
	mem := map[string]float64{}
	pass(mem)
	for name, kb := range mem {
		ls.allocKB[name] = append(ls.allocKB[name], kb)
	}
	clone.ReleaseBatchState()
}

// emit writes the nn.<layer>.* metrics.
func (ls *layerSamples) emit(m metricSet) {
	for _, n := range probedLayers {
		fwd := median(ls.fwd[n])
		m["nn."+n+".fwd_us"] = fwd
		m["nn."+n+".bwd_input_us"] = median(ls.bwdInput[n])
		m["nn."+n+".bwd_sample_us"] = median(ls.bwdSample[n])
		m["nn."+n+".alloc_kb"] = median(ls.allocKB[n])
		if fwd > 0 {
			m["nn."+n+".fwd_gflops"] = ls.flops[n] / (fwd * 1e3)
		}
	}
}

// codecSamples times the quant frame codec over a suite's outputs, per
// frame in µs: QuantizeFrame+AppendFrame against the quantised reference
// (what an intact server sends) and DecodeFrame of the result.
func codecSamples(s *validate.Suite, reps int) (encode, decode []float64, err error) {
	scale, err := quant.Scale(s.Decimals)
	if err != nil {
		return nil, nil, err
	}
	refs := make([]quant.Frame, len(s.Outputs))
	for i, o := range s.Outputs {
		refs[i] = quant.QuantizeFrame(o.Data(), scale)
	}
	var buf []byte
	for r := 0; r < reps; r++ {
		for i, o := range s.Outputs {
			start := time.Now()
			f := quant.QuantizeFrame(o.Data(), scale)
			buf = quant.AppendFrame(buf[:0], f, refs[i])
			mid := time.Now()
			if _, _, err := quant.DecodeFrame(buf, len(f), refs[i]); err != nil {
				return nil, nil, err
			}
			end := time.Now()
			encode = append(encode, float64(mid.Sub(start).Nanoseconds())/1e3)
			decode = append(decode, float64(end.Sub(mid).Nanoseconds())/1e3)
		}
	}
	return encode, decode, nil
}
