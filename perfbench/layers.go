package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/euler"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// convLayers is the number of convolutions in the paper's Table-I
// network (4→6→16→6→4).
const convLayers = 4

// perLayer lists the metrics every traced run reports, with units;
// BENCHMARK.json's per_layer section names the same set. A layer the
// workload never calls reports 0: no time, no work.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"tensor.gemm_peak_gflops", "GFLOP/s"},
		{"tensor.gemm32_peak_gflops", "GFLOP/s"},
	}
	for k := 1; k <= convLayers; k++ {
		c := fmt.Sprintf("nn.conv%d.", k)
		m = append(m,
			metricSpec{c + "fwd_ms", "ms"},
			metricSpec{c + "bwd_ms", "ms"},
			metricSpec{c + "gflops", "GFLOP/s"},
			metricSpec{c + "peak_frac", "ratio"},
			metricSpec{c + "lowered_mb", "MB"},
			metricSpec{c + "flops", "count"},
		)
	}
	return append(m, []metricSpec{
		{"nn.lrelu.fwd_ms", "ms"},
		{"nn.lrelu.bwd_ms", "ms"},
		{"nn.f32.net_fwd_ms", "ms"},
		{"loss.eval_ms", "ms"},
		{"opt.step_ms", "ms"},
		{"dataset.gather_ms", "ms"},
		{"euler.step_ms", "ms"},
		{"core.train.rank_imbalance", "ratio"},
		{"core.train.self_frac", "ratio"},
		{"core.session.step_self_ms", "ms"},
		{"decomp.split_ms", "ms"},
		{"decomp.gather_ms", "ms"},
		{"mpi.msgs_per_step", "count"},
		{"mpi.bytes_per_step", "B"},
		{"mpi.halo_msgs_per_step", "count"},
		{"mpi.halo_bytes_per_step", "B"},
		{"runtime.allocs_per_step", "count"},
		{"runtime.alloc_mb_per_step", "MB"},
		{"runtime.alloc_mb_per_epoch", "MB"},
		{"runtime.alloc_kb_per_req", "kB"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"serve.json.decode_ms", "ms"},
		{"serve.json.encode_ms", "ms"},
		{"serve.gob.decode_ms", "ms"},
		{"serve.gob.encode_ms", "ms"},
		{"serve.json.req_kb", "kB"},
		{"serve.gob.req_kb", "kB"},
		{"serve.handler_p50_ms", "ms"},
		{"serve.handler_p90_ms", "ms"},
		{"core.batcher.mean_fill", "count"},
		{"core.engine.predict_ms", "ms"},
		{"router.hop_self_ms", "ms"},
		{"router.retry_ratio", "ratio"},
		{"admission.self_ms", "ms"},
		{"admission.admit_ratio", "ratio"},
		{"loadgen.late_p99_ms", "ms"},
		{"loadgen.backlog_max", "count"},
		{"http.client_self_ms", "ms"},
		{"trace.overhead_pct", "%"},
	}...)
}()

// zeroLayers presets every per-layer metric to 0, the value of a layer
// the workload does not call; each workload overwrites what it
// measures.
func zeroLayers(res *result) {
	for _, m := range perLayer {
		res.layer[m.name] = 0
	}
}

// convStat accumulates one convolution's replayed calls.
type convStat struct {
	fwdMs, bwdMs []float64
	flops        float64 // per forward call, exact
	lowered      float64 // im2col panel bytes per forward call, computed
}

// netReplay times a network's layers one call at a time through the
// public nn.Layer methods, recording a span per call.
type netReplay struct {
	tr        *tracer
	elemBytes float64 // 8 for f64, 4 for f32 compute
	conv      [convLayers]convStat
	lreluFwd  []float64
	lreluBwd  []float64
}

// forward runs x through net layer by layer; the result is bit-identical
// to net.Forward on an unpinned network.
func (nr *netReplay) forward(net *nn.Sequential, x *tensor.Tensor, parent int) *tensor.Tensor {
	k := 0
	for _, l := range net.Layers() {
		switch c := l.(type) {
		case *nn.Conv2D:
			n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
			oh, ow := c.OutputShape(h, w)
			st := &nr.conv[k]
			st.flops = 2 * float64(n*c.OutChannels*oh*ow*c.InChannels*c.Kernel*c.Kernel)
			st.lowered = nr.elemBytes * float64(n*c.InChannels*c.Kernel*c.Kernel*oh*ow)
			in := x
			st.fwdMs = append(st.fwdMs, ms(nr.tr.do(fmt.Sprintf("nn.conv%d.fwd", k+1), parent, func() { x = c.Forward(in) })))
			k++
		case *nn.LeakyReLU:
			in := x
			nr.lreluFwd = append(nr.lreluFwd, ms(nr.tr.do("nn.lrelu.fwd", parent, func() { x = c.Forward(in) })))
		default:
			in := x
			nr.tr.do(l.Name()+".fwd", parent, func() { x = l.Forward(in) })
		}
	}
	return x
}

// backward runs the layers' Backward in reverse order.
func (nr *netReplay) backward(net *nn.Sequential, g *tensor.Tensor, parent int) {
	layers := net.Layers()
	k := 0
	for _, l := range layers {
		if _, ok := l.(*nn.Conv2D); ok {
			k++
		}
	}
	for i := len(layers) - 1; i >= 0; i-- {
		in := g
		switch c := layers[i].(type) {
		case *nn.Conv2D:
			k--
			nr.conv[k].bwdMs = append(nr.conv[k].bwdMs, ms(nr.tr.do(fmt.Sprintf("nn.conv%d.bwd", k+1), parent, func() { g = c.Backward(in) })))
		case *nn.LeakyReLU:
			nr.lreluBwd = append(nr.lreluBwd, ms(nr.tr.do("nn.lrelu.bwd", parent, func() { g = c.Backward(in) })))
		default:
			nr.tr.do(layers[i].Name()+".bwd", parent, func() { g = layers[i].Backward(in) })
		}
	}
}

// totalMs is the replayed layer time.
func (nr *netReplay) totalMs() float64 {
	t := sum(nr.lreluFwd) + sum(nr.lreluBwd)
	for _, c := range nr.conv {
		t += sum(c.fwdMs) + sum(c.bwdMs)
	}
	return t
}

// report writes the nn.* metrics against the measured GEMM peak.
func (nr *netReplay) report(res *result, peak float64) {
	for k, c := range nr.conv {
		p := fmt.Sprintf("nn.conv%d.", k+1)
		if len(c.fwdMs) == 0 {
			continue
		}
		res.layer[p+"fwd_ms"] = median(c.fwdMs)
		if len(c.bwdMs) > 0 {
			res.layer[p+"bwd_ms"] = median(c.bwdMs)
		}
		// A backward pass computes two products of the forward's size
		// (input and weight gradients).
		work := c.flops*float64(len(c.fwdMs)) + 2*c.flops*float64(len(c.bwdMs))
		gflops := work / (sum(c.fwdMs) + sum(c.bwdMs)) / 1e6
		res.layer[p+"gflops"] = gflops
		res.layer[p+"peak_frac"] = gflops / peak
		res.layer[p+"lowered_mb"] = c.lowered / 1e6
		res.layer[p+"flops"] = c.flops
		res.note("nn.conv%d flops/call=%.0f lowered_bytes/call=%.0f (computed im2col panel) fwd=%.4f ms bwd=%.4f ms %.3f GFLOP/s = %.3f of peak",
			k+1, c.flops, c.lowered, median(c.fwdMs), res.layer[p+"bwd_ms"], gflops, gflops/peak)
	}
	if len(nr.lreluFwd) > 0 {
		res.layer["nn.lrelu.fwd_ms"] = median(nr.lreluFwd)
	}
	if len(nr.lreluBwd) > 0 {
		res.layer["nn.lrelu.bwd_ms"] = median(nr.lreluBwd)
	}
}

// gemmPeak measures single-threaded GEMM rates in this run, the
// denominators of peak_frac (the layers run one worker per rank).
func gemmPeak(res *result) (f64, f32 float64) {
	const n, reps = 256, 12
	flops := 2.0 * n * n * n
	a64, b64, c64 := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	a32, b32, c32 := make([]float32, n*n), make([]float32, n*n), make([]float32, n*n)
	for i := range a64 {
		a64[i], b64[i] = float64(i%7)/7, float64(i%5)/5
		a32[i], b32[i] = float32(a64[i]), float32(b64[i])
	}
	best64, best32 := math.Inf(1), math.Inf(1)
	for r := 0; r < reps; r++ {
		t := time.Now()
		tensor.GemmNN(n, n, n, a64, b64, c64, false, 1)
		best64 = min(best64, time.Since(t).Seconds())
		t = time.Now()
		tensor.GemmPanelNN32(n, n, n, a32, n, b32, n, c32, n, false, 1)
		best32 = min(best32, time.Since(t).Seconds())
	}
	f64, f32 = flops/best64/1e9, flops/best32/1e9
	res.layer["tensor.gemm_peak_gflops"] = f64
	res.layer["tensor.gemm32_peak_gflops"] = f32
	res.note("tensor.gemm peak %dx%dx%d single-thread: f64 %.3f GFLOP/s, f32 %.3f GFLOP/s (best of %d)", n, n, n, f64, f32, reps)
	return f64, f32
}

// eulerStep times the solver's step on the workload's seeded pulse.
func eulerStep(res *result, n int, seed int64) error {
	s, err := euler.NewSolver(pulseConfig(n, seed))
	if err != nil {
		return fmt.Errorf("euler solver: %w", err)
	}
	var t []float64
	for i := 0; i < 40; i++ {
		start := time.Now()
		s.Step()
		t = append(t, ms(time.Since(start)))
	}
	res.layer["euler.step_ms"] = median(t)
	return nil
}

// memSnap is a process-wide reading of allocation and GC CPU, taken
// outside the layers around a measured phase.
type memSnap struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// gcFrac is the share of CPU time spent in the garbage collector
// between two readings.
func gcFrac(a, b memSnap) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}
