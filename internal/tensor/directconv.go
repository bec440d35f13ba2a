package tensor

import "fmt"

// This file is the convolution engine behind nn.Conv2D's fast path
// (DESIGN.md §3): a lowering-free direct convolution, forward and
// backward, written once for both precisions. At the paper's sizes — a
// 16×16 subdomain tile with 4–16 channels — an im2col panel is K² times
// the input it lowers and costs more to build than the product it
// feeds; this kernel never materializes one.
//
// Every image is staged once into zero-padded planes (row stride
// wp = W+2·Pad). A tap (ci, ky, kx) of a valid convolution over such a
// plane reads the input at the constant flat offset ci·cs + ky·wp + kx,
// so a whole output plane — kept at the input's row stride, its
// off-row lanes computing values the final crop drops — accumulates as
// long axpy sweeps over shifted input planes:
//
//	forward  y[co]  = b[co] + Σ_taps w[co,tap] · xs[off(tap) : off(tap)+lr]
//	dW       dW[co,tap] += dys[co] · xs[off(tap) : off(tap)+lr]
//	dX       dxs[ci][off(ky,kx) : ...+lr] += Σ_co w[co,ci,ky,kx] · dys[co]
//
// where dys is the output gradient staged at the same row stride with
// its off-row lanes zeroed, and dxs is a padded plane cropped at the
// end. The plane length lr is rounded up to convLanes and staged planes
// carry zero slack after it, so the SIMD kernels never run a scalar
// tail: within one dispatch (AVX-512, AVX2 or portable) every output
// element runs the same instruction sequence wherever it sits in the
// frame. Results are therefore bit-identical across batch sizes, worker
// counts and any tiling of the frame into sub-images (the halo split of
// nn.HaloSplit) — by construction, not by matching tile geometry.

// float is the element type the direct convolution kernel is written over.
type float interface{ float32 | float64 }

// convLanes is the widest span one SIMD iteration of the axpy4/dot2
// kernels covers (32 float32 lanes under AVX-512). Plane lengths are
// multiples of it.
const convLanes = 32

// DirectConv is the geometry of one stride-1, zero-padded K×K
// convolution over a batch of N images, each CHW-flat: x is
// [N × Cin × H × W], the weights [Cout × Cin × K × K], the output
// [N × Cout × OH × OW]. Workers > 1 fans independent tasks out to that
// many goroutines; results are bit-identical for any value.
type DirectConv struct {
	N, Cin, H, W int
	Cout, K, Pad int
	Workers      int
}

// OutSize returns the output frame OH × OW.
func (d DirectConv) OutSize() (oh, ow int) {
	return ConvOutSize(d.H, d.K, d.Pad), ConvOutSize(d.W, d.K, d.Pad)
}

// convPlan is a DirectConv's derived plane geometry.
type convPlan struct {
	oh, ow int
	wp     int // row stride of every plane: the padded input width
	lr     int // accumulation-plane length, a multiple of convLanes
	cs     int // channel stride of a staged plane: padded frame plus slack
}

func (d DirectConv) plan() convPlan {
	if d.N <= 0 || d.Cin <= 0 || d.H <= 0 || d.W <= 0 || d.Cout <= 0 || d.K <= 0 || d.Pad < 0 {
		panic(fmt.Sprintf("tensor: invalid convolution %+v", d))
	}
	oh, ow := d.OutSize()
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv input %dx%d (pad %d) smaller than kernel %d", d.H, d.W, d.Pad, d.K))
	}
	wp := d.W + 2*d.Pad
	l := (oh-1)*wp + ow
	lr := (l + convLanes - 1) / convLanes * convLanes
	// The farthest tap, (K-1)·wp + K-1, plus l ends exactly at the
	// padded frame's end, so lr-l of slack keeps every sweep inside its
	// own channel.
	return convPlan{oh: oh, ow: ow, wp: wp, lr: lr, cs: (d.H+2*d.Pad)*wp + lr - l}
}

// workers returns the goroutine count for a sweep of n tasks.
func (d DirectConv) workers(n int) int { return max(1, min(d.Workers, n)) }

// ScratchLen returns the scratch length Forward and Backward (either
// precision) need: one image's staged input planes, plus a per-worker
// accumulation plane (forward) or the image's staged dy planes and a
// per-worker dx plane (backward). Images run one after another, so the
// length does not grow with the batch.
func (d DirectConv) ScratchLen() int {
	p := d.plan()
	fwd := d.workers(d.Cout) * p.lr
	bwd := d.Cout*p.lr + d.workers(d.Cin)*p.cs
	return d.Cin*p.cs + max(fwd, bwd)
}

// Forward computes y = conv(x, wgt) + bias (bias may be nil); y is
// overwritten. scratch must hold ScratchLen elements.
func (d DirectConv) Forward(x, wgt, bias, y, scratch []float64) {
	convForward(d, kern64, x, wgt, bias, y, scratch)
}

// Forward32 is Forward on float32.
func (d DirectConv) Forward32(x, wgt, bias, y, scratch []float32) {
	convForward(d, kern32, x, wgt, bias, y, scratch)
}

// Backward accumulates the weight and bias gradients of the output
// gradient dy into dW and dB and overwrites dx with the input
// gradient. x is the forward input; scratch must hold ScratchLen
// elements.
func (d DirectConv) Backward(x, wgt, dy, dW, dB, dx, scratch []float64) {
	convBackward(d, kern64, x, wgt, dy, dW, dB, dx, scratch)
}

// Backward32 is Backward on float32.
func (d DirectConv) Backward32(x, wgt, dy, dW, dB, dx, scratch []float32) {
	convBackward(d, kern32, x, wgt, dy, dW, dB, dx, scratch)
}

// kernels is the SIMD dispatch of one precision, bound at the kernel
// boundary so the generic sweeps make no interface conversions.
type kernels[T float] struct {
	axpy4 func(c, b0, b1, b2, b3 []T, a0, a1, a2, a3 T)
	dot2  func(a0, a1, b []T) (T, T)
}

var (
	kern64 = kernels[float64]{axpy4, gemmDot2}
	kern32 = kernels[float32]{axpy4f32, gemmDot232}
)

// convRun is one call's state: geometry, dispatch, operands and the
// current image's staged planes.
type convRun[T float] struct {
	DirectConv
	convPlan
	kernels[T]
	wgt, bias []T // weights; bias (forward, may be nil)
	y, dw     []T // the image's output (forward); the weight gradient (backward)
	dx        []T // the image's input gradient (backward)
	xs, ys    []T // staged input planes; staged dy planes (backward)
	work      []T // per-worker accumulation planes (forward) or dx planes (backward)
}

func newRun[T float](d DirectConv, kn kernels[T], x, wgt, scratch []T) convRun[T] {
	p := d.plan()
	if len(x) < d.N*d.Cin*d.H*d.W || len(wgt) < d.Cout*d.Cin*d.K*d.K || len(scratch) < d.ScratchLen() {
		panic(fmt.Sprintf("tensor: conv %+v buffers too short: x %d, wgt %d, scratch %d of %d",
			d, len(x), len(wgt), len(scratch), d.ScratchLen()))
	}
	return convRun[T]{DirectConv: d, convPlan: p, kernels: kn, wgt: wgt,
		xs: scratch[:d.Cin*p.cs], work: scratch[d.Cin*p.cs:]}
}

// stageInput copies image i of x into the staged planes: zero padding,
// rows at stride wp, zero slack.
func (r *convRun[T]) stageInput(x []T, i int) {
	clear(r.xs)
	x = x[i*r.Cin*r.H*r.W:]
	for c := 0; c < r.Cin; c++ {
		dst := r.xs[c*r.cs+r.Pad*r.wp+r.Pad:]
		for row := 0; row < r.H; row++ {
			copy(dst[row*r.wp:row*r.wp+r.W], x[(c*r.H+row)*r.W:][:r.W])
		}
	}
}

// The three task sweeps a call fans out, per image.
const (
	forwardTasks = iota
	weightGradTasks
	inputGradTasks
)

// fan runs one sweep's tasks [0, n), contiguous ranges per worker. The
// single-worker case builds no closure, and the parallel case hands
// the goroutines a copy of r, so r itself never escapes and the serial
// steady state allocates nothing.
func (r *convRun[T]) fan(sweep, n int) {
	nw := r.workers(n)
	if nw == 1 {
		for t := 0; t < n; t++ {
			r.task(sweep, 0, t)
		}
		return
	}
	rc := *r
	ParallelFor(nw, nw, func(w int) {
		for t := w * n / nw; t < (w+1)*n/nw; t++ {
			rc.task(sweep, w, t)
		}
	})
}

// task runs task t of a sweep on worker w.
func (r *convRun[T]) task(sweep, w, t int) {
	switch sweep {
	case forwardTasks:
		r.forwardTask(w, t)
	case weightGradTasks:
		r.weightGradTask(t)
	case inputGradTasks:
		r.inputGradTask(w, t)
	}
}

func convForward[T float](d DirectConv, kn kernels[T], x, wgt, bias, y, scratch []T) {
	r := newRun(d, kn, x, wgt, scratch)
	frame := r.oh * r.ow
	if len(y) < d.N*d.Cout*frame || (bias != nil && len(bias) < d.Cout) {
		panic(fmt.Sprintf("tensor: conv %+v output %d or bias %d too short", d, len(y), len(bias)))
	}
	r.bias = bias
	for i := 0; i < d.N; i++ {
		r.stageInput(x, i)
		r.y = y[i*d.Cout*frame:]
		r.fan(forwardTasks, d.Cout)
	}
}

// forwardTask computes output channel co of the staged image in worker
// w's accumulation plane, then crops it into y. Taps group four per
// sweep in weight order, across channel boundaries; the last group
// pads with zero coefficients, so it runs the same kernel.
func (r *convRun[T]) forwardTask(w, co int) {
	f := r.work[w*r.lr:][:r.lr]
	f[0] = 0
	if r.bias != nil {
		f[0] = r.bias[co]
	}
	for n := 1; n < len(f); n *= 2 {
		copy(f[n:], f[:n])
	}
	taps := r.Cin * r.K * r.K
	wc := r.wgt[co*taps:][:taps]
	off, kx, ky := 0, 0, 0 // the cursor's tap offset ci·cs + ky·wp + kx
	for j := 0; j < taps; j += 4 {
		var a [4]T
		var o [4]int
		for q := range a {
			if j+q >= taps {
				o[q] = o[0]
				continue
			}
			o[q], a[q] = off, wc[j+q]
			if off, kx = off+1, kx+1; kx == r.K {
				off, kx, ky = off+r.wp-r.K, 0, ky+1
				if ky == r.K {
					off, ky = off+r.cs-r.K*r.wp, 0
				}
			}
		}
		if a == [4]T{} {
			continue
		}
		r.axpy4(f, r.xs[o[0]:o[0]+r.lr], r.xs[o[1]:o[1]+r.lr], r.xs[o[2]:o[2]+r.lr], r.xs[o[3]:o[3]+r.lr],
			a[0], a[1], a[2], a[3])
	}
	out := r.y[co*r.oh*r.ow:][:r.oh*r.ow]
	for oy := 0; oy < r.oh; oy++ {
		copy(out[oy*r.ow:(oy+1)*r.ow], f[oy*r.wp:])
	}
}

func convBackward[T float](d DirectConv, kn kernels[T], x, wgt, dy, dW, dB, dx, scratch []T) {
	r := newRun(d, kn, x, wgt, scratch)
	frame := r.oh * r.ow
	if len(dy) < d.N*d.Cout*frame || len(dW) < d.Cout*d.Cin*d.K*d.K || len(dB) < d.Cout || len(dx) < d.N*d.Cin*d.H*d.W {
		panic(fmt.Sprintf("tensor: conv %+v backward buffers too short: dy %d, dW %d, dB %d, dx %d", d, len(dy), len(dW), len(dB), len(dx)))
	}
	r.dw = dW
	r.ys, r.work = r.work[:d.Cout*r.lr], r.work[d.Cout*r.lr:]
	for i := 0; i < d.N; i++ {
		dyi := dy[i*d.Cout*frame:][:d.Cout*frame]
		// Stage dy at row stride wp with zero off-row and slack lanes,
		// so its sweeps add nothing outside the output positions.
		clear(r.ys)
		for co := 0; co < d.Cout; co++ {
			var s T
			for oy := 0; oy < r.oh; oy++ {
				row := dyi[(co*r.oh+oy)*r.ow:][:r.ow]
				copy(r.ys[co*r.lr+oy*r.wp:], row)
				for _, g := range row {
					s += g
				}
			}
			dB[co] += s
		}
		r.stageInput(x, i)
		r.fan(weightGradTasks, (d.Cout+1)/2*d.Cin)
		r.dx = dx[i*d.Cin*d.H*d.W:]
		r.fan(inputGradTasks, d.Cin)
	}
}

// weightGradTask adds the staged image's contribution to dW for output
// channels co, co+1 (a pair shares each shifted input plane in one
// dot2 sweep) and input channel ci, task t = (co/2)·Cin + ci. Images
// accumulate in batch order, as in a sequence of batch-of-1 calls.
func (r *convRun[T]) weightGradTask(t int) {
	co0, ci := 2*(t/r.Cin), t%r.Cin
	co1 := min(co0+1, r.Cout-1)
	g0, g1 := r.ys[co0*r.lr:][:r.lr], r.ys[co1*r.lr:][:r.lr]
	w0, w1 := r.dw[(co0*r.Cin+ci)*r.K*r.K:], r.dw[(co1*r.Cin+ci)*r.K*r.K:]
	for ky := 0; ky < r.K; ky++ {
		for kx := 0; kx < r.K; kx++ {
			d0, d1 := r.dot2(g0, g1, r.xs[ci*r.cs+ky*r.wp+kx:][:r.lr])
			w0[ky*r.K+kx] += d0
			if co1 != co0 {
				w1[ky*r.K+kx] += d1
			}
		}
	}
}

// inputGradTask computes dx for input channel ci of the staged image
// in worker w's padded plane: per tap, four output channels' dy planes
// sweep into the plane at the tap's offset (the last group padded with
// zero coefficients), then the plane is cropped into dx. Each worker
// owns its plane including the slack, so workers never share a lane.
func (r *convRun[T]) inputGradTask(w, ci int) {
	plane := r.work[w*r.cs:][:r.cs]
	clear(plane)
	kk := r.K * r.K
	for ky := 0; ky < r.K; ky++ {
		for kx := 0; kx < r.K; kx++ {
			c := plane[ky*r.wp+kx:][:r.lr]
			for co := 0; co < r.Cout; co += 4 {
				var a [4]T
				var g [4][]T
				for q := range a {
					if co+q < r.Cout {
						a[q] = r.wgt[((co+q)*r.Cin+ci)*kk+ky*r.K+kx]
						g[q] = r.ys[(co+q)*r.lr:][:r.lr]
					} else {
						g[q] = g[0]
					}
				}
				if a != [4]T{} {
					r.axpy4(c, g[0], g[1], g[2], g[3], a[0], a[1], a[2], a[3])
				}
			}
		}
	}
	dx := r.dx[ci*r.H*r.W:][:r.H*r.W]
	for y := 0; y < r.H; y++ {
		copy(dx[y*r.W:(y+1)*r.W], plane[(y+r.Pad)*r.wp+r.Pad:])
	}
}
