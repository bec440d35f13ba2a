package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// ConvBackend selects between the two convolution engines (DESIGN.md
// §3): the default FastPath runs Conv2D as a lowering-free direct
// convolution (and ConvTranspose2D as im2col + GEMM), SlowPath keeps
// the original nested loops as an independently-derived reference
// implementation — the oracle the fast path is tested against. The
// two agree to float round-off on forward results and on all
// gradients — the crosscheck tests assert it — so the switch is a
// debugging and benchmarking aid, never a semantic choice.
type ConvBackend int

const (
	// FastPath routes Conv2D through the direct convolution kernel
	// (internal/tensor/directconv.go) and ConvTranspose2D through the
	// im2col + GEMM engine (gemm.go, im2col.go). Its flag name stays
	// "gemm".
	FastPath ConvBackend = iota
	// SlowPath uses the naive 6-deep loop nests, kept as the readable
	// reference the fast path is validated against.
	SlowPath
)

// String implements fmt.Stringer.
func (b ConvBackend) String() string {
	switch b {
	case FastPath:
		return "gemm"
	case SlowPath:
		return "naive"
	}
	return fmt.Sprintf("ConvBackend(%d)", int(b))
}

// Backend is the package-level switch selecting the convolution
// engine. It is read once at the start of each Forward (Backward
// follows whatever path its Forward took), so flipping it between a
// Forward/Backward pair is safe; flipping it while other goroutines
// are inside Forward is not.
var Backend = FastPath

// Conv2D is a stride-1 two-dimensional convolution layer operating on
// NCHW tensors, the workhorse of the paper's Table-I architecture.
//
// Pad is the number of zero-padding cells added on every side before
// the valid convolution. With Pad = (K-1)/2 and odd K the layer is
// shape-preserving ("same" padding, the paper's approach 1); with
// Pad = 0 it is a valid convolution that shrinks the field by K-1 in
// each dimension (used by the neighbour-padding approach 2, where the
// enlarged input carries real data from adjacent subdomains instead of
// zeros).
type Conv2D struct {
	InChannels  int
	OutChannels int
	Kernel      int
	Pad         int

	// Workers enables intra-layer parallelism. On the fast path the
	// forward pass fans output channels out to goroutines and the
	// backward pass fans out (output-channel pair × input channel)
	// weight-gradient tasks and input-channel dx tasks, image by image;
	// on the naive slow path the forward pass fans out over
	// (batch × output channel) tasks and the backward pass over input
	// channels. 0 or 1 (the default) keeps the layer strictly
	// single-threaded, which the critical-path timing model relies on
	// (DESIGN.md §5); results are bit-identical either way.
	Workers int

	weight *Param // [Cout, Cin, K, K]
	bias   *Param // [Cout]

	// cacheInput holds what Backward needs from the last Forward: a
	// padded copy of the input on the slow path, a reference to the
	// raw input on the fast path (whose kernel stages the padding
	// itself). cacheFast records which, so a Backward always matches
	// its own Forward even if the Backend switch moves in between.
	cacheInput *tensor.Tensor
	cacheFast  bool
	scratch    *Arena       // kernel workspace (never nil after NewConv2D)
	backend    *ConvBackend // per-layer pin; nil follows the package switch
	name       string

	// Float32 compute path (DESIGN.md §13): pack caches the weights
	// narrowed to f32 (shared across clones, see pack32), f32on pins
	// the layer, and cacheX32 keeps a persistent copy of the last f32
	// input — chain activations live in the arena, so Backward cannot
	// cache them by reference the way the f64 path does.
	f32on     bool
	f32arena  *Arena
	pack      *pack32
	cacheX32  []float32
	cacheF32  bool
	cacheDims [3]int // n, h, w of the cached f32 input
}

// NewConv2D builds a convolution layer with He-initialized weights.
func NewConv2D(name string, g *tensor.RNG, inCh, outCh, kernel, pad int) *Conv2D {
	if inCh <= 0 || outCh <= 0 || kernel <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid Conv2D config in=%d out=%d k=%d pad=%d", inCh, outCh, kernel, pad))
	}
	fanIn := inCh * kernel * kernel
	w := HeNormal(g, fanIn, outCh, inCh, kernel, kernel)
	b := tensor.New(outCh)
	return &Conv2D{
		InChannels:  inCh,
		OutChannels: outCh,
		Kernel:      kernel,
		Pad:         pad,
		weight:      NewParam(name+".weight", w),
		bias:        NewParam(name+".bias", b),
		scratch:     NewArena(),
		pack:        &pack32{},
		name:        name,
	}
}

// SamePad returns the padding that preserves spatial shape for an odd
// kernel size.
func SamePad(kernel int) int { return (kernel - 1) / 2 }

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// Weight exposes the kernel parameter (for tests and checkpoints).
func (c *Conv2D) Weight() *Param { return c.weight }

// Bias exposes the bias parameter.
func (c *Conv2D) Bias() *Param { return c.bias }

// OutputShape returns the spatial output size for an h×w input.
func (c *Conv2D) OutputShape(h, w int) (oh, ow int) {
	return h + 2*c.Pad - c.Kernel + 1, w + 2*c.Pad - c.Kernel + 1
}

// SetScratch replaces the layer's private scratch arena with a shared
// one (see Sequential.SetScratch). a must not be nil.
func (c *Conv2D) SetScratch(a *Arena) {
	if a == nil {
		panic(fmt.Sprintf("nn: Conv2D %s SetScratch(nil)", c.name))
	}
	c.scratch = a
}

// SetWorkers sets the intra-layer parallelism knob.
func (c *Conv2D) SetWorkers(workers int) { c.Workers = workers }

// SetConvBackend pins this layer to one convolution engine regardless
// of the package-level Backend switch — the per-instance form of the
// switch, needed when engines with different backends coexist in one
// process (see Sequential.SetConvBackend).
func (c *Conv2D) SetConvBackend(b ConvBackend) { c.backend = &b }

// engine returns the convolution engine this layer uses: the pinned
// one if set, else the package-level switch.
func (c *Conv2D) engine() ConvBackend {
	if c.backend != nil {
		return *c.backend
	}
	return Backend
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: Conv2D %s needs NCHW input, got shape %v", c.name, x.Shape()))
	}
	if x.Dim(1) != c.InChannels {
		panic(fmt.Sprintf("nn: Conv2D %s expects %d input channels, got %d", c.name, c.InChannels, x.Dim(1)))
	}
	if c.f32on {
		return forwardVia32(c, c.f32arena, x)
	}
	if c.engine() == FastPath {
		return c.forwardDirect(x)
	}
	xp := x
	if c.Pad > 0 {
		xp = tensor.Pad2D(x, c.Pad)
	} else {
		xp = x.Clone() // keep an immutable copy for backward
	}
	c.cacheInput = xp
	c.cacheFast = false
	return tensor.ValidConvForward(xp, c.weight.Value, c.bias.Value, c.Workers)
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.cacheF32 {
		return c.backward32(gradOut)
	}
	if c.cacheInput == nil {
		panic(fmt.Sprintf("nn: Conv2D %s Backward before Forward", c.name))
	}
	if c.cacheFast {
		return c.backwardDirect(gradOut)
	}
	dxPadded := tensor.ValidConvBackward(c.cacheInput, c.weight.Value, gradOut, c.weight.Grad, c.bias.Grad, c.Workers)
	c.cacheInput = nil
	if c.Pad > 0 {
		return tensor.Crop2D(dxPadded, c.Pad)
	}
	return dxPadded
}

// direct returns the layer's kernel geometry for an n×h×w input batch.
func (c *Conv2D) direct(n, h, w int) tensor.DirectConv {
	return tensor.DirectConv{N: n, Cin: c.InChannels, H: h, W: w,
		Cout: c.OutChannels, K: c.Kernel, Pad: c.Pad, Workers: c.Workers}
}

// forwardDirect runs the direct convolution kernel (DESIGN.md §3):
// padding is staged inside the kernel's scratch, so no padded copy or
// lowered panel is materialized, and the batch is one kernel call.
// Every output element runs the same instruction sequence whatever its
// image, position or worker, so batched, tiled and parallel forwards
// are bit-identical to their batch-of-1, whole-frame and serial
// counterparts. The raw input is cached for Backward by reference,
// which relies on the layer protocol's single-flight contract: the
// input is not mutated between Forward and the matching Backward —
// true everywhere in this repository, where layer inputs are the
// previous layer's freshly built output. At steady state the output
// tensor is the only allocation.
func (c *Conv2D) forwardDirect(x *tensor.Tensor) *tensor.Tensor {
	d := c.direct(x.Dim(0), x.Dim(2), x.Dim(3))
	mark := c.scratch.Mark()
	scratch := c.scratch.Alloc(d.ScratchLen()) // panics on a geometry the kernel cannot run
	c.cacheInput = x
	c.cacheFast = true
	oh, ow := d.OutSize()
	y := tensor.New(d.N, d.Cout, oh, ow)
	d.Forward(x.Data(), c.weight.Value.Data(), c.bias.Value.Data(), y.Data(), scratch)
	c.scratch.Release(mark)
	return y
}

// backwardDirect is the adjoint of forwardDirect on the same kernel:
// it accumulates dW and dB and returns dx, re-staging the cached raw
// input.
func (c *Conv2D) backwardDirect(gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.cacheInput
	c.cacheInput = nil
	d := c.direct(x.Dim(0), x.Dim(2), x.Dim(3))
	c.checkGradOut(gradOut, d)
	dx := tensor.New(d.N, d.Cin, d.H, d.W)
	mark := c.scratch.Mark()
	d.Backward(x.Data(), c.weight.Value.Data(), gradOut.Data(), c.weight.Grad.Data(), c.bias.Grad.Data(),
		dx.Data(), c.scratch.Alloc(d.ScratchLen()))
	c.scratch.Release(mark)
	return dx
}

// checkGradOut panics unless gradOut has the output shape of d.
func (c *Conv2D) checkGradOut(gradOut *tensor.Tensor, d tensor.DirectConv) {
	oh, ow := d.OutSize()
	if gradOut.Rank() != 4 || gradOut.Dim(0) != d.N || gradOut.Dim(1) != d.Cout || gradOut.Dim(2) != oh || gradOut.Dim(3) != ow {
		panic(fmt.Sprintf("nn: Conv2D %s backward shape mismatch x=[%d %d %d %d] dy=%v", c.name, d.N, d.Cin, d.H, d.W, gradOut.Shape()))
	}
}
