package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// ConvTranspose2D is a stride-1 transpose convolution ("deconvolution")
// on NCHW tensors: every input pixel scatters a K×K stamp into the
// output, growing the field by K-1 in each dimension. This implements
// the paper's §III approach 4 for recovering the spatial size lost by
// valid convolutions ("Adding de-convolutional layers or the transpose
// convolution ... currently under investigation").
//
// The weight layout is [Cin, Cout, K, K] (the PyTorch ConvTranspose2d
// convention): the forward map is exactly the adjoint of Conv2D's
// valid cross-correlation with a [Cin→Cout] kernel.
//
// Like Conv2D, the layer has two engines selected by the package-level
// Backend switch: the default fast path expresses the scatter as a
// matrix product followed by Col2Im (and the backward pass as Im2Col
// followed by two products), the slow path keeps the reference loops.
type ConvTranspose2D struct {
	InChannels  int
	OutChannels int
	Kernel      int

	// Workers enables intra-layer parallelism of the GEMM engine;
	// results are bit-identical for any value. The slow path ignores
	// it (the reference loops stay strictly single-threaded).
	Workers int

	weight *Param // [Cin, Cout, K, K]
	bias   *Param // [Cout]

	cacheInput *tensor.Tensor
	cacheFast  bool
	scratch    *Arena
	backend    *ConvBackend // per-layer pin; nil follows the package switch
	name       string

	// Float32 compute path — see the matching fields on Conv2D.
	f32on     bool
	f32arena  *Arena
	pack      *pack32
	cacheX32  []float32
	cacheF32  bool
	cacheDims [3]int // n, h, w of the cached f32 input
}

// NewConvTranspose2D builds a transpose convolution layer with
// He-initialized weights.
func NewConvTranspose2D(name string, g *tensor.RNG, inCh, outCh, kernel int) *ConvTranspose2D {
	if inCh <= 0 || outCh <= 0 || kernel <= 0 {
		panic(fmt.Sprintf("nn: invalid ConvTranspose2D config in=%d out=%d k=%d", inCh, outCh, kernel))
	}
	fanIn := inCh * kernel * kernel
	w := HeNormal(g, fanIn, inCh, outCh, kernel, kernel)
	b := tensor.New(outCh)
	return &ConvTranspose2D{
		InChannels:  inCh,
		OutChannels: outCh,
		Kernel:      kernel,
		weight:      NewParam(name+".weight", w),
		bias:        NewParam(name+".bias", b),
		scratch:     NewArena(),
		pack:        &pack32{},
		name:        name,
	}
}

// Name implements Layer.
func (c *ConvTranspose2D) Name() string { return c.name }

// Params implements Layer.
func (c *ConvTranspose2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// OutputShape returns the spatial output size for an h×w input.
func (c *ConvTranspose2D) OutputShape(h, w int) (oh, ow int) {
	return h + c.Kernel - 1, w + c.Kernel - 1
}

// SetScratch replaces the layer's private scratch arena with a shared
// one (see Sequential.SetScratch). a must not be nil.
func (c *ConvTranspose2D) SetScratch(a *Arena) {
	if a == nil {
		panic(fmt.Sprintf("nn: ConvTranspose2D %s SetScratch(nil)", c.name))
	}
	c.scratch = a
}

// SetWorkers sets the intra-layer parallelism knob.
func (c *ConvTranspose2D) SetWorkers(workers int) { c.Workers = workers }

// SetConvBackend pins this layer to one convolution engine (see
// Conv2D.SetConvBackend).
func (c *ConvTranspose2D) SetConvBackend(b ConvBackend) { c.backend = &b }

// engine returns the pinned convolution engine, or the package switch.
func (c *ConvTranspose2D) engine() ConvBackend {
	if c.backend != nil {
		return *c.backend
	}
	return Backend
}

// Forward implements Layer:
// y[n,co,iy+ky,ix+kx] += x[n,ci,iy,ix] · w[ci,co,ky,kx], plus bias.
func (c *ConvTranspose2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: ConvTranspose2D %s needs NCHW input, got %v", c.name, x.Shape()))
	}
	if x.Dim(1) != c.InChannels {
		panic(fmt.Sprintf("nn: ConvTranspose2D %s expects %d input channels, got %d", c.name, c.InChannels, x.Dim(1)))
	}
	if c.f32on {
		return forwardVia32(c, c.f32arena, x)
	}
	if c.engine() == FastPath {
		return c.forwardGEMM(x)
	}
	c.cacheInput = x.Clone()
	c.cacheFast = false
	n, cin, h, wid := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	k := c.Kernel
	cout := c.OutChannels
	oh, ow := h+k-1, wid+k-1
	y := tensor.New(n, cout, oh, ow)
	xd, wd, yd, bd := x.Data(), c.weight.Value.Data(), y.Data(), c.bias.Value.Data()
	for in := 0; in < n; in++ {
		for co := 0; co < cout; co++ {
			outBase := (in*cout + co) * oh * ow
			bv := bd[co]
			for i := outBase; i < outBase+oh*ow; i++ {
				yd[i] = bv
			}
			for ci := 0; ci < cin; ci++ {
				inBase := (in*cin + ci) * h * wid
				wBase := ((ci*cout + co) * k) * k
				for ky := 0; ky < k; ky++ {
					for iy := 0; iy < h; iy++ {
						srcRow := xd[inBase+iy*wid : inBase+(iy+1)*wid]
						dstRow := yd[outBase+(iy+ky)*ow : outBase+(iy+ky)*ow+ow]
						for kx := 0; kx < k; kx++ {
							wv := wd[wBase+ky*k+kx]
							if wv == 0 {
								continue
							}
							dst := dstRow[kx : kx+wid]
							for ix, xv := range srcRow {
								dst[ix] += wv * xv
							}
						}
					}
				}
			}
		}
	}
	return y
}

// Backward implements Layer. Because Forward is the adjoint of a valid
// cross-correlation, dx is exactly a valid cross-correlation of the
// output gradient with the kernel.
func (c *ConvTranspose2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.cacheF32 {
		return c.backward32(gradOut)
	}
	if c.cacheInput == nil {
		panic(fmt.Sprintf("nn: ConvTranspose2D %s Backward before Forward", c.name))
	}
	if c.cacheFast {
		return c.backwardGEMM(gradOut)
	}
	x := c.cacheInput
	c.cacheInput = nil
	n, cin, h, wid := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	k := c.Kernel
	cout := c.OutChannels
	oh, ow := h+k-1, wid+k-1
	if gradOut.Dim(0) != n || gradOut.Dim(1) != cout || gradOut.Dim(2) != oh || gradOut.Dim(3) != ow {
		panic(fmt.Sprintf("nn: ConvTranspose2D backward shape mismatch x=%v dy=%v", x.Shape(), gradOut.Shape()))
	}
	dx := tensor.New(n, cin, h, wid)
	xd, wd, gd, dxd := x.Data(), c.weight.Value.Data(), gradOut.Data(), dx.Data()
	dWd, dBd := c.weight.Grad.Data(), c.bias.Grad.Data()
	for in := 0; in < n; in++ {
		for co := 0; co < cout; co++ {
			gBase := (in*cout + co) * oh * ow
			s := 0.0
			for i := gBase; i < gBase+oh*ow; i++ {
				s += gd[i]
			}
			dBd[co] += s
			for ci := 0; ci < cin; ci++ {
				inBase := (in*cin + ci) * h * wid
				wBase := ((ci*cout + co) * k) * k
				for ky := 0; ky < k; ky++ {
					for iy := 0; iy < h; iy++ {
						srcRow := xd[inBase+iy*wid : inBase+(iy+1)*wid]
						dxRow := dxd[inBase+iy*wid : inBase+(iy+1)*wid]
						gRow := gd[gBase+(iy+ky)*ow : gBase+(iy+ky)*ow+ow]
						for kx := 0; kx < k; kx++ {
							wv := wd[wBase+ky*k+kx]
							g := gRow[kx : kx+wid]
							acc := 0.0
							for ix := range srcRow {
								acc += g[ix] * srcRow[ix]
								dxRow[ix] += g[ix] * wv
							}
							dWd[wBase+ky*k+kx] += acc
						}
					}
				}
			}
		}
	}
	return dx
}

// convTileCols returns the column-tile width of the transpose
// convolution's tiled GEMM engine: wide enough to amortize per-tile
// setup, narrow enough that one [C·K² × tile] im2col panel (~512 KiB)
// stays L2-resident across the whole reduction sweep — the locality
// property that makes the lowered product faster than the naive loops
// instead of memory-bound.
// The width depends only on the layer shape, never on the worker
// count, so tiling preserves the engine's bit-identical-results
// contract.
func convTileCols(ckk, frame int) int {
	const targetFloats = 1 << 16 // 512 KiB per panel
	tw := targetFloats / ckk
	tw &^= 7
	if tw < 32 {
		tw = 32
	}
	if tw > frame {
		tw = frame
	}
	return tw
}

// forwardGEMM expresses the scatter as linear algebra over cache-sized
// column tiles of the input frame, per sample: with X viewed
// [Cin × H·W] and W viewed [Cin × Cout·K²],
//
//	panel = Wᵀ · X[:, tile]          (GemmPanelTN, [Cout·K² × tile])
//	y    += Col2ImWindow(panel)      (scatter; y prefilled with bias)
//
// which is exactly the adjoint of an im2col-lowered convolution with
// the roles of image and output swapped: the transpose-conv output
// (size OH = H+K-1) plays the "image" and the input plays the "conv
// output".
// Within one image, tiles run serially — their scatters into y
// overlap. Across a batch, images are independent (their scatters are
// disjoint), so with Workers > 1 and N > 1 whole images fan out to
// goroutines, each with its own panel; a batch-of-1 call instead
// parallelizes row bands inside each GEMM. Per-image work is identical
// either way, so batched outputs are bit-identical, image for image,
// to batch-of-1 calls, and results are bit-identical for any worker
// count.
func (c *ConvTranspose2D) forwardGEMM(x *tensor.Tensor) *tensor.Tensor {
	n, cin, h, wid := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	k, cout := c.Kernel, c.OutChannels
	oh, ow := h+k-1, wid+k-1

	// Cache by reference (see Conv2D.forwardDirect): the input must not
	// be mutated between Forward and the matching Backward.
	c.cacheInput = x
	c.cacheFast = true

	ckk := tensor.Im2ColRows(cout, k)
	frame := h * wid
	tw := convTileCols(ckk, frame)
	nw := c.Workers
	if nw > n {
		nw = n
	}
	if nw < 1 {
		nw = 1
	}
	// Leftover parallelism goes to row bands inside each GEMM (e.g.
	// Workers=8 over a 2-image batch → 2 image goroutines × 4-way
	// GEMMs). Any split is bit-identical (§3 determinism).
	gemmWorkers := c.Workers / nw
	if gemmWorkers < 1 {
		gemmWorkers = 1
	}

	mark := c.scratch.Mark()
	panels := make([][]float64, nw)
	for w := range panels {
		panels[w] = c.scratch.Alloc(ckk * tw)
	}
	defer c.scratch.Release(mark)

	y := tensor.New(n, cout, oh, ow)
	xd, wd, yd, bd := x.Data(), c.weight.Value.Data(), y.Data(), c.bias.Value.Data()
	parallelFor(nw, nw, func(w int) {
		cols := panels[w]
		for in := w * n / nw; in < (w+1)*n/nw; in++ {
			out := yd[in*cout*oh*ow : (in+1)*cout*oh*ow]
			for co := 0; co < cout; co++ {
				row := out[co*oh*ow : (co+1)*oh*ow]
				bv := bd[co]
				for i := range row {
					row[i] = bv
				}
			}
			xn := xd[in*cin*frame : (in+1)*cin*frame]
			for j0 := 0; j0 < frame; j0 += tw {
				j1 := min(j0+tw, frame)
				twa := j1 - j0
				tensor.GemmPanelTN(ckk, twa, cin, wd, ckk, xn[j0:], frame, cols, twa, false, gemmWorkers)
				tensor.Col2ImWindow(cols, cout, oh, ow, k, 0, j0, j1, out)
			}
		}
	})
	return y
}

// backwardGEMM mirrors forwardGEMM tile for tile: lowering the output
// gradient with Im2ColWindow turns dx into a plain valid
// cross-correlation and dW into a product with the cached input:
//
//	panelG       = Im2ColWindow(dY)   ([Cout·K² × tile])
//	dx[:, tile]  = W · panelG         (GemmPanelNN)
//	dW          += X[:, tile]·panelGᵀ (GemmPanelNT)
func (c *ConvTranspose2D) backwardGEMM(gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.cacheInput
	c.cacheInput = nil
	n, cin, h, wid := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	k, cout := c.Kernel, c.OutChannels
	oh, ow := h+k-1, wid+k-1
	if gradOut.Dim(0) != n || gradOut.Dim(1) != cout || gradOut.Dim(2) != oh || gradOut.Dim(3) != ow {
		panic(fmt.Sprintf("nn: ConvTranspose2D backward shape mismatch x=%v dy=%v", x.Shape(), gradOut.Shape()))
	}

	ckk := tensor.Im2ColRows(cout, k)
	frame := h * wid
	tw := convTileCols(ckk, frame)
	mark := c.scratch.Mark()
	colsG := c.scratch.Alloc(ckk * tw)
	defer c.scratch.Release(mark)

	dx := tensor.New(n, cin, h, wid)
	xd, wd, gd, dxd := x.Data(), c.weight.Value.Data(), gradOut.Data(), dx.Data()
	dWd, dBd := c.weight.Grad.Data(), c.bias.Grad.Data()
	for in := 0; in < n; in++ {
		dy := gd[in*cout*oh*ow : (in+1)*cout*oh*ow]
		for co := 0; co < cout; co++ {
			s := 0.0
			for _, v := range dy[co*oh*ow : (co+1)*oh*ow] {
				s += v
			}
			dBd[co] += s
		}
		xn := xd[in*cin*frame : (in+1)*cin*frame]
		dxn := dxd[in*cin*frame : (in+1)*cin*frame]
		for j0 := 0; j0 < frame; j0 += tw {
			j1 := min(j0+tw, frame)
			twa := j1 - j0
			tensor.Im2ColWindow(dy, cout, oh, ow, k, 0, j0, j1, colsG)
			tensor.GemmPanelNN(cin, twa, ckk, wd, ckk, colsG, twa, dxn[j0:], frame, false, c.Workers)
			tensor.GemmPanelNT(cin, ckk, twa, xn[j0:], frame, colsG, twa, dWd, ckk, true, c.Workers)
		}
	}
	return dx
}
