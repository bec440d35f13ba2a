package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// setPrecision32 implements layer32. Pinning packs the weights
// immediately (once per Engine — clones share the pack), so serving
// never pays the narrowing on a request path.
func (c *Conv2D) setPrecision32(on bool, a *Arena) error {
	c.f32on = on
	if on {
		c.f32arena = a
		c.pack.get(c.weight.Value, c.bias.Value)
	} else {
		c.f32arena = nil
	}
	return nil
}

// invalidatePack implements packInvalidator.
func (c *Conv2D) invalidatePack() { c.pack.invalidate() }

// forward32 implements layer32: forwardDirect on float32. The output
// is allocated from the chain arena before the inner scratch mark, so
// releasing the kernel's scratch leaves it live for the next stage.
func (c *Conv2D) forward32(x act32, a *Arena) act32 {
	if x.rank != 4 {
		panic(fmt.Sprintf("nn: Conv2D %s f32 path needs NCHW input, got rank %d", c.name, x.rank))
	}
	if x.c != c.InChannels {
		panic(fmt.Sprintf("nn: Conv2D %s expects %d input channels, got %d", c.name, c.InChannels, x.c))
	}
	d := c.direct(x.n, x.h, x.w)
	sl := d.ScratchLen() // panics on a geometry the kernel cannot run
	oh, ow := d.OutSize()
	wd, bd := c.pack.get(c.weight.Value, c.bias.Value)

	// Persistent input copy: the activation's backing store is arena
	// scratch that is rewound at the end of the network call, so unlike
	// the f64 fast path Backward cannot hold it by reference.
	if cap(c.cacheX32) < len(x.d) {
		c.cacheX32 = make([]float32, len(x.d))
	}
	copy(c.cacheX32[:len(x.d)], x.d)
	c.cacheF32 = true
	c.cacheDims = [3]int{x.n, x.h, x.w}

	yd := a.Alloc32(d.N * d.Cout * oh * ow)
	mark := a.Mark()
	d.Forward32(x.d, wd, bd, yd, a.Alloc32(sl))
	a.Release(mark)
	return act32{n: d.N, c: d.Cout, h: oh, w: ow, rank: 4, d: yd}
}

// backward32 is the adjoint of forward32 on the same kernel.
// Gradients accumulate in float32 and fold into the float64 master
// grads with one widening add per parameter — the only f64 work in the
// pass.
func (c *Conv2D) backward32(gradOut *tensor.Tensor) *tensor.Tensor {
	c.cacheF32 = false
	d := c.direct(c.cacheDims[0], c.cacheDims[1], c.cacheDims[2])
	c.checkGradOut(gradOut, d)
	wd, _ := c.pack.get(c.weight.Value, c.bias.Value)

	a := c.f32arena
	mark := a.Mark()
	defer a.Release(mark)

	gd := a.Alloc32(gradOut.Size())
	tensor.Narrow32(gd, gradOut.Data())
	dW32 := a.AllocZero32(len(wd))
	dB32 := a.AllocZero32(d.Cout)
	dx32 := a.Alloc32(d.N * d.Cin * d.H * d.W)
	d.Backward32(c.cacheX32[:len(dx32)], wd, gd, dW32, dB32, dx32, a.Alloc32(d.ScratchLen()))

	tensor.AddWiden64(c.weight.Grad.Data(), dW32)
	tensor.AddWiden64(c.bias.Grad.Data(), dB32)
	dx := tensor.New(d.N, d.Cin, d.H, d.W)
	tensor.Widen64(dx.Data(), dx32)
	return dx
}
