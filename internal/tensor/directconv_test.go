package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// directCases is the coverage table of the direct kernel: pad 0 and
// same padding; K ∈ {1, 3, 5}; channel counts 1, 4, 6, 16 (not all
// multiples of four, so tap and output-channel groups end in zero-
// coefficient remainders); odd, square and non-square frames, among
// them a 12×6 input whose K=5 valid output is two columns wide — the
// west/east halo tile of the paper's layer 1; batches of 1 and 3.
func directCases() []DirectConv {
	var cs []DirectConv
	for _, k := range []int{1, 3, 5} {
		for _, pad := range slices.Compact([]int{0, (k - 1) / 2}) {
			for _, ch := range [][2]int{{1, 1}, {4, 6}, {6, 16}, {16, 4}} {
				for _, f := range [][2]int{{5, 7}, {12, 6}, {16, 16}} {
					cs = append(cs, DirectConv{N: 1 + 2*(len(cs)%2), Cin: ch[0], H: f[0], W: f[1],
						Cout: ch[1], K: k, Pad: pad})
				}
			}
		}
	}
	return cs
}

// convPass binds one precision's entry points.
type convPass[T float] struct {
	fwd func(DirectConv, []T, []T, []T, []T, []T)
	bwd func(DirectConv, []T, []T, []T, []T, []T, []T, []T)
}

var (
	pass64 = convPass[float64]{DirectConv.Forward, DirectConv.Backward}
	pass32 = convPass[float32]{DirectConv.Forward32, DirectConv.Backward32}
)

// convOperands are one call's inputs: dW0 and dB0 are the gradient
// accumulators' starting values.
type convOperands[T float] struct{ x, w, b, dy, dW0, dB0 []T }

// convResult is a forward output and the three gradients.
type convResult[T float] struct{ y, dx, dW, dB []T }

func randOperands(g *RNG, d DirectConv) convOperands[float64] {
	oh, ow := d.OutSize()
	return convOperands[float64]{
		x: randSlice(g, d.N*d.Cin*d.H*d.W), w: randSlice(g, d.Cout*d.Cin*d.K*d.K), b: randSlice(g, d.Cout),
		dy: randSlice(g, d.N*d.Cout*oh*ow), dW0: randSlice(g, d.Cout*d.Cin*d.K*d.K), dB0: randSlice(g, d.Cout),
	}
}

// narrowOperands rounds the operands to float32 in place and returns
// the float32 copies, so both precisions see the same values.
func narrowOperands(o convOperands[float64]) convOperands[float32] {
	n := func(s []float64) []float32 {
		d := make([]float32, len(s))
		Narrow32(d, s)
		Widen64(s, d)
		return d
	}
	return convOperands[float32]{n(o.x), n(o.w), n(o.b), n(o.dy), n(o.dW0), n(o.dB0)}
}

func (p convPass[T]) run(d DirectConv, o convOperands[T]) convResult[T] {
	oh, ow := d.OutSize()
	s := make([]T, d.ScratchLen())
	r := convResult[T]{y: make([]T, d.N*d.Cout*oh*ow), dx: make([]T, len(o.x)),
		dW: slices.Clone(o.dW0), dB: slices.Clone(o.dB0)}
	p.fwd(d, o.x, o.w, o.b, r.y, s)
	p.bwd(d, o.x, o.w, o.dy, r.dW, r.dB, r.dx, s)
	return r
}

// naiveConv is the oracle: the naive loops over an explicitly padded
// input.
func naiveConv(d DirectConv, o convOperands[float64]) convResult[float64] {
	oh, ow := d.OutSize()
	x := Pad2D(FromSlice(slices.Clone(o.x), d.N, d.Cin, d.H, d.W), d.Pad)
	w := FromSlice(o.w, d.Cout, d.Cin, d.K, d.K)
	dW := FromSlice(slices.Clone(o.dW0), d.Cout, d.Cin, d.K, d.K)
	dB := FromSlice(slices.Clone(o.dB0), d.Cout)
	y := ValidConvForward(x, w, FromSlice(o.b, d.Cout), 1)
	dx := Crop2D(ValidConvBackward(x, w, FromSlice(o.dy, d.N, d.Cout, oh, ow), dW, dB, 1), d.Pad)
	return convResult[float64]{y.Data(), dx.Data(), dW.Data(), dB.Data()}
}

// closeToOracle checks every output against the oracle to tol relative
// to the output's largest magnitude.
func closeToOracle[T float](t *testing.T, got convResult[T], want convResult[float64], tol float64) {
	t.Helper()
	for _, c := range []struct {
		name string
		got  []T
		want []float64
	}{{"y", got.y, want.y}, {"dx", got.dx, want.dx}, {"dW", got.dW, want.dW}, {"dB", got.dB, want.dB}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: length %d, want %d", c.name, len(c.got), len(c.want))
		}
		scale := 1.0
		for _, v := range c.want {
			scale = max(scale, math.Abs(v))
		}
		for i, v := range c.got {
			if diff := math.Abs(float64(v) - c.want[i]); diff > tol*scale {
				t.Fatalf("%s[%d] = %g, oracle %g (|diff| %g > %g)", c.name, i, v, c.want[i], diff, tol*scale)
			}
		}
	}
}

func sameResult[T float](t *testing.T, what string, got, want convResult[T]) {
	t.Helper()
	if !slices.Equal(got.y, want.y) || !slices.Equal(got.dx, want.dx) ||
		!slices.Equal(got.dW, want.dW) || !slices.Equal(got.dB, want.dB) {
		t.Fatalf("%s: not bit-identical", what)
	}
}

// TestDirectConvMatchesNaive checks forward, dx, dW and dB of both
// precisions against the naive loops over the whole coverage table,
// under every SIMD dispatch this CPU supports.
func TestDirectConvMatchesNaive(t *testing.T) {
	forEachDispatch(t, func(t *testing.T) {
		g := NewRNG(5)
		for _, d := range directCases() {
			t.Run(fmt.Sprintf("n%d_%dto%d_%dx%d_k%d_pad%d", d.N, d.Cin, d.Cout, d.H, d.W, d.K, d.Pad), func(t *testing.T) {
				o := randOperands(g, d)
				o32 := narrowOperands(o)
				want := naiveConv(d, o)
				closeToOracle(t, pass64.run(d, o), want, 1e-12)
				closeToOracle(t, pass32.run(d, o32), want, 1e-5)
			})
		}
	})
}

// TestDirectConvBitIdentity pins the kernel's structural determinism
// under every dispatch: any worker count reproduces the serial result
// bit for bit, and a batch reproduces a sequence of batch-of-1 calls
// (outputs image by image; dW and dB accumulating in batch order).
func TestDirectConvBitIdentity(t *testing.T) {
	forEachDispatch(t, func(t *testing.T) {
		g := NewRNG(6)
		for _, d := range directCases() {
			o := randOperands(g, d)
			bitIdentity(t, d, pass64, o)
			bitIdentity(t, d, pass32, narrowOperands(o))
		}
	})
}

func bitIdentity[T float](t *testing.T, d DirectConv, p convPass[T], o convOperands[T]) {
	t.Helper()
	want := p.run(d, o)
	for _, w := range []int{2, 4} {
		dw := d
		dw.Workers = w
		sameResult(t, fmt.Sprintf("%+v", dw), p.run(dw, o), want)
	}
	one := d
	one.N = 1
	oh, ow := d.OutSize()
	in, out := d.Cin*d.H*d.W, d.Cout*oh*ow
	seq := convResult[T]{dW: slices.Clone(o.dW0), dB: slices.Clone(o.dB0)}
	for i := 0; i < d.N; i++ {
		r := p.run(one, convOperands[T]{o.x[i*in:][:in], o.w, o.b, o.dy[i*out:][:out], seq.dW, seq.dB})
		seq.y, seq.dx = append(seq.y, r.y...), append(seq.dx, r.dx...)
		seq.dW, seq.dB = r.dW, r.dB
	}
	sameResult(t, fmt.Sprintf("%+v batch vs batch-of-1", d), want, seq)
}

// window copies rows [y0,y1) × cols [x0,x1) of every plane of a
// [c × h × w] flat stack.
func window[T float](s []T, c, h, w, y0, y1, x0, x1 int) []T {
	var out []T
	for ci := 0; ci < c; ci++ {
		for y := y0; y < y1; y++ {
			out = append(out, s[(ci*h+y)*w+x0:][:x1-x0]...)
		}
	}
	return out
}

// TestDirectConvTilesMatchWholeFrame: a valid convolution over a crop
// of the input equals the matching window of the whole-frame output
// bit for bit — every output element runs the same instruction
// sequence wherever it sits — for the five halo-split tiles of a 16×16
// subdomain with halo 2 and for odd windows, in both precisions and
// every dispatch.
func TestDirectConvTilesMatchWholeFrame(t *testing.T) {
	const cin, cout, k, m, h, w = 6, 16, 5, 2, 16, 16
	whole := DirectConv{N: 1, Cin: cin, H: h + 2*m, W: w + 2*m, Cout: cout, K: k}
	tiles := [][4]int{ // output rows [y0,y1) × cols [x0,x1)
		{m, h - m, m, w - m}, {m, h - m, 0, m}, {m, h - m, w - m, w}, // interior, west, east
		{0, m, 0, w}, {h - m, h, 0, w}, // south, north
		{3, 14, 5, 6}, {1, 2, 0, 16}, {0, 16, 7, 16},
	}
	forEachDispatch(t, func(t *testing.T) {
		o := randOperands(NewRNG(7), whole)
		tilesMatch(t, whole, pass64, o, tiles)
		tilesMatch(t, whole, pass32, narrowOperands(o), tiles)
	})
}

func tilesMatch[T float](t *testing.T, whole DirectConv, p convPass[T], o convOperands[T], tiles [][4]int) {
	t.Helper()
	oh, ow := whole.OutSize()
	ref := p.run(whole, o).y
	for _, tl := range tiles {
		y0, y1, x0, x1 := tl[0], tl[1], tl[2], tl[3]
		d := whole
		d.H, d.W = y1-y0+whole.K-1, x1-x0+whole.K-1
		x := window(o.x, whole.Cin, whole.H, whole.W, y0, y0+d.H, x0, x0+d.W)
		y := make([]T, d.Cout*(y1-y0)*(x1-x0))
		p.fwd(d, x, o.w, o.b, y, make([]T, d.ScratchLen()))
		if !slices.Equal(y, window(ref, whole.Cout, oh, ow, y0, y1, x0, x1)) {
			t.Fatalf("tile %v: not bit-identical to the whole-frame output", tl)
		}
	}
}
