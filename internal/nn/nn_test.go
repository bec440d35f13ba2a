package nn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestConv2DOutputShapes(t *testing.T) {
	g := tensor.NewRNG(1)
	valid := NewConv2D("v", g, 4, 6, 5, 0)
	same := NewConv2D("s", g, 4, 6, 5, SamePad(5))
	x := tensor.Normal(g, 0, 1, 2, 4, 12, 10)

	yv := valid.Forward(x)
	if yv.Dim(0) != 2 || yv.Dim(1) != 6 || yv.Dim(2) != 8 || yv.Dim(3) != 6 {
		t.Fatalf("valid conv shape = %v", yv.Shape())
	}
	ys := same.Forward(x)
	if ys.Dim(2) != 12 || ys.Dim(3) != 10 {
		t.Fatalf("same conv shape = %v", ys.Shape())
	}
	oh, ow := valid.OutputShape(12, 10)
	if oh != 8 || ow != 6 {
		t.Fatalf("OutputShape = %d,%d", oh, ow)
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 1 input channel, 1 output channel, 2x2 kernel of ones, no bias:
	// output = sum of each 2x2 window.
	g := tensor.NewRNG(1)
	c := NewConv2D("c", g, 1, 1, 2, 0)
	c.Weight().Value.Fill(1)
	c.Bias().Value.Fill(0)
	x := tensor.FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	y := c.Forward(x)
	want := tensor.FromSlice([]float64{12, 16, 24, 28}, 1, 1, 2, 2)
	if !y.AllClose(want, 1e-12) {
		t.Fatalf("conv values = %v, want %v", y.Data(), want.Data())
	}
}

func TestConv2DBiasApplied(t *testing.T) {
	g := tensor.NewRNG(1)
	c := NewConv2D("c", g, 1, 2, 3, 1)
	c.Weight().Value.Fill(0)
	c.Bias().Value.Set(1.5, 0)
	c.Bias().Value.Set(-2, 1)
	x := tensor.Normal(g, 0, 1, 1, 1, 4, 4)
	y := c.Forward(x)
	if y.At(0, 0, 2, 2) != 1.5 || y.At(0, 1, 0, 0) != -2 {
		t.Fatalf("bias not applied: %v", y.Data())
	}
}

// TestConv2DForwardAllocsOnlyOutput is the f64 fast path's allocation
// contract: once the scratch arena is warm, a Forward allocates exactly
// what building its output tensor does and nothing else — the kernel
// loop makes no interface conversion or closure.
func TestConv2DForwardAllocsOnlyOutput(t *testing.T) {
	g := tensor.NewRNG(2)
	for _, c := range []*Conv2D{NewConv2D("same", g, 6, 16, 5, SamePad(5)), NewConv2D("valid", g, 4, 6, 5, 0)} {
		x := tensor.Normal(g, 0, 1, 2, c.InChannels, 20, 20)
		y := c.Forward(x)
		got := testing.AllocsPerRun(20, func() { c.Forward(x) })
		want := testing.AllocsPerRun(20, func() { tensor.New(y.Dim(0), y.Dim(1), y.Dim(2), y.Dim(3)) })
		if got != want {
			t.Fatalf("%s: Forward allocates %.1f objects/op, building its output %.1f", c.Name(), got, want)
		}
	}
}

// Property: convolution is linear in the input once the bias is
// subtracted: conv(a+b) - conv(0) == (conv(a)-conv(0)) + (conv(b)-conv(0)).
func TestQuickConvLinearity(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		c := NewConv2D("c", g, 2, 2, 3, 1)
		a := tensor.Normal(g, 0, 1, 1, 2, 5, 5)
		b := tensor.Normal(g, 0, 1, 1, 2, 5, 5)
		zero := tensor.New(1, 2, 5, 5)
		y0 := c.Forward(zero)
		ya := c.Forward(a).Sub(y0)
		yb := c.Forward(b).Sub(y0)
		yab := c.Forward(a.Add(b)).Sub(y0)
		return yab.AllClose(ya.Add(yb), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: ConvTranspose2D is the adjoint of the valid Conv2D with
// the same kernel: <conv(x), y> == <x, convT(y)>.
func TestQuickConvTransposeAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		const cin, cout, k = 2, 3, 3
		conv := NewConv2D("c", g, cin, cout, k, 0)
		conv.Bias().Value.Fill(0)
		// Build the transpose layer with the SAME kernel, reindexed
		// [Cout,Cin,K,K] → [Cout→in, Cin→out]: convT maps cout→cin.
		ct := NewConvTranspose2D("ct", g, cout, cin, k)
		ct.Params()[1].Value.Fill(0)
		wc := conv.Weight().Value
		wt := ct.Params()[0].Value
		for co := 0; co < cout; co++ {
			for ci := 0; ci < cin; ci++ {
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						wt.Set(wc.At(co, ci, ky, kx), co, ci, ky, kx)
					}
				}
			}
		}
		x := tensor.Normal(g, 0, 1, 1, cin, 6, 6)
		y := tensor.Normal(g, 0, 1, 1, cout, 4, 4)
		lhs := conv.Forward(x).Dot(y)
		rhs := x.Dot(ct.Forward(y))
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestConvTransposeShapeInverse(t *testing.T) {
	g := tensor.NewRNG(2)
	conv := NewConv2D("c", g, 4, 8, 5, 0)
	deconv := NewConvTranspose2D("d", g, 8, 4, 5)
	x := tensor.Normal(g, 0, 1, 1, 4, 10, 12)
	y := conv.Forward(x)
	z := deconv.Forward(y)
	if z.Dim(2) != 10 || z.Dim(3) != 12 {
		t.Fatalf("deconv did not restore shape: %v", z.Shape())
	}
	oh, ow := deconv.OutputShape(6, 8)
	if oh != 10 || ow != 12 {
		t.Fatalf("OutputShape = %d,%d", oh, ow)
	}
}

func TestLeakyReLUValues(t *testing.T) {
	l := NewLeakyReLU("l", 0.01)
	x := tensor.FromSlice([]float64{-2, -0.5, 0, 0.5, 2}, 5)
	y := l.Forward(x)
	want := tensor.FromSlice([]float64{-0.02, -0.005, 0, 0.5, 2}, 5)
	if !y.AllClose(want, 1e-12) {
		t.Fatalf("LeakyReLU = %v", y.Data())
	}
}

func TestActivationValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLeakyReLU(1.5) must panic")
		}
	}()
	NewLeakyReLU("bad", 1.5)
}

func TestSequentialChaining(t *testing.T) {
	g := tensor.NewRNG(3)
	m := NewSequential(
		NewConv2D("c1", g, 4, 6, 5, 2),
		NewLeakyReLU("a1", 0.01),
		NewConv2D("c2", g, 6, 4, 5, 2),
	)
	if len(m.Layers()) != 3 {
		t.Fatalf("Layers = %d", len(m.Layers()))
	}
	x := tensor.Normal(g, 0, 1, 2, 4, 8, 8)
	y := m.Forward(x)
	if !y.SameShape(x) {
		t.Fatalf("same-padded stack must preserve shape: %v", y.Shape())
	}
	if got := len(m.Params()); got != 4 {
		t.Fatalf("Params = %d, want 4", got)
	}
	m.Add(NewIdentity("id"))
	if len(m.Layers()) != 4 {
		t.Fatalf("Add failed")
	}
}

func TestParamCountPaperModel(t *testing.T) {
	g := tensor.NewRNG(4)
	m := NewSequential(
		NewConv2D("c1", g, 4, 6, 5, 2),
		NewConv2D("c2", g, 6, 16, 5, 2),
		NewConv2D("c3", g, 16, 6, 5, 2),
		NewConv2D("c4", g, 6, 4, 5, 2),
	)
	// Table I: (4·6 + 6·16 + 16·6 + 6·4)·25 weights + (6+16+6+4) biases.
	want := (4*6+6*16+16*6+6*4)*25 + 6 + 16 + 6 + 4
	if got := ParamCount(m); got != want {
		t.Fatalf("ParamCount = %d, want %d", got, want)
	}
}

func TestZeroGradsAndGradNorm(t *testing.T) {
	g := tensor.NewRNG(5)
	m := NewSequential(NewConv2D("c", g, 1, 1, 3, 1))
	x := tensor.Normal(g, 0, 1, 1, 1, 5, 5)
	y := m.Forward(x)
	m.Backward(y)
	if GradNorm(m) == 0 {
		t.Fatalf("GradNorm zero after backward")
	}
	ZeroGrads(m)
	if GradNorm(m) != 0 {
		t.Fatalf("ZeroGrads did not clear")
	}
}

func TestClipGradNorm(t *testing.T) {
	g := tensor.NewRNG(6)
	m := NewSequential(NewDense("fc", g, 4, 4))
	x := tensor.Normal(g, 0, 10, 2, 4)
	y := m.Forward(x)
	m.Backward(y)
	pre := GradNorm(m)
	if pre <= 1 {
		t.Skipf("gradient unexpectedly small: %g", pre)
	}
	got := ClipGradNorm(m, 1.0)
	if math.Abs(got-pre) > 1e-12 {
		t.Fatalf("ClipGradNorm returned %g, want pre-clip %g", got, pre)
	}
	if post := GradNorm(m); math.Abs(post-1) > 1e-9 {
		t.Fatalf("post-clip norm = %g, want 1", post)
	}
}

func TestStateDictRoundTrip(t *testing.T) {
	g := tensor.NewRNG(7)
	m1 := NewSequential(NewConv2D("c", g, 2, 2, 3, 1), NewDense("fc", g, 4, 4))
	m2 := NewSequential(NewConv2D("c", tensor.NewRNG(99), 2, 2, 3, 1), NewDense("fc", tensor.NewRNG(98), 4, 4))
	sd := StateDict(m1)
	if err := LoadStateDict(m2, sd); err != nil {
		t.Fatal(err)
	}
	for i, p := range m1.Params() {
		if !p.Value.Equal(m2.Params()[i].Value) {
			t.Fatalf("param %d not restored", i)
		}
	}
	// Shape mismatch is rejected.
	bad := NewSequential(NewConv2D("c", g, 2, 2, 5, 2), NewDense("fc", g, 4, 4))
	if err := LoadStateDict(bad, sd); err == nil {
		t.Fatalf("LoadStateDict must reject mismatched shapes")
	}
}

func TestFlattenUnflattenParams(t *testing.T) {
	g := tensor.NewRNG(8)
	m := NewSequential(NewConv2D("c", g, 2, 3, 3, 1))
	flat := FlattenParams(m)
	if len(flat) != ParamCount(m) {
		t.Fatalf("FlattenParams length %d, want %d", len(flat), ParamCount(m))
	}
	for i := range flat {
		flat[i] = float64(i)
	}
	if err := UnflattenParams(m, flat); err != nil {
		t.Fatal(err)
	}
	again := FlattenParams(m)
	for i := range again {
		if again[i] != float64(i) {
			t.Fatalf("round trip failed at %d", i)
		}
	}
	if err := UnflattenParams(m, flat[:3]); err == nil {
		t.Fatalf("short vector must be rejected")
	}
	if err := UnflattenParams(m, append(flat, 0)); err == nil {
		t.Fatalf("long vector must be rejected")
	}
}

func TestFlattenGradsRoundTrip(t *testing.T) {
	g := tensor.NewRNG(9)
	m := NewSequential(NewDense("fc", g, 3, 2))
	x := tensor.Normal(g, 0, 1, 2, 3)
	m.Backward(m.Forward(x))
	flat := FlattenGrads(m)
	ZeroGrads(m)
	if err := UnflattenGrads(m, flat); err != nil {
		t.Fatal(err)
	}
	if got := FlattenGrads(m); !floatsEqual(got, flat) {
		t.Fatalf("gradient round trip failed")
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCopyParams(t *testing.T) {
	g := tensor.NewRNG(10)
	a := NewSequential(NewConv2D("c", g, 2, 2, 3, 1))
	b := NewSequential(NewConv2D("c", tensor.NewRNG(11), 2, 2, 3, 1))
	if err := CopyParams(b, a); err != nil {
		t.Fatal(err)
	}
	if !b.Params()[0].Value.Equal(a.Params()[0].Value) {
		t.Fatalf("CopyParams did not copy")
	}
	c := NewSequential(NewDense("fc", g, 2, 2))
	if err := CopyParams(c, a); err == nil {
		t.Fatalf("CopyParams must reject architecture mismatch")
	}
}

func TestFlattenLayer(t *testing.T) {
	g := tensor.NewRNG(12)
	f := NewFlatten("fl")
	x := tensor.Normal(g, 0, 1, 2, 3, 4, 5)
	y := f.Forward(x)
	if y.Rank() != 2 || y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("Flatten shape = %v", y.Shape())
	}
	back := f.Backward(y)
	if !back.SameShape(x) {
		t.Fatalf("Flatten backward shape = %v", back.Shape())
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	g := tensor.NewRNG(13)
	layers := []Layer{
		NewConv2D("c", g, 1, 1, 3, 1),
		NewConvTranspose2D("d", g, 1, 1, 3),
		NewLeakyReLU("l", 0.01),
		NewReLU("r"),
		NewTanh("t"),
		NewSigmoid("s"),
		NewDense("fc", g, 2, 2),
		NewFlatten("f"),
	}
	for _, l := range layers {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Backward before Forward must panic", l.Name())
				}
			}()
			l.Backward(tensor.New(1, 1, 3, 3))
		}()
	}
}

func TestHeXavierInitScales(t *testing.T) {
	g := tensor.NewRNG(14)
	w := HeNormal(g, 100, 50, 100)
	std := 0.0
	for _, v := range w.Data() {
		std += v * v
	}
	std = math.Sqrt(std / float64(w.Size()))
	want := math.Sqrt(2.0 / 100.0)
	if math.Abs(std-want) > 0.02 {
		t.Fatalf("He std = %g, want ≈%g", std, want)
	}
	x := XavierUniform(g, 10, 10, 10, 10)
	bound := math.Sqrt(6.0 / 20.0)
	if x.AbsMax() > bound {
		t.Fatalf("Xavier out of bound: %g > %g", x.AbsMax(), bound)
	}
}
