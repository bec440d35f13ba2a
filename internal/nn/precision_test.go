package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// f32Tol is the forward error budget of the float32 compute path
// against the float64 reference, relative to magnitude (documented in
// EXPERIMENTS.md); grads accumulate over more terms and get 10x.
const f32Tol = 2e-4

// buildPrecisionNet returns a paper-shaped stack exercising both f32
// convolution engines: the Conv2D layers take the direct kernel and
// the transpose convolution, closing the chain, the im2col + GEMM
// route.
func buildPrecisionNet(seed int64) *Sequential {
	g := tensor.NewRNG(seed)
	return NewSequential(
		NewConv2D("c1", g, 4, 6, 5, 2),
		NewLeakyReLU("a1", 0.01),
		NewConv2D("c2", g, 6, 16, 5, 2),
		NewLeakyReLU("a2", 0.01),
		NewConv2D("c3", g, 16, 6, 3, 1),
		NewLeakyReLU("a3", 0.01),
		NewConvTranspose2D("d1", g, 6, 4, 3),
	)
}

func maxRelDiff(t *testing.T, label string, got, want []float64, tol float64) float64 {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	worst := 0.0
	for i := range got {
		d := math.Abs(got[i]-want[i]) / (1 + math.Abs(want[i]))
		if d > worst {
			worst = d
		}
		if d > tol {
			t.Fatalf("%s[%d] = %g, f64 reference %g (rel %g > %g)", label, i, got[i], want[i], d, tol)
		}
	}
	return worst
}

// TestF32ForwardWithinBudget compares the pinned f32 forward against
// the f64 reference on both convolution engines and with intra-layer
// parallelism on — the f32 twin of the backend crosscheck.
func TestF32ForwardWithinBudget(t *testing.T) {
	g := tensor.NewRNG(3)
	x := tensor.Normal(g, 0, 1, 2, 4, 12, 14)
	for _, workers := range []int{1, 3} {
		ref := buildPrecisionNet(7)
		ref.SetWorkers(workers)
		want := ref.Forward(x)

		slow := buildPrecisionNet(7)
		slow.SetConvBackend(SlowPath)
		wantSlow := slow.Forward(x)
		maxRelDiff(t, "f64 naive vs fast", wantSlow.Data(), want.Data(), 1e-12)

		net := buildPrecisionNet(7)
		net.SetWorkers(workers)
		if err := net.SetPrecision(F32); err != nil {
			t.Fatal(err)
		}
		if net.Precision() != F32 {
			t.Fatal("Precision() != F32 after pin")
		}
		got := net.Forward(x)
		if !got.SameShape(want) {
			t.Fatalf("f32 output shape %v, want %v", got.Shape(), want.Shape())
		}
		maxRelDiff(t, "f32 forward", got.Data(), want.Data(), f32Tol)

		// Unpinning restores the reference path bit for bit.
		if err := net.SetPrecision(F64); err != nil {
			t.Fatal(err)
		}
		if back := net.Forward(x); !back.Equal(want) {
			t.Fatal("unpinned forward differs from f64 reference")
		}
	}
}

// TestF32GradsWithinBudget runs a full Forward/Backward pair on the
// pinned net and compares dx and every parameter gradient against the
// f64 reference.
func TestF32GradsWithinBudget(t *testing.T) {
	g := tensor.NewRNG(5)
	x := tensor.Normal(g, 0, 1, 2, 4, 10, 11)
	for _, workers := range []int{1, 3} {
		ref := buildPrecisionNet(11)
		ref.SetWorkers(workers)
		net := buildPrecisionNet(11)
		net.SetWorkers(workers)
		if err := net.SetPrecision(F32); err != nil {
			t.Fatal(err)
		}

		wantY := ref.Forward(x)
		ZeroGrads(ref)
		wantDX := ref.Backward(wantY.Clone()) // quadratic loss L = ½Σy²

		gotY := net.Forward(x)
		ZeroGrads(net)
		gotDX := net.Backward(gotY.Clone())

		maxRelDiff(t, "dx", gotDX.Data(), wantDX.Data(), 10*f32Tol)
		rp, gp := ref.Params(), net.Params()
		for i := range rp {
			maxRelDiff(t, rp[i].Name+".grad", gp[i].Grad.Data(), rp[i].Grad.Data(), 10*f32Tol)
		}
	}
}

// TestF32WorkersBitIdentical asserts the f32 path keeps the kernels'
// determinism contract: results are bit-identical for any worker count.
func TestF32WorkersBitIdentical(t *testing.T) {
	g := tensor.NewRNG(9)
	x := tensor.Normal(g, 0, 1, 3, 4, 12, 12)
	base := buildPrecisionNet(13)
	if err := base.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	want := base.Forward(x)
	for _, workers := range []int{2, 3, 8} {
		net := buildPrecisionNet(13)
		net.SetWorkers(workers)
		if err := net.SetPrecision(F32); err != nil {
			t.Fatal(err)
		}
		if got := net.Forward(x); !got.Equal(want) {
			t.Fatalf("f32 forward differs with %d workers", workers)
		}
	}
}

// TestF32BatchedMatchesBatchOf1 asserts the f32 engines keep the
// batching contract: a batched forward is bit-identical, image for
// image, to batch-of-1 forwards — on both the direct kernel and the
// GEMM route (the net contains both).
func TestF32BatchedMatchesBatchOf1(t *testing.T) {
	g := tensor.NewRNG(21)
	const n, c, h, w = 3, 4, 9, 13
	x := tensor.Normal(g, 0, 1, n, c, h, w)
	net := buildPrecisionNet(23)
	if err := net.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	batched := net.Forward(x)
	oc, ohh, oww := batched.Dim(1), batched.Dim(2), batched.Dim(3)
	single := buildPrecisionNet(23)
	if err := single.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	for in := 0; in < n; in++ {
		xi := tensor.FromSlice(x.Data()[in*c*h*w:(in+1)*c*h*w], 1, c, h, w)
		yi := single.Forward(xi)
		wantRow := batched.Data()[in*oc*ohh*oww : (in+1)*oc*ohh*oww]
		for j, v := range yi.Data() {
			if v != wantRow[j] {
				t.Fatalf("image %d elem %d: batch-of-1 %g, batched %g", in, j, v, wantRow[j])
			}
		}
	}
}

// TestF32DenseFlattenPath covers the rank-2 half of the f32 chain:
// Flatten + Dense forward and grads against the f64 reference.
func TestF32DenseFlattenPath(t *testing.T) {
	build := func() *Sequential {
		g := tensor.NewRNG(31)
		return NewSequential(
			NewConv2D("c", g, 2, 3, 3, 1),
			NewLeakyReLU("a", 0.01),
			NewFlatten("f"),
			NewDense("fc", g, 3*6*7, 5),
		)
	}
	g := tensor.NewRNG(33)
	x := tensor.Normal(g, 0, 1, 4, 2, 6, 7)
	ref := build()
	net := build()
	if err := net.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	wantY := ref.Forward(x)
	gotY := net.Forward(x)
	maxRelDiff(t, "dense forward", gotY.Data(), wantY.Data(), f32Tol)

	ZeroGrads(ref)
	ZeroGrads(net)
	wantDX := ref.Backward(wantY.Clone())
	gotDX := net.Backward(gotY.Clone())
	maxRelDiff(t, "dense dx", gotDX.Data(), wantDX.Data(), 10*f32Tol)
	rp, gp := ref.Params(), net.Params()
	for i := range rp {
		maxRelDiff(t, rp[i].Name+".grad", gp[i].Grad.Data(), rp[i].Grad.Data(), 10*f32Tol)
	}
}

// TestSetPrecisionRejectsUnsupportedLayer pins a net containing the one
// layer without a float32 path and expects a named error, with the
// model left on the reference path.
func TestSetPrecisionRejectsUnsupportedLayer(t *testing.T) {
	g := tensor.NewRNG(41)
	net := NewSequential(
		NewFlatten("f"),
		NewLSTM("lstm", g, 8, 4),
	)
	err := net.SetPrecision(F32)
	if err == nil {
		t.Fatal("LSTM accepted on the f32 path")
	}
	if net.Precision() != F64 {
		t.Fatal("failed pin left the net in F32")
	}
	if want := "lstm"; !containsStr(err.Error(), want) {
		t.Fatalf("error %q does not name the offending layer %q", err, want)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestPackCountOncePerPin asserts the PackedWeights economics: the
// first pin narrows each parameterized layer once, clones share the
// packs for free, and only a weight mutation triggers a re-pack.
func TestPackCountOncePerPin(t *testing.T) {
	net := buildPrecisionNet(51)
	const packedLayers = 4 // c1, c2, c3, d1

	base := PackCount()
	if err := net.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	if d := PackCount() - base; d != packedLayers {
		t.Fatalf("first pin packed %d layers, want %d", d, packedLayers)
	}

	// Clones share the master's packs: no new narrowing.
	clone := net.CloneShared()
	if clone.Precision() != F32 {
		t.Fatal("CloneShared dropped the precision pin")
	}
	g := tensor.NewRNG(53)
	x := tensor.Normal(g, 0, 1, 1, 4, 10, 10)
	clone.Forward(x)
	net.Forward(x)
	if d := PackCount() - base; d != packedLayers {
		t.Fatalf("clone forward re-packed: %d narrowings, want %d", d, packedLayers)
	}

	// Mutating the master weights invalidates every pack; the next
	// forward re-narrows (lazily, shared by master and clones).
	sd := StateDict(net)
	if err := LoadStateDict(net, sd); err != nil {
		t.Fatal(err)
	}
	clone.Forward(x)
	net.Forward(x)
	if d := PackCount() - base; d != 2*packedLayers {
		t.Fatalf("after weight swap: %d narrowings, want %d", d, 2*packedLayers)
	}
}

// TestF32PackInvalidationChangesOutput guards against serving stale
// packed weights after a weight swap.
func TestF32PackInvalidationChangesOutput(t *testing.T) {
	net := buildPrecisionNet(61)
	if err := net.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(63)
	x := tensor.Normal(g, 0, 1, 1, 4, 8, 8)
	before := net.Forward(x)
	for _, p := range net.Params() {
		p.Value.ScaleInPlace(1.5)
	}
	invalidatePacks(net)
	after := net.Forward(x)
	if after.Equal(before) {
		t.Fatal("forward unchanged after weight swap — stale packed weights served")
	}
}

// TestForwardIntoZeroAllocSteadyState is the zero-alloc contract of
// the fused rollout loop: once the arena and caches are warm,
// ForwardInto on the pinned net allocates nothing.
func TestForwardIntoZeroAllocSteadyState(t *testing.T) {
	net := buildPrecisionNet(71)
	if err := net.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(73)
	x := tensor.Normal(g, 0, 1, 1, 4, 16, 16)
	dst := tensor.New(1, 4, 18, 18) // the transpose conv grows the frame by K-1
	net.ForwardInto(x, dst)
	net.ForwardInto(x, dst)
	allocs := testing.AllocsPerRun(20, func() {
		net.ForwardInto(x, dst)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ForwardInto allocates %.1f objects/op, want 0", allocs)
	}
}

// TestHaloSplitF32MatchesWholeFrame mirrors the f64 halo-split
// crosscheck on the f32 path: the five-tile split plus fused tail is
// bit-identical to the whole-frame fused forward (the first layer's
// f32 output widens and narrows back exactly, and the direct kernel's
// rounding does not depend on tile geometry).
func TestHaloSplitF32MatchesWholeFrame(t *testing.T) {
	const (
		c    = 4
		h, w = 12, 14
		halo = 2
	)
	g := tensor.NewRNG(81)
	net := NewSequential(
		NewConv2D("c1", g, c, 6, 2*halo+1, 0),
		NewLeakyReLU("a1", 0.01),
		NewConv2D("c2", g, 6, c, 3, 1),
	)
	if err := net.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	split := NewHaloSplit(net, h, w, halo)
	if split == nil {
		t.Fatal("split does not apply")
	}
	ext := tensor.Normal(g, 0, 1, 1, c, h+2*halo, w+2*halo)
	crop := func(y0, y1, x0, x1 int) *tensor.Tensor {
		return tensor.SubImageConcat(y0, y1, x0, x1, ext)
	}
	got := split.ForwardComplete(crop)
	want := net.Forward(ext)
	if !got.Equal(want) {
		t.Fatalf("f32 split differs from whole frame by %g", got.Sub(want).AbsMax())
	}
}
