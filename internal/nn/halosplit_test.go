package nn

import (
	"testing"

	"repro/internal/tensor"
)

// haloNet builds a NeighborPad-style stack: a valid first conv
// consuming the halo, then shape-preserving layers.
func haloNet(t *testing.T, cin, halo int) *Sequential {
	t.Helper()
	g := tensor.NewRNG(3)
	k := 2*halo + 1
	net := NewSequential(
		NewConv2D("conv1", g, cin, 6, k, 0),
		NewLeakyReLU("lrelu1", 0.1),
		NewConv2D("conv2", g, 6, 5, k, SamePad(k)),
		NewLeakyReLU("lrelu2", 0.1),
		NewConv2D("conv3", g, 5, cin, k, SamePad(k)),
	)
	net.SetScratch(NewArena())
	return net
}

// cropOf adapts a single extended frame to the CropFunc the split
// expects.
func cropOf(ext *tensor.Tensor) CropFunc {
	return func(y0, y1, x0, x1 int) *tensor.Tensor {
		return tensor.SubImageConcat(y0, y1, x0, x1, ext)
	}
}

// TestHaloSplitMatchesWholeFrame: the five-tile split is bit-identical
// to the whole-frame forward on both engines, for even, odd, and
// non-square subdomain sizes — every output element runs the same
// instruction sequence wherever its tile puts it.
func TestHaloSplitMatchesWholeFrame(t *testing.T) {
	const halo = 2
	for _, backend := range []ConvBackend{FastPath, SlowPath} {
		for _, dims := range [][2]int{{12, 12}, {11, 13}, {5, 5}, {8, 21}} {
			h, w := dims[0], dims[1]
			net := haloNet(t, 4, halo)
			net.SetConvBackend(backend)
			split := NewHaloSplit(net, h, w, halo)
			if split == nil {
				t.Fatalf("%v %dx%d: no split", backend, h, w)
			}
			ext := tensor.Normal(tensor.NewRNG(int64(h*100+w)), 0, 1, 1, 4, h+2*halo, w+2*halo)
			got := split.ForwardComplete(cropOf(ext))
			want := net.Forward(ext)
			if got.Dim(2) != h || got.Dim(3) != w || !want.SameShape(got) {
				t.Fatalf("%v %dx%d: shape %v, want %v", backend, h, w, got.Shape(), want.Shape())
			}
			if !got.Equal(want) {
				t.Fatalf("%v %dx%d: split differs from whole frame by %g",
					backend, h, w, got.Sub(want).AbsMax())
			}
		}
	}
}

// TestHaloSplitDeterministic: two runs of the split over the same
// frame are bit-identical, and so is a run whose tile phases are
// interleaved with unrelated work — the property that makes blocking
// and overlapped Sessions bit-identical by construction.
func TestHaloSplitDeterministic(t *testing.T) {
	const halo, h, w = 2, 11, 14
	net := haloNet(t, 4, halo)
	split := NewHaloSplit(net, h, w, halo)
	ext := tensor.Normal(tensor.NewRNG(9), 0, 1, 1, 4, h+2*halo, w+2*halo)
	crop := cropOf(ext)

	a := split.ForwardComplete(crop)
	// Same tiles, hand-interleaved (the overlapped pipeline's order).
	interior := split.Interior(crop)
	net2 := haloNet(t, 4, halo) // unrelated work between phases
	net2.Forward(tensor.Normal(tensor.NewRNG(1), 0, 1, 1, 4, h+2*halo, w+2*halo))
	west, east := split.WestEast(crop)
	south, north := split.SouthNorth(crop)
	b := split.Finish(split.Assemble(interior, west, east, south, north))
	if !a.Equal(b) {
		t.Fatal("interleaved tile phases are not bit-identical to ForwardComplete")
	}
	if c := split.ForwardComplete(crop); !a.Equal(c) {
		t.Fatal("repeated ForwardComplete is not bit-identical")
	}
}

// TestHaloSplitWindowConcat: with a temporal window, tiles crop and
// concatenate several frames; the result must equal the whole-frame
// forward of the concatenated input bit for bit.
func TestHaloSplitWindowConcat(t *testing.T) {
	const halo, h, w, window = 2, 9, 10, 3
	net := haloNet(t, 4*window, halo)
	split := NewHaloSplit(net, h, w, halo)
	frames := make([]*tensor.Tensor, window)
	for i := range frames {
		frames[i] = tensor.Normal(tensor.NewRNG(int64(20+i)), 0, 1, 1, 4, h+2*halo, w+2*halo)
	}
	crop := func(y0, y1, x0, x1 int) *tensor.Tensor {
		return tensor.SubImageConcat(y0, y1, x0, x1, frames...)
	}
	got := split.ForwardComplete(crop)
	want := net.Forward(tensor.ConcatChannels(frames...))
	if !got.Equal(want) {
		t.Fatalf("windowed split differs by %g", got.Sub(want).AbsMax())
	}
}

// TestNewHaloSplitRejections: geometries and layer stacks the split
// does not cover return nil (callers fall back to whole-frame
// Forward).
func TestNewHaloSplitRejections(t *testing.T) {
	net := haloNet(t, 4, 2)
	if NewHaloSplit(net, 4, 12, 2) != nil {
		t.Fatal("degenerate height accepted")
	}
	if NewHaloSplit(net, 12, 4, 2) != nil {
		t.Fatal("degenerate width accepted")
	}
	if NewHaloSplit(net, 12, 12, 0) != nil {
		t.Fatal("halo 0 accepted")
	}
	if NewHaloSplit(net, 12, 12, 3) != nil {
		t.Fatal("halo mismatching the first kernel accepted")
	}
	g := tensor.NewRNG(1)
	samePadded := NewSequential(NewConv2D("c", g, 4, 4, 5, 2))
	if NewHaloSplit(samePadded, 12, 12, 2) != nil {
		t.Fatal("same-padded first layer accepted")
	}
	actFirst := NewSequential(NewLeakyReLU("a", 0.1), NewConv2D("c", g, 4, 4, 5, 0))
	if NewHaloSplit(actFirst, 12, 12, 2) != nil {
		t.Fatal("non-conv first layer accepted")
	}
}

// TestSubImageConcatMatchesComposition: the fused crop+concat equals
// ConcatChannels of SubImages, bit for bit.
func TestSubImageConcatMatchesComposition(t *testing.T) {
	a := tensor.Normal(tensor.NewRNG(1), 0, 1, 2, 3, 9, 11)
	b := tensor.Normal(tensor.NewRNG(2), 0, 1, 2, 5, 9, 11)
	got := tensor.SubImageConcat(2, 7, 1, 10, a, b)
	want := tensor.ConcatChannels(tensor.SubImage(a, 2, 7, 1, 10), tensor.SubImage(b, 2, 7, 1, 10))
	if !got.Equal(want) {
		t.Fatal("SubImageConcat differs from SubImage+ConcatChannels")
	}
	single := tensor.SubImageConcat(0, 9, 0, 11, a)
	if !single.Equal(a) {
		t.Fatal("identity window of a single input is not the input")
	}
}
