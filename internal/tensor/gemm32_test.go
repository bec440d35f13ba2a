package tensor

import (
	"math"
	"testing"
)

func randSlice32(g *RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(g.NormFloat64())
	}
	return s
}

func widen(s []float32) []float64 {
	d := make([]float64, len(s))
	Widen64(d, s)
	return d
}

// closeSlices32 compares a float32 result against a float64 reference
// with a relative tolerance sized for float32 round-off.
func closeSlices32(t *testing.T, op string, got []float32, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", op, len(got), len(want))
	}
	for i := range got {
		if math.Abs(float64(got[i])-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Fatalf("%s: [%d] = %g, want %g", op, i, got[i], want[i])
		}
	}
}

// gemm32Tol covers float32 round-off over the reduction lengths these
// tests use (k ≤ a few hundred): ~k·ε₃₂ with slack.
const gemm32Tol = 1e-4

// TestGemm32KernelsMatchFloat64 sweeps the same dimension set as the
// float64 kernel test and checks every f32 kernel against the f64
// naive product computed on the widened operands.
func TestGemm32KernelsMatchFloat64(t *testing.T) {
	g := NewRNG(42)
	dims := []struct{ m, n, k int }{
		{1, 1, 1},
		{3, 7, 5},      // all-remainder path
		{4, 8, 8},      // exact unroll multiples
		{5, 2049, 9},   // n spans two column blocks with a 1-wide tail
		{16, 100, 400}, // conv-forward-like shape
		{2, 4097, 4},   // block boundary + even rows
		{7, 33, 1},     // k smaller than the unroll
	}
	for _, d := range dims {
		a := randSlice32(g, d.m*d.k)
		at := make([]float32, d.k*d.m) // aᵀ, [k×m]
		for i := 0; i < d.m; i++ {
			for p := 0; p < d.k; p++ {
				at[p*d.m+i] = a[i*d.k+p]
			}
		}
		b := randSlice32(g, d.k*d.n)
		bt := make([]float32, d.n*d.k) // bᵀ, [n×k]
		for p := 0; p < d.k; p++ {
			for j := 0; j < d.n; j++ {
				bt[j*d.k+p] = b[p*d.n+j]
			}
		}
		want := naiveNN(d.m, d.n, d.k, widen(a), widen(b))
		wantTN := naiveTN(d.m, d.n, d.k, widen(at), widen(b))
		wantNT := naiveNT(d.m, d.n, d.k, widen(a), widen(bt))

		for _, workers := range []int{1, 3} {
			c := make([]float32, d.m*d.n)
			GemmPanelNN32(d.m, d.n, d.k, a, d.k, b, d.n, c, d.n, false, workers)
			closeSlices32(t, "GemmPanelNN32", c, want, gemm32Tol)

			c = make([]float32, d.m*d.n)
			GemmPanelTN32(d.m, d.n, d.k, at, d.m, b, d.n, c, d.n, false, workers)
			closeSlices32(t, "GemmPanelTN32", c, wantTN, gemm32Tol)

			c = make([]float32, d.m*d.n)
			GemmPanelNT32(d.m, d.n, d.k, a, d.k, bt, d.k, c, d.n, false, workers)
			closeSlices32(t, "GemmPanelNT32", c, wantNT, gemm32Tol)

			// Accumulating form: C starts at 1 everywhere.
			c = make([]float32, d.m*d.n)
			for i := range c {
				c[i] = 1
			}
			GemmPanelNN32(d.m, d.n, d.k, a, d.k, b, d.n, c, d.n, true, workers)
			acc := make([]float64, len(want))
			for i := range acc {
				acc[i] = want[i] + 1
			}
			closeSlices32(t, "GemmPanelNN32 acc", c, acc, gemm32Tol)
		}
	}
}

// TestGemm32WorkersBitIdentical is the determinism contract carried to
// the f32 kernels: bit-identical output for any worker count.
func TestGemm32WorkersBitIdentical(t *testing.T) {
	g := NewRNG(7)
	const m, n, k = 6, 5000, 37
	a := randSlice32(g, m*k)
	b := randSlice32(g, k*n)
	bt := randSlice32(g, n*k)
	ref := make([]float32, m*n)
	GemmPanelNN32(m, n, k, a, k, b, n, ref, n, false, 1)
	refNT := make([]float32, m*n)
	GemmPanelNT32(m, n, k, a, k, bt, k, refNT, n, false, 1)
	refTN := make([]float32, m*n)
	GemmPanelTN32(m, n, k, a[:k*m], m, b, n, refTN, n, false, 1)
	for _, workers := range []int{2, 3, 8} {
		c := make([]float32, m*n)
		GemmPanelNN32(m, n, k, a, k, b, n, c, n, false, workers)
		for i := range c {
			if c[i] != ref[i] {
				t.Fatalf("GemmPanelNN32 workers=%d: [%d] = %g, serial %g", workers, i, c[i], ref[i])
			}
		}
		c = make([]float32, m*n)
		GemmPanelNT32(m, n, k, a, k, bt, k, c, n, false, workers)
		for i := range c {
			if c[i] != refNT[i] {
				t.Fatalf("GemmPanelNT32 workers=%d: [%d] = %g, serial %g", workers, i, c[i], refNT[i])
			}
		}
		c = make([]float32, m*n)
		GemmPanelTN32(m, n, k, a[:k*m], m, b, n, c, n, false, workers)
		for i := range c {
			if c[i] != refTN[i] {
				t.Fatalf("GemmPanelTN32 workers=%d: [%d] = %g, serial %g", workers, i, c[i], refTN[i])
			}
		}
	}
}

// TestIm2Col32MatchesFloat64 lowers the same image through both
// element types; the f32 lowering only copies and zero-fills, so the
// panels must agree exactly after widening.
func TestIm2Col32MatchesFloat64(t *testing.T) {
	g := NewRNG(11)
	cases := []struct{ c, h, w, k, pad int }{
		{2, 5, 6, 3, 0},
		{3, 7, 7, 5, 2}, // same padding
		{1, 4, 9, 3, 1},
		{2, 6, 5, 5, 4}, // pad > (k-1)/2
	}
	for _, tc := range cases {
		x32 := randSlice32(g, tc.c*tc.h*tc.w)
		x64 := widen(x32)
		oh := ConvOutSize(tc.h, tc.k, tc.pad)
		ow := ConvOutSize(tc.w, tc.k, tc.pad)
		rows := Im2ColRows(tc.c, tc.k)
		cols32 := make([]float32, rows*oh*ow)
		cols64 := make([]float64, rows*oh*ow)
		Im2Col32(x32, tc.c, tc.h, tc.w, tc.k, tc.pad, cols32)
		Im2Col(x64, tc.c, tc.h, tc.w, tc.k, tc.pad, cols64)
		for i := range cols32 {
			if float64(cols32[i]) != cols64[i] {
				t.Fatalf("%+v: cols32[%d] = %g, f64 %g", tc, i, cols32[i], cols64[i])
			}
		}

		// Adjoint: scatter a random panel back and compare. Col2Im
		// accumulates up to k·k terms per cell, so agreement is to
		// f32 round-off, not exact.
		d32 := randSlice32(g, rows*oh*ow)
		d64 := widen(d32)
		img32 := make([]float32, tc.c*tc.h*tc.w)
		img64 := make([]float64, tc.c*tc.h*tc.w)
		Col2Im32(d32, tc.c, tc.h, tc.w, tc.k, tc.pad, img32)
		Col2Im(d64, tc.c, tc.h, tc.w, tc.k, tc.pad, img64)
		closeSlices32(t, "Col2Im32", img32, img64, gemm32Tol)
	}
}

// TestDirectConv32MatchesLowered checks the direct kernel's float32
// forward against the im2col32 + GEMM32 route on the same operands: both are f32
// computations of the same sums, so they must agree to f32 round-off,
// and against shapes that exercise every padding edge case.
func TestDirectConv32MatchesLowered(t *testing.T) {
	g := NewRNG(23)
	cases := []struct{ cin, cout, h, w, k, pad int }{
		{4, 6, 16, 16, 5, 2}, // paper outer layer, same padding
		{6, 4, 9, 33, 5, 2},  // wide row: SIMD interior + edges
		{1, 1, 5, 5, 5, 0},   // valid conv, single output position per row
		{2, 3, 7, 6, 3, 1},
		{3, 2, 6, 7, 7, 3}, // k > 4: grouped taps + remainder
		{2, 2, 5, 5, 1, 0}, // 1x1 kernel: remainder only
		{1, 2, 6, 6, 3, 2}, // pad > (k-1)/2
	}
	for _, tc := range cases {
		x := randSlice32(g, tc.cin*tc.h*tc.w)
		wgt := randSlice32(g, tc.cout*tc.cin*tc.k*tc.k)
		bias := randSlice32(g, tc.cout)
		oh := ConvOutSize(tc.h, tc.k, tc.pad)
		ow := ConvOutSize(tc.w, tc.k, tc.pad)

		direct := make([]float32, tc.cout*oh*ow)
		d := DirectConv{N: 1, Cin: tc.cin, H: tc.h, W: tc.w, Cout: tc.cout, K: tc.k, Pad: tc.pad}
		d.Forward32(x, wgt, bias, direct, make([]float32, d.ScratchLen()))

		rows := Im2ColRows(tc.cin, tc.k)
		cols := make([]float32, rows*oh*ow)
		Im2Col32(x, tc.cin, tc.h, tc.w, tc.k, tc.pad, cols)
		lowered := make([]float32, tc.cout*oh*ow)
		for co := 0; co < tc.cout; co++ {
			out := lowered[co*oh*ow:][:oh*ow]
			for i := range out {
				out[i] = bias[co]
			}
		}
		GemmPanelNN32(tc.cout, oh*ow, rows, wgt, rows, cols, oh*ow, lowered, oh*ow, true, 1)

		for i := range direct {
			diff := math.Abs(float64(direct[i]) - float64(lowered[i]))
			if diff > gemm32Tol*(1+math.Abs(float64(lowered[i]))) {
				t.Fatalf("%+v: direct[%d] = %g, lowered %g", tc, i, direct[i], lowered[i])
			}
		}
	}
}

// TestDirectConv32ZeroWeightSkip pins the zero-coefficient skips: a
// kernel with zeroed taps must produce the same result as one where
// those taps contribute zero.
func TestDirectConv32ZeroWeightSkip(t *testing.T) {
	g := NewRNG(31)
	const cin, cout, h, w, k, pad = 2, 2, 8, 8, 5, 2
	x := randSlice32(g, cin*h*w)
	wgt := randSlice32(g, cout*cin*k*k)
	for i := 0; i < len(wgt); i += 3 {
		wgt[i] = 0
	}
	oh, ow := ConvOutSize(h, k, pad), ConvOutSize(w, k, pad)
	got := make([]float32, cout*oh*ow)
	d := DirectConv{N: 1, Cin: cin, H: h, W: w, Cout: cout, K: k, Pad: pad}
	d.Forward32(x, wgt, nil, got, make([]float32, d.ScratchLen()))

	rows := Im2ColRows(cin, k)
	cols := make([]float32, rows*oh*ow)
	Im2Col32(x, cin, h, w, k, pad, cols)
	want := make([]float32, cout*oh*ow)
	GemmPanelNN32(cout, oh*ow, rows, wgt, rows, cols, oh*ow, want, oh*ow, false, 1)
	closeSlices32(t, "Forward32 zero-skip", got, widen(want), gemm32Tol)
}
