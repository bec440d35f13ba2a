package tensor

import "fmt"

// ValidConvForward computes a stride-1 valid cross-correlation with the
// naive loops of nn.Conv2D's slow path, the reference the direct kernel
// is tested against (DESIGN.md §3):
// y[n,co,oy,ox] = b[co] + Σ_{ci,ky,kx} x[n,ci,oy+ky,ox+kx] · w[co,ci,ky,kx].
// With workers > 1, (batch, output-channel) tasks run concurrently;
// their output regions are disjoint, so the result is identical.
func ValidConvForward(x, w, b *Tensor, workers int) *Tensor {
	n, cin, h, wid := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	cout, k := w.Dim(0), w.Dim(2)
	oh, ow := h-k+1, wid-k+1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv input %dx%d smaller than kernel %d", h, wid, k))
	}
	y := New(n, cout, oh, ow)
	xd, wd, yd, bd := x.Data(), w.Data(), y.Data(), b.Data()
	ParallelFor(n*cout, workers, func(task int) {
		in, co := task/cout, task%cout
		outBase := (in*cout + co) * oh * ow
		bv := bd[co]
		for i := outBase; i < outBase+oh*ow; i++ {
			yd[i] = bv
		}
		for ci := 0; ci < cin; ci++ {
			inBase := (in*cin + ci) * h * wid
			wBase := ((co*cin + ci) * k) * k
			for ky := 0; ky < k; ky++ {
				wrow := wd[wBase+ky*k : wBase+(ky+1)*k]
				for oy := 0; oy < oh; oy++ {
					srcRow := xd[inBase+(oy+ky)*wid : inBase+(oy+ky)*wid+wid]
					dstRow := yd[outBase+oy*ow : outBase+(oy+1)*ow]
					for kx := 0; kx < k; kx++ {
						wv := wrow[kx]
						if wv == 0 {
							continue
						}
						src := srcRow[kx : kx+ow]
						for ox := range dstRow {
							dstRow[ox] += wv * src[ox]
						}
					}
				}
			}
		}
	})
	return y
}

// ValidConvBackward accumulates dW and dB from gradOut and returns
// dL/dx for the (already padded) input of ValidConvForward. With
// workers > 1 the bias gradient is computed serially (it is cheap),
// and the main sweep fans out over input channels, whose dW and dx
// regions are disjoint — results are identical to the serial path.
func ValidConvBackward(x, w, gradOut, dW, dB *Tensor, workers int) *Tensor {
	n, cin, h, wid := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	cout, k := w.Dim(0), w.Dim(2)
	oh, ow := gradOut.Dim(2), gradOut.Dim(3)
	if gradOut.Dim(0) != n || gradOut.Dim(1) != cout || oh != h-k+1 || ow != wid-k+1 {
		panic(fmt.Sprintf("tensor: conv backward shape mismatch x=%v w=%v dy=%v", x.Shape(), w.Shape(), gradOut.Shape()))
	}
	dx := New(n, cin, h, wid)
	xd, wd, gd, dxd := x.Data(), w.Data(), gradOut.Data(), dx.Data()
	dWd, dBd := dW.Data(), dB.Data()

	// Bias gradient: sum of the output gradient per output channel.
	for in := 0; in < n; in++ {
		for co := 0; co < cout; co++ {
			gBase := (in*cout + co) * oh * ow
			s := 0.0
			for i := gBase; i < gBase+oh*ow; i++ {
				s += gd[i]
			}
			dBd[co] += s
		}
	}

	ParallelFor(cin, workers, func(ci int) {
		for in := 0; in < n; in++ {
			inBase := (in*cin + ci) * h * wid
			for co := 0; co < cout; co++ {
				gBase := (in*cout + co) * oh * ow
				wBase := ((co*cin + ci) * k) * k
				for ky := 0; ky < k; ky++ {
					for oy := 0; oy < oh; oy++ {
						gRow := gd[gBase+oy*ow : gBase+(oy+1)*ow]
						srcRow := xd[inBase+(oy+ky)*wid : inBase+(oy+ky)*wid+wid]
						dxRow := dxd[inBase+(oy+ky)*wid : inBase+(oy+ky)*wid+wid]
						for kx := 0; kx < k; kx++ {
							wv := wd[wBase+ky*k+kx]
							acc := 0.0
							src := srcRow[kx : kx+ow]
							dst := dxRow[kx : kx+ow]
							for ox, g := range gRow {
								acc += g * src[ox]
								dst[ox] += g * wv
							}
							dWd[wBase+ky*k+kx] += acc
						}
					}
				}
			}
		}
	})
	return dx
}
