package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// This file implements the interior/boundary tile split that the
// overlapped halo-exchange pipeline (core.Session with
// ExchangeMode=Overlap, DESIGN.md §8) is built on.
//
// In the neighbour-padding architecture only the FIRST layer consumes
// halo data: it is a valid convolution over the halo-extended frame
// (kernel K = 2·halo+1, no zero padding), and every later layer is
// halo-free (shape-preserving with its own zero padding, in the
// subdomain's coordinate frame). The first layer's output therefore
// splits into five tiles by which halo strips their receptive fields
// touch:
//
//	┌────────────── south (needs S halo + corners) ──────────────┐
//	│ west │              interior                        │ east │
//	│ (W)  │         (no halo data at all)                │ (E)  │
//	└────────────── north (needs N halo + corners) ──────────────┘
//
// The interior tile is computable from the unextended local frame
// alone — before any halo message arrives; the west/east columns need
// only the phase-1 (west/east) strips; the south/north rows need the
// phase-2 strips, whose corners carry phase-1 data. That is exactly
// the dependency ladder of the two-phase halo exchange, so a Session
// can post the exchange non-blocking and compute tiles while strips
// are in flight.
//
// Determinism. The tiles are bit-identical to the matching windows of
// a whole-frame first layer, on both engines and in both precisions:
// the direct kernel runs every output element through the same
// instruction sequence wherever it sits in the frame (no SIMD scalar
// tails, tensor/directconv.go), and the naive loops accumulate each
// element in the same order too. So {mem, tcp} × {blocking, overlap}
// produce identical frames, and they equal an unsplit forward; the
// Session still runs this same five-tile split in both modes, which
// keeps the two paths issuing identical kernel calls. The halo-split
// tests assert tiled == whole frame bit for bit.

// HaloSplit is the per-subdomain tile plan: geometry plus the split of
// the network into its halo-consuming first convolution and the
// halo-free tail.
type HaloSplit struct {
	conv *Conv2D
	tail []Layer
	// tail32/arena32 are set when the network is pinned to the float32
	// path at split time: Finish then runs the tail fused on float32
	// (one narrowing in, one widening out) instead of layer by layer.
	tail32  []layer32
	arena32 *Arena
	// H, W are the subdomain's interior dimensions; Halo the strip
	// width, so the extended frame is (H+2·Halo) × (W+2·Halo).
	H, W, Halo int
}

// CropFunc hands a tile its input: rows [y0,y1) × cols [x0,x1) of the
// halo-extended frame (temporal-window models concatenate the same
// window of every history frame along channels). The Session supplies
// it; tensor.SubImageConcat is the canonical implementation.
type CropFunc func(y0, y1, x0, x1 int) *tensor.Tensor

// NewHaloSplit builds the tile plan for a network over an h×w
// subdomain with the given halo. It returns nil when the split does
// not apply, and the caller must fall back to a whole-frame Forward:
//   - halo ≤ 0 (no exchange at all — zero-pad and all-valid stacks),
//   - the first layer is not a valid convolution consuming exactly the
//     halo (kernel 2·halo+1, pad 0),
//   - the subdomain is too small for a non-empty interior tile
//     (h or w < kernel).
func NewHaloSplit(net *Sequential, h, w, halo int) *HaloSplit {
	if halo <= 0 || h < 2*halo+1 || w < 2*halo+1 {
		return nil
	}
	layers := net.Layers()
	if len(layers) == 0 {
		return nil
	}
	conv, ok := layers[0].(*Conv2D)
	if !ok || conv.Pad != 0 || conv.Kernel != 2*halo+1 {
		return nil
	}
	s := &HaloSplit{conv: conv, tail: layers[1:], H: h, W: w, Halo: halo}
	if net.f32 != nil && len(net.f32.steps) > 1 {
		s.tail32 = net.f32.steps[1:]
		s.arena32 = net.f32.arena
	}
	return s
}

// Interior computes the first layer's interior tile — output rows
// [halo, H-halo) × cols [halo, W-halo) — from the frame's local part
// alone. It is valid to call before ANY halo strip has arrived.
func (s *HaloSplit) Interior(crop CropFunc) *tensor.Tensor {
	m := s.Halo
	return s.conv.Forward(crop(m, s.H+m, m, s.W+m))
}

// WestEast computes the west and east boundary columns — output rows
// [halo, H-halo), cols [0, halo) and [W-halo, W). It needs the
// phase-1 (west/east) halo strips but no south/north data.
func (s *HaloSplit) WestEast(crop CropFunc) (west, east *tensor.Tensor) {
	m, h, w := s.Halo, s.H, s.W
	west = s.conv.Forward(crop(m, h+m, 0, 3*m))
	east = s.conv.Forward(crop(m, h+m, w-m, w+2*m))
	return west, east
}

// SouthNorth computes the south and north boundary rows — output rows
// [0, halo) and [H-halo, H) over the full width. It needs the phase-2
// (south/north) halo strips, whose corner columns carry phase-1 data.
func (s *HaloSplit) SouthNorth(crop CropFunc) (south, north *tensor.Tensor) {
	m, h, w := s.Halo, s.H, s.W
	south = s.conv.Forward(crop(0, 3*m, 0, w+2*m))
	north = s.conv.Forward(crop(h-m, h+2*m, 0, w+2*m))
	return south, north
}

// Assemble stitches the five tiles into the full first-layer
// activation [1, C1, H, W].
func (s *HaloSplit) Assemble(interior, west, east, south, north *tensor.Tensor) *tensor.Tensor {
	m, h, w := s.Halo, s.H, s.W
	c1 := interior.Dim(1)
	a := tensor.New(1, c1, h, w)
	tensor.SetSubImage(a, interior, m, m)
	tensor.SetSubImage(a, west, m, 0)
	tensor.SetSubImage(a, east, m, w-m)
	tensor.SetSubImage(a, south, 0, 0)
	tensor.SetSubImage(a, north, h-m, 0)
	return a
}

// Finish runs the halo-free tail of the network over the assembled
// first-layer activation and returns the subdomain's output frame.
func (s *HaloSplit) Finish(a *tensor.Tensor) *tensor.Tensor {
	if s.tail32 != nil {
		// Fused f32 tail. The assembled activation is the output of the
		// f32 first layer (float32 values widened), so narrowing it back
		// is exact and the result is bit-identical to running the pinned
		// tail layers one by one.
		mark := s.arena32.Mark()
		in := s.arena32.Alloc32(a.Size())
		tensor.Narrow32(in, a.Data())
		cur := actOf(a, in)
		for _, l := range s.tail32 {
			cur = l.forward32(cur, s.arena32)
		}
		y := newFromAct(cur)
		tensor.Widen64(y.Data(), cur.d)
		s.arena32.Release(mark)
		return y
	}
	y := a
	for _, l := range s.tail {
		y = l.Forward(y)
	}
	return y
}

// ForwardComplete runs the whole five-tile split over an already
// complete extended frame — the blocking-mode path, and the reference
// the overlapped path must match bit for bit. The tile order (interior,
// west/east, south/north) is the same order the overlapped pipeline
// uses, so the two paths issue identical kernel calls.
func (s *HaloSplit) ForwardComplete(crop CropFunc) *tensor.Tensor {
	interior := s.Interior(crop)
	west, east := s.WestEast(crop)
	south, north := s.SouthNorth(crop)
	return s.Finish(s.Assemble(interior, west, east, south, north))
}

// String implements fmt.Stringer (diagnostics).
func (s *HaloSplit) String() string {
	return fmt.Sprintf("halosplit{%dx%d halo %d}", s.H, s.W, s.Halo)
}
