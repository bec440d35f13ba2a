package nn

// Arena is a grow-only bump allocator for per-call scratch buffers.
// The convolution layers need a workspace on every Forward and
// Backward (staged padded planes for Conv2D, im2col panels for
// ConvTranspose2D); allocating it fresh each call would dominate the
// allocation profile of training and of the rollout loop. An Arena hands out slices from reusable
// chunks instead: after the first pass has grown the chunks to their
// steady-state sizes, every later pass allocates nothing.
//
// Lifetimes are stack-shaped: callers bracket each batch of Alloc
// calls with Mark / Release, which makes one arena safely shareable by
// all layers of a Sequential (layers run one at a time, and scratch
// never outlives the layer call that requested it). An Arena is NOT
// safe for concurrent use; concurrent ranks each own their models and
// therefore their arenas.
// Float32 scratch (the F32 compute path, DESIGN.md §13) lives in its
// own chunk list inside the same arena, so one Mark/Release bracket
// governs both element types and the f32 layers share the network's
// arena without mixing widths within a chunk.
type Arena struct {
	chunks [][]float64
	cur    int // index of the chunk being bumped
	off    int // bump offset within chunks[cur]

	chunks32 [][]float32
	cur32    int
	off32    int
}

// NewArena returns an empty arena; chunks are grown on demand.
func NewArena() *Arena { return &Arena{} }

// Reset rewinds the arena to empty, keeping its chunks for reuse. It
// is equivalent to releasing a mark taken before the first Alloc.
func (a *Arena) Reset() { a.cur, a.off, a.cur32, a.off32 = 0, 0, 0, 0 }

// arenaMinChunk is the smallest chunk the arena allocates (64 KiB of
// float64s), so tiny requests don't fragment into many chunks.
const arenaMinChunk = 1 << 13

// Alloc returns a scratch slice of n float64s with arbitrary contents.
// The slice is valid until the enclosing Mark is Released (or the
// arena is reused past it); callers must not retain it beyond that.
func (a *Arena) Alloc(n int) []float64 {
	if n == 0 {
		return nil
	}
	for a.cur < len(a.chunks) {
		c := a.chunks[a.cur]
		if a.off+n <= len(c) {
			s := c[a.off : a.off+n]
			a.off += n
			return s
		}
		a.cur++
		a.off = 0
	}
	size := n
	if size < arenaMinChunk {
		size = arenaMinChunk
	}
	c := make([]float64, size)
	a.chunks = append(a.chunks, c)
	a.cur = len(a.chunks) - 1
	a.off = n
	return c[:n]
}

// AllocZero is Alloc with the returned slice cleared.
func (a *Arena) AllocZero(n int) []float64 {
	s := a.Alloc(n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// Alloc32 returns a scratch slice of n float32s with arbitrary
// contents, under the same Mark/Release discipline as Alloc.
func (a *Arena) Alloc32(n int) []float32 {
	if n == 0 {
		return nil
	}
	for a.cur32 < len(a.chunks32) {
		c := a.chunks32[a.cur32]
		if a.off32+n <= len(c) {
			s := c[a.off32 : a.off32+n]
			a.off32 += n
			return s
		}
		a.cur32++
		a.off32 = 0
	}
	size := n
	if size < arenaMinChunk {
		size = arenaMinChunk
	}
	c := make([]float32, size)
	a.chunks32 = append(a.chunks32, c)
	a.cur32 = len(a.chunks32) - 1
	a.off32 = n
	return c[:n]
}

// AllocZero32 is Alloc32 with the returned slice cleared.
func (a *Arena) AllocZero32(n int) []float32 {
	s := a.Alloc32(n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// ArenaMark is a position in the arena's bump stack (both widths).
type ArenaMark struct{ cur, off, cur32, off32 int }

// Mark records the current allocation position. Pair it with Release
// to return every slice handed out in between to the arena.
func (a *Arena) Mark() ArenaMark { return ArenaMark{a.cur, a.off, a.cur32, a.off32} }

// Release rewinds the arena to a previous Mark, invalidating all
// slices allocated after it.
func (a *Arena) Release(m ArenaMark) {
	a.cur, a.off = m.cur, m.off
	a.cur32, a.off32 = m.cur32, m.off32
}

// scratchUser is implemented by layers that consume arena scratch.
type scratchUser interface{ SetScratch(*Arena) }

// SetScratch threads one shared scratch arena through every contained
// layer that can use it (the convolution layers). Each conv layer owns
// a private arena by default, so calling this is an optimization — it
// deduplicates the workspaces of a whole network into one — not a
// requirement for buffer reuse.
func (s *Sequential) SetScratch(a *Arena) {
	for _, l := range s.layers {
		if u, ok := l.(scratchUser); ok {
			u.SetScratch(a)
		}
	}
}

// backendUser is implemented by layers with a per-instance convolution
// engine pin.
type backendUser interface{ SetConvBackend(ConvBackend) }

// SetConvBackend pins the convolution engine on every contained layer
// that has one, overriding the package-level Backend switch for this
// network only. Networks with different pins can then coexist in one
// process without racing on the global switch.
func (s *Sequential) SetConvBackend(b ConvBackend) {
	for _, l := range s.layers {
		if u, ok := l.(backendUser); ok {
			u.SetConvBackend(b)
		}
	}
}

// workersUser is implemented by layers with an intra-layer parallelism
// knob.
type workersUser interface{ SetWorkers(int) }

// SetWorkers sets the Workers knob on every contained layer that has
// one. Results are bit-identical for any worker count (the kernels'
// determinism contract), so this only trades goroutines for speed.
func (s *Sequential) SetWorkers(workers int) {
	for _, l := range s.layers {
		if u, ok := l.(workersUser); ok {
			u.SetWorkers(workers)
		}
	}
}
