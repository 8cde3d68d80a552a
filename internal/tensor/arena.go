package tensor

// Arena is a bump allocator for the evaluation hot path. It hands out
// tensors and float slices carved from large reusable chunks; Reset rewinds
// the arena so the next execution pass re-carves the exact same sequence of
// buffers from the same memory. Because the allocation sequence of a compiled
// evaluation plan is deterministic for a fixed batch shape, an arena reaches
// a fixed point after one warm-up pass and every subsequent pass performs
// zero heap allocations: chunks, tensor headers and shape slices are all
// reused in place.
//
// Besides that per-pass scratch, an arena keeps a second region for buffers
// that must outlive Reset (Keep): an evaluation binding's checkpoints and
// state snapshot. ResetKept rewinds it, so a pooled arena lends the same
// memory to each binding it serves in turn. Training passes carve their
// outputs, caches and derivatives from the same per-pass scratch, and their
// index tables (pool argmaxes, the convolution walk's offsets) from AllocInts,
// which Reset rewinds with it.
//
// An Arena is not safe for concurrent use; the evaluation engine keeps one
// arena per Monte-Carlo worker. Buffers returned by Alloc/AllocFloats are
// valid only until the next Reset and are NOT zeroed — callers must fully
// define every element they read back.
type Arena struct {
	scratch region[float64]
	kept    region[float64]
	ints    region[int]
	epoch   uint64 // bumped by every ResetKept

	headers []*Tensor
	hi      int // next header to hand out

	chunkSize int
}

// region is one bump-allocated sequence of reusable chunks.
type region[T any] struct {
	chunks [][]T
	ci     int // current chunk index
	off    int // carve offset within chunks[ci]
}

// alloc carves n float64s, appending a chunk of at least size floats when
// no remaining chunk fits.
func (r *region[T]) alloc(n, size int) []T {
	if n < 0 {
		panic("tensor: negative arena allocation")
	}
	for r.ci < len(r.chunks) && r.off+n > len(r.chunks[r.ci]) {
		r.ci++
		r.off = 0
	}
	if r.ci == len(r.chunks) {
		if n > size {
			size = n
		}
		r.chunks = append(r.chunks, make([]T, size))
	}
	s := r.chunks[r.ci][r.off : r.off+n : r.off+n]
	r.off += n
	return s
}

func (r *region[T]) footprint() int {
	total := 0
	for _, c := range r.chunks {
		total += len(c)
	}
	return total
}

// defaultChunk is the minimum chunk size in float64s (512 KiB).
const defaultChunk = 1 << 16

// NewArena returns an empty arena. Chunks are allocated on demand and kept
// across Reset.
func NewArena() *Arena { return &Arena{chunkSize: defaultChunk} }

// Reset rewinds the arena's scratch: every buffer previously handed out by
// Alloc, AllocFloats or AllocInts is invalidated and the backing memory
// becomes available for re-carving. Kept buffers are untouched. No memory
// is released.
func (a *Arena) Reset() {
	a.scratch.ci, a.scratch.off, a.hi = 0, 0, 0
	a.ints.ci, a.ints.off = 0, 0
}

// AllocFloats carves a float64 slice of length n. The slice is not zeroed.
func (a *Arena) AllocFloats(n int) []float64 { return a.scratch.alloc(n, a.chunkSize) }

// AllocInts carves an int slice of length n, valid until the next Reset.
// The slice is not zeroed.
func (a *Arena) AllocInts(n int) []int { return a.ints.alloc(n, a.chunkSize) }

// Keep carves n float64s that outlive Reset: they stay valid until the next
// ResetKept. The slice is not zeroed.
func (a *Arena) Keep(n int) []float64 { return a.kept.alloc(n, a.chunkSize) }

// ResetKept rewinds the kept region, invalidating every slice Keep handed
// out, and returns the region's new epoch. No memory is released.
func (a *Arena) ResetKept() uint64 {
	a.kept.ci, a.kept.off = 0, 0
	a.epoch++
	return a.epoch
}

// KeptEpoch returns the kept region's current epoch: a holder of kept
// slices whose epoch differs has lost them to a later ResetKept.
func (a *Arena) KeptEpoch() uint64 { return a.epoch }

// Alloc carves a tensor with the given shape. The tensor header, its shape
// slice and its data all come from arena-owned memory reused across Reset;
// the data is not zeroed.
func (a *Arena) Alloc(shape ...int) *Tensor {
	t, n := a.header(shape)
	t.Data = a.AllocFloats(n)
	return t
}

// View returns a tensor with the given shape over data, which must hold
// exactly as many elements: a reshape whose header, like Alloc's, is
// arena-owned and reused after Reset. The data is shared, not copied.
func (a *Arena) View(data []float64, shape ...int) *Tensor {
	t, n := a.header(shape)
	if n != len(data) {
		panic("tensor: arena view changes the element count")
	}
	t.Data = data
	return t
}

// header hands out the next arena-owned tensor header with its shape set,
// and the shape's element count; the caller sets Data.
func (a *Arena) header(shape []int) (*Tensor, int) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: non-positive dim in arena allocation")
		}
		n *= d
	}
	var t *Tensor
	if a.hi < len(a.headers) {
		t = a.headers[a.hi]
	} else {
		t = &Tensor{}
		a.headers = append(a.headers, t)
	}
	a.hi++
	t.Shape = append(t.Shape[:0], shape...)
	return t, n
}

// ScratchFloats carves n float64s from a, falling back to the heap when a is
// nil — the shared arena-or-heap pattern of the ForwardInto implementations
// (a nil arena is the legacy, non-plan path).
func ScratchFloats(a *Arena, n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.AllocFloats(n)
}

// Footprint returns the total capacity, in 8-byte words, currently held by
// the arena's scratch, kept and int regions together, for diagnostics and
// memory accounting.
func (a *Arena) Footprint() int {
	return a.scratch.footprint() + a.kept.footprint() + a.ints.footprint()
}
