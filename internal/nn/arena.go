package nn

import (
	"repro/internal/tensor"
)

// Arena is a reusable scratch-memory pool for repeated inference. Every
// buffer — float32 tensor storage, float64 activations and accumulator
// rows, and the tensor headers themselves — is keyed by a caller-chosen
// constant string and grown once, so a steady-state inference pass that
// threads one Arena through Sequential.Infer (or cfnn's PredictDiffsWith)
// performs zero heap allocations after warmup.
//
// An Arena is NOT safe for concurrent use: it is mutable scratch owned by
// exactly one inference pass at a time. Concurrent inference on a shared
// (read-only) model is supported by giving each goroutine its own Arena.
// Tensors returned by Arena methods are valid until the same key is
// requested again; callers that need results to outlive the next pass must
// copy them out.
type Arena struct {
	bufs map[string]*arenaBuf
	f64s map[string][]float64
	ptrs map[string][]*tensor.Tensor
}

// arenaBuf is one named float32 buffer plus the cached tensor headers that
// wrap it (one per shape it has been requested with).
type arenaBuf struct {
	data    []float32
	headers []*tensor.Tensor
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{
		bufs: make(map[string]*arenaBuf),
		f64s: make(map[string][]float64),
		ptrs: make(map[string][]*tensor.Tensor),
	}
}

// Tensor returns a scratch tensor of the given shape backed by the named
// buffer. Contents are unspecified (previous uses leak through); callers
// must fully overwrite the data they read back. Distinct shapes under one
// key share storage, so only the most recent request's contents are
// meaningful.
func (a *Arena) Tensor(key string, shape ...int) *tensor.Tensor {
	b := a.bufs[key]
	if b == nil {
		b = &arenaBuf{}
		a.bufs[key] = b
	}
	vol := 1
	for _, d := range shape {
		vol *= d
	}
	if vol > len(b.data) {
		b.data = make([]float32, vol)
		b.headers = b.headers[:0]
	}
	for _, h := range b.headers {
		if h.Len() == vol && shapeEq(h, shape...) {
			return h
		}
	}
	// Miss path (warmup only): hand FromSlice an owned copy of the shape so
	// the caller's variadic slice never escapes — hot-path calls with
	// literal dimensions then stay allocation-free.
	owned := make([]int, len(shape))
	copy(owned, shape)
	t, err := tensor.FromSlice(b.data[:vol], owned...)
	if err != nil {
		panic(err) // invalid shapes are caller bugs, as for tensor.New
	}
	b.headers = append(b.headers, t)
	return t
}

// F64 returns a float64 scratch slice of length n under the given key.
// Contents are unspecified.
func (a *Arena) F64(key string, n int) []float64 {
	s := a.f64s[key]
	if cap(s) < n {
		s = make([]float64, n)
		a.f64s[key] = s
		return s
	}
	return s[:n]
}

// Tensors returns a []*tensor.Tensor scratch slice of length n under the
// given key. Contents are unspecified.
func (a *Arena) Tensors(key string, n int) []*tensor.Tensor {
	s := a.ptrs[key]
	if cap(s) < n {
		s = make([]*tensor.Tensor, n)
		a.ptrs[key] = s
		return s
	}
	return s[:n]
}

// Act returns a scratch activation of the given shape backed by the named
// float64 buffer (see F64). Contents are unspecified.
func (a *Arena) Act(key string, shape ...int) Act {
	vol := 1
	for _, d := range shape {
		vol *= d
	}
	return newAct(a.F64(key, vol), shape...)
}

// actLike returns a scratch activation of c channels over x's spatial
// shape, under the given key.
func (a *Arena) actLike(key string, c int, x Act) Act {
	shape := x.shape
	shape[0] = c
	return a.Act(key, shape[:x.rank]...)
}
