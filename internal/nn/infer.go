// Inference hot path: a zero-alloc forward pass over one whole input,
// which the codec runs once per chunk.
//
// Bit-identity across passes is load-bearing (compressed streams embed
// the predictions), so every kernel here keeps one per-element contract: a
// float64 accumulator starts at the bias, adds each tap's product in
// ascending (inChannel, kz, ki, kj) order over the taps inside the input,
// and is rounded once to float32. Every operand of a product is
// float32-exact (activations by the invariant below, weights because
// they are widened float32 parameters), and two 24-bit significands
// multiply into at most 48 bits, so every product is exact in float64:
// rounding the product and then the sum, and rounding acc + w·x once in a
// fused multiply-add, give the same bits. The SIMD kernels therefore fuse
// each tap into one FMA, while the pure-Go loops keep the products in
// explicit conversions (a separate rounding, on every architecture's
// compiler). The pure-Go loops, the AVX2 kernels and the AVX-512 kernels
// all keep the contract, so they agree bit for bit; vector lanes are
// distinct output elements, which is why the vector width changes no
// result.
//
// Activations are float64 from end to end (Act), and every value they
// hold is float32-exact: a layer rounds each result to float32, then
// stores it widened, which is lossless. The caller widens the network
// input once when it builds it (InferInput) and narrows the output once,
// so no layer converts its input and the kernels read their operands
// directly. Element-wise steps keep their float32 arithmetic on the
// rounded values:
//
//   - a ReLU that follows a convolution is folded into that
//     convolution's store (Sequential.Infer): each result is rounded to
//     float32, then clamped branchlessly, so NaN, −0 and negatives store
//     +0, exactly what the separate ReLU pass would compute;
//   - channel attention pools and rescales one channel per work item on
//     the workers; the rescale is a float32 multiply, and the shared MLP
//     and its sigmoid (a portable exp, see exp.go) run serially, once.
//
// Three drivers implement the convolutions, the same on every kernel
// tier:
//
//   - convPadded runs every 3×3 and 3×3×3 convolution, dense or
//     depthwise; a 2D map is one plane with a one-tap depth kernel. A
//     work item is one band of up to padRows rows of a plane, for every
//     output channel. For each input channel the worker copies that band
//     of the (up to three) planes the kz taps read into a local buffer
//     with a one-element zero border. Then, per kz, it adds the nine taps
//     over the whole flattened padded band into the output channels'
//     accumulator bands: on the AVX-512 tier one tap9z3 call per triple
//     of output channels, so one input load feeds three accumulators, and
//     one tap9Rows call (tap9z, tap9 or its Go loop) per leftover or
//     depthwise channel. Last it stores each row through storeRow. The
//     border's zeros stand in for the taps convDirect clips, which
//     changes no bit unless a bias is −0 or a weight is not finite
//     (padSafe).
//   - convDirect runs every other layer that is not a dense 1×1 one:
//     kernel sizes other than 1 and 3, depthwise 1×1 layers and layers
//     padSafe rejects. It is a scalar per-element loop over the taps
//     inside the input, and the reference convPadded is tested against.
//   - pointwiseConv runs every dense 1×1 convolution, 2D or 3D, over the
//     flattened spatial volume: work items are (strip of pwStrip elements
//     × output channel), and the SIMD kernels (pointwise/pointwisez) keep
//     the accumulators in registers across all input channels and store
//     the rounded (and, when folded, clamped) results directly.
//
// Training runs on the same kernels: a layer's Forward is its Infer, and
// the input gradient of a convolution is another convolution (see
// convBackward), so it runs on these drivers too. Work is dispatched
// across contiguous ranges of work items when workers > 1.
package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
)

// maxActRank bounds an activation's rank: (C, D, H, W) for 3D networks.
const maxActRank = 4

// Act is a channel-major float64 activation, (C, H, W) or (C, D, H, W),
// whose values are all float32-exact. It is a value type: copying it
// copies the header, not the data. Callers get one from Arena.Act or
// Sequential.InferInput.
type Act struct {
	Data  []float64
	shape [maxActRank]int
	rank  int
}

// newAct wraps data as an activation of the given shape. It panics on a
// rank above 4 or a shape whose volume is not len(data): both are caller
// bugs, as for tensor.New.
func newAct(data []float64, shape ...int) Act {
	if len(shape) == 0 || len(shape) > maxActRank {
		panic(fmt.Sprintf("nn: activation rank %d outside [1, %d]", len(shape), maxActRank))
	}
	x := Act{Data: data, rank: len(shape)}
	vol := 1
	for i, d := range shape {
		x.shape[i] = d
		vol *= d
	}
	if vol != len(data) {
		panic(fmt.Sprintf("nn: activation shape volume %d != data length %d", vol, len(data)))
	}
	return x
}

// Rank returns the number of dimensions.
func (x Act) Rank() int { return x.rank }

// Dim returns the size of dimension i.
func (x Act) Dim(i int) int { return x.shape[i] }

// Shape returns a copy of the dimensions.
func (x Act) Shape() []int { return append([]int(nil), x.shape[:x.rank]...) }

// convLayer is implemented by the convolutions: infer is their Infer
// with a following ReLU folded into the store when relu is set.
type convLayer interface {
	infer(x Act, dstKey string, a *Arena, workers int, relu bool) (Act, error)
}

// inferKeys are the arena buffers Sequential.Infer ping-pongs between.
var inferKeys = [2]string{"seq.ping", "seq.pong"}

// InferInput returns an arena activation of the given shape for the
// caller to build an Infer input in. It lives in the ping-pong buffer the
// pass's first output does not use, so the input needs no buffer of its
// own; the pass overwrites it. Both buffers are reserved here at the
// widest activation the pass writes, so a fresh arena allocates each once.
func (s *Sequential) InferInput(a *Arena, shape ...int) Act {
	vol := s.widest(shape[0])
	for _, d := range shape[1:] {
		vol *= d
	}
	for _, k := range inferKeys {
		a.F64(k, vol)
	}
	return a.Act(inferKeys[1], shape...)
}

// widest returns the most channels an activation of a pass over c input
// channels holds. Only convolutions change the channel count.
func (s *Sequential) widest(c int) int {
	for _, l := range s.Layers {
		switch l := l.(type) {
		case *Conv:
			c = max(c, l.OutC)
		case *Depthwise:
			c = max(c, l.C)
		}
	}
	return c
}

// Infer runs the layer stack with the fast inference path, threading the
// arena's ping-pong buffers through the layers and folding every ReLU
// that follows a convolution into that convolution's store.
//
// The returned activation is arena-owned: valid until the arena's next
// use. Infer may also use x itself as scratch.
func (s *Sequential) Infer(x Act, a *Arena, workers int) (Act, error) {
	if a == nil {
		a = NewArena()
	}
	if workers < 1 {
		workers = parallel.Workers()
	}
	next := 0
	for i := 0; i < len(s.Layers); i++ {
		l := s.Layers[i]
		var y Act
		var err error
		fold := false
		if cl, ok := l.(convLayer); ok {
			if i+1 < len(s.Layers) {
				_, fold = s.Layers[i+1].(*ReLU)
			}
			y, err = cl.infer(x, inferKeys[next], a, workers, fold)
		} else {
			y, err = l.Infer(x, inferKeys[next], a, workers)
		}
		if err != nil {
			return Act{}, fmt.Errorf("nn: layer %d (%s): %w", i, l.Name(), err)
		}
		if fold {
			i++ // the ReLU ran in the convolution's store
		}
		if !sameBuffer(x.Data, y.Data) {
			next = 1 - next
		}
		x = y
	}
	return x, nil
}

// sameBuffer reports whether two non-empty slices start at one address.
func sameBuffer(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// clampWorkers bounds the worker count by the number of work items.
func clampWorkers(workers, n int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// dispatchScratch runs fn over [0, n) work items. Serial when workers <= 1
// (the zero-alloc path); otherwise contiguous ranges fan out across
// goroutines, each with its own rowLen-sized slice of scratch.
func dispatchScratch(workers, n, rowLen int, scratch []float64, fn func(lo, hi int, acc []float64)) {
	if workers <= 1 {
		fn(0, n, scratch[:rowLen])
		return
	}
	var wg sync.WaitGroup
	step := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * step
		hi := lo + step
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int, acc []float64) {
			defer wg.Done()
			fn(lo, hi, acc)
		}(lo, hi, scratch[w*rowLen:(w+1)*rowLen])
	}
	wg.Wait()
}

// toF64 widens a float32 slice into dst exactly and returns dst. Layers
// widen their weights with it once per pass; activations arrive widened.
func toF64(dst []float64, src []float32) []float64 {
	for i, v := range src {
		dst[i] = float64(v)
	}
	return dst
}

// fillAcc sets every accumulator of a row to bias.
func fillAcc(acc []float64, bias float64) {
	if haveTap9 && len(acc) >= 4 {
		fillRow(&acc[0], bias, len(acc))
		return
	}
	for j := range acc {
		acc[j] = bias
	}
}

// storeRow rounds each accumulator to float32 and stores it widened into
// dst, through relu32 when a ReLU is folded into the store.
func storeRow(dst, acc []float64, relu bool) {
	dst = dst[:len(acc)]
	if haveTap9 && len(acc) >= 4 {
		roundRow(&dst[0], &acc[0], len(acc), relu)
		return
	}
	if relu {
		for j, v := range acc {
			dst[j] = relu32(float32(v))
		}
		return
	}
	for j, v := range acc {
		dst[j] = float64(float32(v))
	}
}

// relu32 is ReLU on a float32 value, widened. The clamp is branchless —
// the sign of post-conv activations is close to a coin flip, so a branch
// mispredicts constantly. The keep condition v > 0 is exactly the bit
// condition 1 <= bits <= +Inf; both operand checks fold into one sign OR,
// giving an all-ones/all-zero mask. NaN, −0 and negative inputs map to +0.
func relu32(v float32) float64 {
	const posInf = 0x7F800000
	u := int64(math.Float32bits(v))
	mask := ^(((u - 1) | (posInf - u)) >> 63)
	return float64(math.Float32frombits(uint32(u & mask)))
}

// tap9Rows adds the nine taps wr of one 3×3 bundle into acc[j] for j in
// [lo, hi), reading xd[r0+j..r0+j+2], xd[r1+j..] and xd[r2+j..] in
// ascending (ki, kj) order.
func tap9Rows(acc, xd, wr []float64, r0, r1, r2, lo, hi int) {
	if haveTap9Z && hi-lo >= 8 {
		// AVX-512 fast path: identical tap order and rounding, eight
		// output elements per vector and a masked tail (see
		// tap_amd64.s).
		tap9z(&acc[lo], &xd[r0+lo], &xd[r1+lo], &xd[r2+lo], &wr[0], hi-lo)
		return
	}
	if haveTap9 && hi-lo >= 4 {
		// AVX2 fast path: identical tap order and rounding, four
		// output elements per vector (see tap_amd64.s).
		tap9(&acc[lo], &xd[r0+lo], &xd[r1+lo], &xd[r2+lo], &wr[0], hi-lo)
		return
	}
	w00, w01, w02 := wr[0], wr[1], wr[2]
	w10, w11, w12 := wr[3], wr[4], wr[5]
	w20, w21, w22 := wr[6], wr[7], wr[8]
	// Two elements per iteration: each accumulator is a serial dependency
	// chain of nine adds, so interleaving two independent chains doubles
	// the instruction-level parallelism the core can extract. Element-wise
	// order is untouched.
	j := lo
	for ; j+2 <= hi; j += 2 {
		a := acc[j]
		b := acc[j+1]
		x0, x1, x2, x3 := xd[r0+j], xd[r0+j+1], xd[r0+j+2], xd[r0+j+3]
		a += float64(w00 * x0)
		b += float64(w00 * x1)
		a += float64(w01 * x1)
		b += float64(w01 * x2)
		a += float64(w02 * x2)
		b += float64(w02 * x3)
		x0, x1, x2, x3 = xd[r1+j], xd[r1+j+1], xd[r1+j+2], xd[r1+j+3]
		a += float64(w10 * x0)
		b += float64(w10 * x1)
		a += float64(w11 * x1)
		b += float64(w11 * x2)
		a += float64(w12 * x2)
		b += float64(w12 * x3)
		x0, x1, x2, x3 = xd[r2+j], xd[r2+j+1], xd[r2+j+2], xd[r2+j+3]
		a += float64(w20 * x0)
		b += float64(w20 * x1)
		a += float64(w21 * x1)
		b += float64(w21 * x2)
		a += float64(w22 * x2)
		b += float64(w22 * x3)
		acc[j] = a
		acc[j+1] = b
	}
	for ; j < hi; j++ {
		a := acc[j]
		a += float64(w00 * xd[r0+j])
		a += float64(w01 * xd[r0+j+1])
		a += float64(w02 * xd[r0+j+2])
		a += float64(w10 * xd[r1+j])
		a += float64(w11 * xd[r1+j+1])
		a += float64(w12 * xd[r1+j+2])
		a += float64(w20 * xd[r2+j])
		a += float64(w21 * xd[r2+j+1])
		a += float64(w22 * xd[r2+j+2])
		acc[j] = a
	}
}

// padSafe reports whether a 3×3 layer may run on convPadded: adding a
// padded tap's w·(+0) = ±0 leaves every accumulator but −0 unchanged,
// and an accumulator that starts at a bias other than −0 never becomes
// −0, so the padded taps change no bit unless a bias is −0 or a weight
// is not finite (Inf·0 is NaN). A loaded model may carry either, so such
// a layer runs on convDirect.
func padSafe(wd []float64, bd []float32) bool {
	for _, b := range bd {
		if math.Float32bits(b) == 1<<31 {
			return false
		}
	}
	for _, w := range wd {
		if math.IsInf(w, 0) || math.IsNaN(w) {
			return false
		}
	}
	return true
}

// padRows is the height of convPadded's row bands. A band of 16 rows
// keeps each tap9Rows call long (16 padded rows) while a worker's scratch
// stays under a MiB at the CFNN's widths, whatever the plane size: the
// scratch is allocated per inference pass, so it adds to every cold
// decode's memory.
const padRows = 16

// padScratchLen is the per-worker scratch of convPadded: kd zero-bordered
// band planes of (R+2)×(W+2), then accC R×(W+2) accumulator bands (one
// per output channel of a dense layer, one for a depthwise layer), where
// R = min(H, padRows).
func padScratchLen(kd, accC, H, W int) int {
	r := min(H, padRows)
	return (kd*(r+2) + accC*r) * (W + 2)
}

// convPadded computes work items [lo, hi) of a 3×3 or 3×3×3 convolution,
// dense or depthwise, over zero-padded row bands. Item t is band t%nb of
// plane t/nb, for every output channel, where band b is rows
// [b·padRows, min(H, (b+1)·padRows)) and nb = ⌈H/padRows⌉. For each input
// channel it copies the band's rows, plus one halo row above and below,
// of the (up to kd) planes the kz taps read into buf with a one-element
// zero border; a halo row outside [0, H) is zeros. It then adds each
// kz's nine taps to every output channel's accumulator band in one
// tap9Rows call over n = r·(W+2)−2 elements for a band of r rows: reading
// the flattened padded band at offsets 0, W+2 and 2(W+2) gives every
// element its nine neighbours, and the two wrapped columns after each
// row are never stored. Each output still adds its taps in ascending
// (input channel, kz, ki, kj) order, and the taps convDirect skips read
// zeros, so when padSafe holds the result is convDirect's bit for bit.
// On the AVX-512 tier output channels go three to a tap9z3 call and the
// leftovers to tap9Rows. A depthwise layer runs each channel as a
// one-channel dense one.
func convPadded(od, xd, wd []float64, bd []float32, s convShape, buf []float64, lo, hi int) {
	W, hw := s.W, s.H*s.W
	vol, ws, nb := s.D*hw, W+2, (s.H+padRows-1)/padRows
	R, pz, taps := min(s.H, padRows), s.kd/2, s.kd*9
	p2, ap := (R+2)*ws, R*ws
	slots := buf[:s.kd*p2]
	clear(slots)
	groups, accC, inPer := 1, s.outC, s.inPer()
	if s.depthwise {
		groups, accC = s.outC, 1
	}
	accs := buf[s.kd*p2 : s.kd*p2+accC*ap]
	for t := lo; t < hi; t++ {
		z, i0 := t/nb, t%nb*padRows
		r := min(padRows, s.H-i0)
		n := r*ws - 2
		kz0, kz1 := kernelRange(z, s.D, s.kd, pz)
		for g := 0; g < groups; g++ {
			oc0, ic0 := g*accC, g*inPer
			for o := 0; o < accC; o++ {
				fillAcc(accs[o*ap:o*ap+n], float64(bd[oc0+o]))
			}
			for ic := ic0; ic < ic0+inPer; ic++ {
				for kz := kz0; kz < kz1; kz++ {
					pl, src := slots[kz*p2:], xd[ic*vol+(z+kz-pz)*hw:]
					for pr := 0; pr < r+2; pr++ {
						row := pl[pr*ws+1 : pr*ws+1+W]
						if i := i0 + pr - 1; i >= 0 && i < s.H {
							copy(row, src[i*W:(i+1)*W])
						} else {
							clear(row)
						}
					}
				}
				for kz := kz0; kz < kz1; kz++ {
					o := 0
					if haveTap9Z {
						// Three output channels per call, so one input
						// load feeds three accumulators.
						for ; o+3 <= accC; o += 3 {
							w := ((oc0+o)*inPer+ic-ic0)*taps + kz*9
							_, _ = accs[(o+2)*ap+n-1], wd[w+2*inPer*taps+8]
							tap9z3(&accs[o*ap], &slots[kz*p2], &wd[w], ap, ws, inPer*taps, n)
						}
					}
					for ; o < accC; o++ {
						w := ((oc0+o)*inPer+ic-ic0)*taps + kz*9
						tap9Rows(accs[o*ap:], slots[kz*p2:], wd[w:w+9], 0, ws, 2*ws, 0, n)
					}
				}
			}
			for o := 0; o < accC; o++ {
				dst := od[(oc0+o)*vol+z*hw+i0*W:]
				for i := 0; i < r; i++ {
					storeRow(dst[i*W:], accs[o*ap+i*ws:o*ap+i*ws+W], s.relu)
				}
			}
		}
	}
}

// pwStrip is the element count of one pointwise work item: long enough
// that a kernel call amortizes its setup over many register blocks,
// short enough that a strip's inC input rows stay cache-resident while
// every output channel reads them.
const pwStrip = 512

// pointwiseConv runs a 1×1 convolution of xd (inC channels of n
// elements, any spatial rank flattened) into od on up to workers
// goroutines.
func pointwiseConv(od, xd, wd []float64, bd []float32, inC, outC, n int, relu bool, workers int) {
	items := (n + pwStrip - 1) / pwStrip * outC
	if eff := clampWorkers(workers, items); eff <= 1 {
		pointwiseItems(od, xd, wd, bd, inC, outC, n, relu, 0, items)
	} else {
		parallel.ForRangeWith(eff, items, func(lo, hi int) {
			pointwiseItems(od, xd, wd, bd, inC, outC, n, relu, lo, hi)
		})
	}
}

// pointwiseItems computes work items [lo, hi) of pointwiseConv. Item t is
// output channel t%outC over strip t/outC, so consecutive items reuse one
// strip of input rows.
func pointwiseItems(od, xd, wd []float64, bd []float32, inC, outC, n int, relu bool, lo, hi int) {
	for t := lo; t < hi; t++ {
		s, oc := t/outC, t%outC
		j0 := s * pwStrip
		m := min(pwStrip, n-j0)
		dst := od[oc*n+j0 : oc*n+j0+m]
		x := xd[j0 : (inC-1)*n+j0+m]
		w := wd[oc*inC : (oc+1)*inC]
		bias := float64(bd[oc])
		switch {
		case haveTap9Z:
			pointwisez(&dst[0], &x[0], &w[0], bias, inC, n, m, relu)
		case haveTap9:
			pointwise(&dst[0], &x[0], &w[0], bias, inC, n, m, relu)
		default:
			pointwiseGo(dst, x, w, bias, n, relu)
		}
	}
}

// pointwiseGo is the pure-Go pointwise strip, the reference the SIMD
// kernels match bit for bit: acc starts at bias and adds
// w[ic]*x[ic*stride+j] for ic ascending, and storeRow rounds (and, with
// relu, clamps) it into dst[j]. len(dst) <= pwStrip.
func pointwiseGo(dst, x, w []float64, bias float64, stride int, relu bool) {
	var buf [pwStrip]float64
	acc := buf[:len(dst)]
	for j := range acc {
		acc[j] = bias
	}
	for ic, wv := range w {
		for j, xv := range x[ic*stride : ic*stride+len(acc)] {
			acc[j] += float64(wv * xv)
		}
	}
	storeRow(dst, acc, relu)
}

// Infer implements Layer. Pooling and the rescale run one channel per
// work item on the workers; the shared MLP and the sigmoid between them,
// C×hidden multiply-adds, run serially.
func (at *ChannelAttention) Infer(x Act, _ string, a *Arena, workers int) (Act, error) {
	if x.Rank() < 2 || x.Dim(0) != at.C {
		return Act{}, fmt.Errorf("nn: channel attention wants (%d, spatial...), got %v", at.C, x.Shape())
	}
	C, xd := at.C, x.Data
	spatial := len(xd) / C
	avg := a.F64("attn.avg", C)
	mx := a.F64("attn.mx", C)
	eff := clampWorkers(workers, C)
	if eff <= 1 {
		attnPool(xd, avg, mx, spatial, 0, C)
	} else {
		parallel.ForRangeWith(eff, C, func(lo, hi int) {
			attnPool(xd, avg, mx, spatial, lo, hi)
		})
	}
	h1 := a.F64("attn.h1", at.Hidden())
	za := a.F64("attn.za", C)
	zb := a.F64("attn.zb", C)
	at.mlpInto(avg, h1, za)
	at.mlpInto(mx, h1, zb)
	for c := range za {
		za[c] = float64(float32(sigmoid(za[c] + zb[c])))
	}
	if eff <= 1 {
		attnScale(xd, za, spatial, 0, C)
	} else {
		parallel.ForRangeWith(eff, C, func(lo, hi int) {
			attnScale(xd, za, spatial, lo, hi)
		})
	}
	return x, nil
}

// attnPool computes the average and max of channels [lo, hi) of xd, each
// of spatial elements.
func attnPool(xd, avg, mx []float64, spatial, lo, hi int) {
	for c := lo; c < hi; c++ {
		ch := xd[c*spatial : (c+1)*spatial]
		sum := 0.0
		best := math.Inf(-1)
		for _, v := range ch {
			sum += v
			if v > best {
				best = v
			}
		}
		avg[c] = sum / float64(spatial)
		mx[c] = best
	}
}

// attnScale multiplies channels [lo, hi) of xd (laid out as in attnPool)
// by their float32 attention weights wts, in float32 arithmetic.
func attnScale(xd, wts []float64, spatial, lo, hi int) {
	for c := lo; c < hi; c++ {
		ch := xd[c*spatial : (c+1)*spatial]
		w := float32(wts[c])
		for i, v := range ch {
			ch[i] = float64(float32(v) * w)
		}
	}
}
