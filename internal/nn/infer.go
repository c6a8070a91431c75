// Inference hot path: a zero-alloc, optionally *segmented* forward pass.
//
// Segmentation is what lets the chunked compression engine run CFNN
// inference once per field instead of once per chunk: the leading spatial
// axis (rows for 2D feature maps, z-planes for 3D) is partitioned into
// slabs, and every layer treats each slab boundary exactly as it would a
// field boundary — convolutions zero-pad at segment edges, channel
// attention pools per segment. The segmented output is therefore
// bit-identical to running the plain Forward pass on each slab
// independently, laid out contiguously, while sharing one pass over the
// weights, one set of scratch buffers, and one parallel dispatch.
//
// Bit-identity with Forward is load-bearing (compressed streams embed the
// predictions), so every kernel here keeps one per-element contract: a
// float64 accumulator starts at the bias, adds each tap's product in
// ascending (inChannel, kz, ki, kj) order over the taps inside the
// segment, with a separate rounding for the multiply and the add (never a
// fused multiply-add; the products sit in explicit conversions so no
// architecture's compiler fuses them), and is rounded once to float32.
// The pure-Go loops, the AVX2 kernels and the AVX-512 kernels all keep
// it, so they agree bit for bit; vector lanes are distinct output
// elements, which is why the vector width changes no result.
//
// Three kernel families implement it:
//
//   - tapRows adds a bundle of K-tap rows into a float64 accumulator row,
//     the 3×3 interior in one register pass (tap9/tap9z); conv2dRows and
//     conv3dPlanes drive it per (output channel, row or plane).
//   - Depthwise convolutions run each channel as a one-channel
//     conv2dRows/conv3dPlanes on that channel's slices.
//   - pointwiseConv runs every 1×1 convolution, 2D or 3D, over the
//     flattened spatial volume: work items are (strip of pwStrip elements
//     × output channel), and the SIMD kernels (pointwise/pointwisez) keep
//     the accumulators in registers across all input channels and store
//     float32 results directly.
//
// Conv2D and Conv3D use the same kernels in Forward, so training and
// inference agree by construction. Work is dispatched across contiguous
// ranges of work items when workers > 1.
package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// InferLayer is implemented by layers that support the fast inference
// path. Infer computes the same output as Forward but
//
//   - caches no backward state, and mutates no layer state at all, so one
//     model can run concurrent inference from many goroutines as long as
//     each uses its own Arena;
//   - draws all scratch (including the output tensor) from the Arena, so
//     steady-state passes allocate nothing;
//   - honors segment boundaries along the leading spatial axis: segLo/segHi
//     map each plane index to its segment's [lo, hi) bounds (nil means one
//     segment spanning the whole axis).
//
// Element-wise layers may compute in place and return x itself; layers
// that produce a new tensor take it from the arena under dstKey, which the
// caller guarantees is not x's backing buffer. Parallel kernels use up to
// `workers` goroutines (<= 1 means serial, which is also the zero-alloc
// mode — parallel dispatch inherently allocates goroutine frames).
type InferLayer interface {
	Infer(x *tensor.Tensor, dstKey string, segLo, segHi []int, a *Arena, workers int) (*tensor.Tensor, error)
}

// Infer runs the layer stack with the fast inference path, threading the
// arena's ping-pong buffers through the layers. segCounts partitions the
// leading spatial axis (dimension 1 of the channel-major input) into
// segments processed as independent fields; nil or a single count means
// the whole axis. Layers that do not implement InferLayer fall back to
// Forward — correct only unsegmented, so segmented inference over such a
// layer is an error rather than a silent halo break.
//
// The returned tensor is arena-owned: valid until the arena's next use.
// Infer may also use x itself as scratch for element-wise layers.
func (s *Sequential) Infer(x *tensor.Tensor, segCounts []int, a *Arena, workers int) (*tensor.Tensor, error) {
	if a == nil {
		a = NewArena()
	}
	if workers < 1 {
		workers = parallel.Workers()
	}
	var segLo, segHi []int
	if len(segCounts) > 1 {
		if x.Rank() < 2 {
			return nil, fmt.Errorf("nn: segmented inference needs a (C, spatial...) input, got %v", x.Shape())
		}
		n := x.Dim(1)
		segLo = a.Ints("seq.seglo", n)
		segHi = a.Ints("seq.seghi", n)
		pos := 0
		for _, c := range segCounts {
			if c <= 0 || pos+c > n {
				return nil, fmt.Errorf("nn: segment counts %v do not partition axis of length %d", segCounts, n)
			}
			for z := pos; z < pos+c; z++ {
				segLo[z], segHi[z] = pos, pos+c
			}
			pos += c
		}
		if pos != n {
			return nil, fmt.Errorf("nn: segment counts %v sum to %d, axis is %d", segCounts, pos, n)
		}
	}
	keys := [2]string{"seq.ping", "seq.pong"}
	next := 0
	for i, nl := range s.Layers {
		il, ok := nl.Layer.(InferLayer)
		if !ok {
			if segLo != nil {
				return nil, fmt.Errorf("nn: layer %d (%s) does not support segmented inference", i, nl.Layer.Name())
			}
			y, err := nl.Layer.Forward(x)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d (%s): %w", i, nl.Layer.Name(), err)
			}
			x = y
			continue
		}
		y, err := il.Infer(x, keys[next], segLo, segHi, a, workers)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, nl.Layer.Name(), err)
		}
		if y != x {
			next = 1 - next
		}
		x = y
	}
	return x, nil
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

// segBounds returns the segment [lo, hi) containing plane i (the whole
// [0, n) axis when unsegmented).
func segBounds(i, n int, segLo, segHi []int) (int, int) {
	if segLo == nil {
		return 0, n
	}
	return segLo[i], segHi[i]
}

// toF64 widens a float32 slice into dst exactly (float32 → float64 is
// lossless, so pre-widening inputs and weights once per layer changes no
// result bits while halving the FP-port pressure of the inner loops).
func toF64(dst []float64, src []float32) {
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// tapRows accumulates a bundle of kernel tap-rows into the accumulator
// row: for every output element j it adds, for each height-axis tap ki in
// [ki0, ki1), the K width-axis taps of weight row wd[wrowBase+ki*K:] read
// against input row xd[xrowBase+ki*rowStride+j+kj] — in ascending (ki, kj)
// order, exactly the order the reference per-element loop uses, so results
// are bit-identical. Interior elements ([p, W-p)) take all their taps in
// one fused register pass (one accumulator load/store per ki-bundle — the
// halo branch hoisted out of the inner loop); edge elements fall back to
// the clamped per-element loop. The dominant 3×3 case runs with all nine
// weights preloaded.
func tapRows(acc []float64, xd, wd []float64, wrowBase, xrowBase, rowStride, ki0, ki1, W, K, p int) {
	lo := p
	if lo > W {
		lo = W
	}
	hi := W - p
	if hi < lo {
		hi = lo
	}
	for j := 0; j < lo; j++ { // left halo
		kj0, kj1 := kernelRange(j, W, K, p)
		a := acc[j]
		for ki := ki0; ki < ki1; ki++ {
			wrow := wrowBase + ki*K
			xrow := xrowBase + ki*rowStride + j
			for kj := kj0; kj < kj1; kj++ {
				a += float64(wd[wrow+kj] * xd[xrow+kj])
			}
		}
		acc[j] = a
	}
	if K == 3 && ki1-ki0 == 3 {
		wr := wd[wrowBase+ki0*3 : wrowBase+ki0*3+9]
		w00, w01, w02 := wr[0], wr[1], wr[2]
		w10, w11, w12 := wr[3], wr[4], wr[5]
		w20, w21, w22 := wr[6], wr[7], wr[8]
		r0 := xrowBase + ki0*rowStride
		r1 := r0 + rowStride
		r2 := r1 + rowStride
		if haveTap9Z && hi-lo >= 8 {
			// AVX-512 fast path: identical tap order and rounding, eight
			// output elements per vector (see tap_amd64.s).
			tap9z(&acc[lo], &xd[r0+lo], &xd[r1+lo], &xd[r2+lo], &wr[0], hi-lo)
		} else if haveTap9 && hi-lo >= 4 {
			// AVX2 fast path: identical tap order and rounding, four
			// output elements per vector (see tap_amd64.s).
			tap9(&acc[lo], &xd[r0+lo], &xd[r1+lo], &xd[r2+lo], &wr[0], hi-lo)
		} else {
			// Two elements per iteration: each accumulator is a serial
			// dependency chain of nine adds, so interleaving two
			// independent chains doubles the instruction-level parallelism
			// the core can extract. Element-wise order is untouched.
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
	} else {
		for ki := ki0; ki < ki1; ki++ {
			wrow := wrowBase + ki*K
			xrow := xrowBase + ki*rowStride
			switch K {
			case 3:
				// Clipped 3-tap row bundle (edge ki rows, 3D kz rows):
				// vectorized with the same per-element tap order.
				if haveTap9 && hi-lo >= 4 {
					tap3(&acc[lo], &xd[xrow+lo], &wd[wrow], hi-lo)
					continue
				}
				w0, w1, w2 := wd[wrow], wd[wrow+1], wd[wrow+2]
				for j := lo; j < hi; j++ {
					xb := xrow + j
					a := acc[j]
					a += float64(w0 * xd[xb])
					a += float64(w1 * xd[xb+1])
					a += float64(w2 * xd[xb+2])
					acc[j] = a
				}
			default:
				for j := lo; j < hi; j++ {
					xb := xrow + j
					a := acc[j]
					for kj := 0; kj < K; kj++ {
						a += float64(wd[wrow+kj] * xd[xb+kj])
					}
					acc[j] = a
				}
			}
		}
	}
	for j := hi; j < W; j++ { // right halo
		kj0, kj1 := kernelRange(j, W, K, p)
		a := acc[j]
		for ki := ki0; ki < ki1; ki++ {
			wrow := wrowBase + ki*K
			xrow := xrowBase + ki*rowStride + j
			for kj := kj0; kj < kj1; kj++ {
				a += float64(wd[wrow+kj] * xd[xrow+kj])
			}
		}
		acc[j] = a
	}
}

// conv2dRows computes output rows [lo, hi) of the work-item space
// (outC × H) for a stride-1 same-padded 2D convolution. acc is a W-long
// float64 accumulator row owned by the calling worker.
func conv2dRows(od []float32, xd, wd []float64, bd []float32, inC, K, H, W int, segLo, segHi []int, acc []float64, lo, hi int) {
	p := K / 2
	hw := H * W
	acc = acc[:W]
	for t := lo; t < hi; t++ {
		oc, i := t/H, t%H
		ilo, ihi := segBounds(i, H, segLo, segHi)
		ki0, ki1 := kernelRange(i-ilo, ihi-ilo, K, p)
		bias := float64(bd[oc])
		for j := range acc {
			acc[j] = bias
		}
		for ic := 0; ic < inC; ic++ {
			xcbase := ic * hw
			wbase := ((oc*inC + ic) * K) * K
			tapRows(acc, xd, wd, wbase, xcbase+(i-p)*W-p, W, ki0, ki1, W, K, p)
		}
		orow := od[oc*hw+i*W : oc*hw+i*W+W]
		for j, v := range acc {
			orow[j] = float32(v)
		}
	}
}

// conv3dPlanes computes output planes [lo, hi) of the work-item space
// (outC × D) for a stride-1 same-padded 3D convolution.
func conv3dPlanes(od []float32, xd, wd []float64, bd []float32, inC, K, D, H, W int, segLo, segHi []int, acc []float64, lo, hi int) {
	p := K / 2
	hw := H * W
	vol := D * hw
	acc = acc[:W]
	for t := lo; t < hi; t++ {
		oc, z := t/D, t%D
		zlo, zhi := segBounds(z, D, segLo, segHi)
		kz0, kz1 := kernelRange(z-zlo, zhi-zlo, K, p)
		bias := float64(bd[oc])
		obase := oc*vol + z*hw
		for i := 0; i < H; i++ {
			ki0, ki1 := kernelRange(i, H, K, p)
			for j := range acc {
				acc[j] = bias
			}
			for ic := 0; ic < inC; ic++ {
				xcbase := ic * vol
				wcbase := (((oc*inC + ic) * K) * K) * K
				for kz := kz0; kz < kz1; kz++ {
					xzbase := xcbase + (z+kz-p)*hw
					wzbase := wcbase + kz*K*K
					tapRows(acc, xd, wd, wzbase, xzbase+(i-p)*W-p, W, ki0, ki1, W, K, p)
				}
			}
			orow := od[obase+i*W : obase+i*W+W]
			for j, v := range acc {
				orow[j] = float32(v)
			}
		}
	}
}

// depthwise2dRows is conv2dRows for a depthwise convolution: output
// channel c is a one-channel convolution of input channel c with filter
// c, so each channel's rows run conv2dRows on that channel's slices, on
// the same tapRows kernels. Work items are (C × H).
func depthwise2dRows(od []float32, xd, wd []float64, bd []float32, K, H, W int, segLo, segHi []int, acc []float64, lo, hi int) {
	hw, kk := H*W, K*K
	for lo < hi {
		c := lo / H
		end := min(hi, (c+1)*H)
		conv2dRows(od[c*hw:(c+1)*hw], xd[c*hw:(c+1)*hw], wd[c*kk:(c+1)*kk], bd[c:c+1], 1, K, H, W, segLo, segHi, acc, lo-c*H, end-c*H)
		lo = end
	}
}

// depthwise3dPlanes is conv3dPlanes for a depthwise convolution, one
// channel at a time like depthwise2dRows. Work items are (C × D).
func depthwise3dPlanes(od []float32, xd, wd []float64, bd []float32, K, D, H, W int, segLo, segHi []int, acc []float64, lo, hi int) {
	vol, kkk := D*H*W, K*K*K
	for lo < hi {
		c := lo / D
		end := min(hi, (c+1)*D)
		conv3dPlanes(od[c*vol:(c+1)*vol], xd[c*vol:(c+1)*vol], wd[c*kkk:(c+1)*kkk], bd[c:c+1], 1, K, D, H, W, segLo, segHi, acc, lo-c*D, end-c*D)
		lo = end
	}
}

// pwStrip is the element count of one pointwise work item: long enough
// that a kernel call amortizes its setup over many register blocks,
// short enough that a strip's inC input rows stay cache-resident while
// every output channel reads them.
const pwStrip = 512

// pointwiseConv runs a 1×1 convolution of xd (inC channels of n
// elements, any spatial rank flattened) into od on up to workers
// goroutines. Conv2D and Conv3D use it in both Forward and Infer, so the
// four agree bit for bit by construction. A 1×1 kernel never reads
// across a segment boundary, so segmented inference needs no case here.
func pointwiseConv(od []float32, xd, wd []float64, bd []float32, inC, outC, n, workers int) {
	items := (n + pwStrip - 1) / pwStrip * outC
	if eff := clampWorkers(workers, items); eff <= 1 {
		pointwiseItems(od, xd, wd, bd, inC, outC, n, 0, items)
	} else {
		parallel.ForRangeWith(eff, items, func(lo, hi int) {
			pointwiseItems(od, xd, wd, bd, inC, outC, n, lo, hi)
		})
	}
}

// pointwiseItems computes work items [lo, hi) of pointwiseConv. Item t is
// output channel t%outC over strip t/outC, so consecutive items reuse one
// strip of input rows.
func pointwiseItems(od []float32, xd, wd []float64, bd []float32, inC, outC, n, lo, hi int) {
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
			pointwisez(&dst[0], &x[0], &w[0], bias, inC, n, m)
		case haveTap9:
			pointwise(&dst[0], &x[0], &w[0], bias, inC, n, m)
		default:
			pointwiseGo(dst, x, w, bias, n)
		}
	}
}

// pointwiseGo is the pure-Go pointwise strip, the reference the SIMD
// kernels match bit for bit: dst[j] = float32(acc) where acc starts at
// bias and adds w[ic]*x[ic*stride+j] for ic ascending. len(dst) <= pwStrip.
func pointwiseGo(dst []float32, x, w []float64, bias float64, stride int) {
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
	for j, v := range acc {
		dst[j] = float32(v)
	}
}

// convScratchKey is the shared accumulator-row buffer all conv kernels
// draw from; layers run strictly one at a time within a pass, so sharing
// one key keeps the arena footprint at max(workers×W) floats.
const convScratchKey = "conv.acc"

// Infer implements InferLayer.
func (c *Conv2D) Infer(x *tensor.Tensor, dstKey string, segLo, segHi []int, a *Arena, workers int) (*tensor.Tensor, error) {
	if x.Rank() != 3 || x.Dim(0) != c.InC {
		return nil, fmt.Errorf("nn: conv2d wants (%d,H,W), got %v", c.InC, x.Shape())
	}
	h, w := x.Dim(1), x.Dim(2)
	out := a.Tensor(dstKey, c.OutC, h, w)
	xd, od, bd := x.Data(), out.Data(), c.bias.W.Data()
	xd64 := a.F64("conv.x64", len(xd))
	toF64(xd64, xd)
	wd64 := a.F64("conv.w64", c.weight.W.Len())
	toF64(wd64, c.weight.W.Data())
	if c.K == 1 {
		pointwiseConv(od, xd64, wd64, bd, c.InC, c.OutC, h*w, workers)
		return out, nil
	}
	eff := clampWorkers(workers, c.OutC*h)
	scratch := a.F64(convScratchKey, eff*w)
	if eff <= 1 {
		conv2dRows(od, xd64, wd64, bd, c.InC, c.K, h, w, segLo, segHi, scratch, 0, c.OutC*h)
	} else {
		dispatchScratch(eff, c.OutC*h, w, scratch, func(lo, hi int, acc []float64) {
			conv2dRows(od, xd64, wd64, bd, c.InC, c.K, h, w, segLo, segHi, acc, lo, hi)
		})
	}
	return out, nil
}

// Infer implements InferLayer.
func (c *Conv3D) Infer(x *tensor.Tensor, dstKey string, segLo, segHi []int, a *Arena, workers int) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(0) != c.InC {
		return nil, fmt.Errorf("nn: conv3d wants (%d,D,H,W), got %v", c.InC, x.Shape())
	}
	d, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	out := a.Tensor(dstKey, c.OutC, d, h, w)
	xd, od, bd := x.Data(), out.Data(), c.bias.W.Data()
	xd64 := a.F64("conv.x64", len(xd))
	toF64(xd64, xd)
	wd64 := a.F64("conv.w64", c.weight.W.Len())
	toF64(wd64, c.weight.W.Data())
	if c.K == 1 {
		pointwiseConv(od, xd64, wd64, bd, c.InC, c.OutC, d*h*w, workers)
		return out, nil
	}
	eff := clampWorkers(workers, c.OutC*d)
	scratch := a.F64(convScratchKey, eff*w)
	if eff <= 1 {
		conv3dPlanes(od, xd64, wd64, bd, c.InC, c.K, d, h, w, segLo, segHi, scratch, 0, c.OutC*d)
	} else {
		dispatchScratch(eff, c.OutC*d, w, scratch, func(lo, hi int, acc []float64) {
			conv3dPlanes(od, xd64, wd64, bd, c.InC, c.K, d, h, w, segLo, segHi, acc, lo, hi)
		})
	}
	return out, nil
}

// Infer implements InferLayer.
func (l *DepthwiseConv2D) Infer(x *tensor.Tensor, dstKey string, segLo, segHi []int, a *Arena, workers int) (*tensor.Tensor, error) {
	if x.Rank() != 3 || x.Dim(0) != l.C {
		return nil, fmt.Errorf("nn: depthwise2d wants (%d,H,W), got %v", l.C, x.Shape())
	}
	h, w := x.Dim(1), x.Dim(2)
	out := a.Tensor(dstKey, l.C, h, w)
	eff := clampWorkers(workers, l.C*h)
	scratch := a.F64(convScratchKey, eff*w)
	xd, od, bd := x.Data(), out.Data(), l.bias.W.Data()
	xd64 := a.F64("conv.x64", len(xd))
	toF64(xd64, xd)
	wd64 := a.F64("conv.w64", l.weight.W.Len())
	toF64(wd64, l.weight.W.Data())
	if eff <= 1 {
		depthwise2dRows(od, xd64, wd64, bd, l.K, h, w, segLo, segHi, scratch, 0, l.C*h)
	} else {
		dispatchScratch(eff, l.C*h, w, scratch, func(lo, hi int, acc []float64) {
			depthwise2dRows(od, xd64, wd64, bd, l.K, h, w, segLo, segHi, acc, lo, hi)
		})
	}
	return out, nil
}

// Infer implements InferLayer.
func (l *DepthwiseConv3D) Infer(x *tensor.Tensor, dstKey string, segLo, segHi []int, a *Arena, workers int) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(0) != l.C {
		return nil, fmt.Errorf("nn: depthwise3d wants (%d,D,H,W), got %v", l.C, x.Shape())
	}
	d, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	out := a.Tensor(dstKey, l.C, d, h, w)
	eff := clampWorkers(workers, l.C*d)
	scratch := a.F64(convScratchKey, eff*w)
	xd, od, bd := x.Data(), out.Data(), l.bias.W.Data()
	xd64 := a.F64("conv.x64", len(xd))
	toF64(xd64, xd)
	wd64 := a.F64("conv.w64", l.weight.W.Len())
	toF64(wd64, l.weight.W.Data())
	if eff <= 1 {
		depthwise3dPlanes(od, xd64, wd64, bd, l.K, d, h, w, segLo, segHi, scratch, 0, l.C*d)
	} else {
		dispatchScratch(eff, l.C*d, w, scratch, func(lo, hi int, acc []float64) {
			depthwise3dPlanes(od, xd64, wd64, bd, l.K, d, h, w, segLo, segHi, acc, lo, hi)
		})
	}
	return out, nil
}

// Infer implements InferLayer. ReLU clamps in place: segment boundaries
// are irrelevant for an element-wise op. The clamp is branchless — the
// sign of post-conv activations is close to a coin flip, so the naive
// branch mispredicts constantly. The keep condition v > 0 is exactly the
// bit condition 1 <= bits <= +Inf; both operand checks fold into one sign
// OR, giving an all-ones/all-zero mask. Non-positive and NaN inputs map
// to +0, matching Forward bit for bit.
func (r *ReLU) Infer(x *tensor.Tensor, _ string, _, _ []int, _ *Arena, _ int) (*tensor.Tensor, error) {
	d := x.Data()
	const posInf = 0x7F800000
	for i, v := range d {
		u := int64(math.Float32bits(v))
		mask := ^(((u - 1) | (posInf - u)) >> 63)
		d[i] = math.Float32frombits(uint32(u & mask))
	}
	return x, nil
}

// Infer implements InferLayer. Pooling, the shared MLP, and the sigmoid
// rescale all run per segment — each slab sees exactly the attention
// weights a standalone Forward over that slab would compute.
func (at *ChannelAttention) Infer(x *tensor.Tensor, _ string, segLo, segHi []int, a *Arena, _ int) (*tensor.Tensor, error) {
	if x.Rank() < 2 || x.Dim(0) != at.C {
		return nil, fmt.Errorf("nn: channel attention wants (%d, spatial...), got %v", at.C, x.Shape())
	}
	spatial := x.Len() / at.C
	n1 := x.Dim(1)
	plane := spatial / n1
	xd := x.Data()
	hid := at.Hidden()
	avg := a.F64("attn.avg", at.C)
	mx := a.F64("attn.mx", at.C)
	h1a := a.F64("attn.h1a", hid)
	h1b := a.F64("attn.h1b", hid)
	za := a.F64("attn.za", at.C)
	zb := a.F64("attn.zb", at.C)
	for s := 0; s < n1; {
		lo, hi := segBounds(s, n1, segLo, segHi)
		segVox := (hi - lo) * plane
		for c := 0; c < at.C; c++ {
			base := c*spatial + lo*plane
			sum := 0.0
			best := math.Inf(-1)
			for i := base; i < base+segVox; i++ {
				v := float64(xd[i])
				sum += v
				if v > best {
					best = v
				}
			}
			avg[c] = sum / float64(segVox)
			mx[c] = best
		}
		at.mlpInto(avg, h1a, za)
		at.mlpInto(mx, h1b, zb)
		for c := 0; c < at.C; c++ {
			w := float32(1 / (1 + math.Exp(-(za[c] + zb[c]))))
			base := c*spatial + lo*plane
			for i := base; i < base+segVox; i++ {
				xd[i] *= w
			}
		}
		s = hi
	}
	return x, nil
}
