package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelTiers are the SIMD tiers a test can force: each runs where the
// CPU has it.
var kernelTiers = []struct {
	name  string
	z, v2 bool
	ok    bool
}{{"go", false, false, true}, {"avx2", false, true, haveTap9}, {"avx512", true, true, haveTap9Z}}

// paddedCase is one 3×3×3 layer and input for TestPaddedConvMatchesClipped.
type paddedCase struct {
	inC, outC, D, H, W int
	depthwise, relu    bool
	counts             []int // segment counts along D; nil is one segment
	xd, wd             []float64
	bd                 []float32
}

// paddedData fills c's input, weights and biases with float32 values, half
// of the inputs scaled by 2^36. In a dense layer every odd input channel
// repeats the previous one under negated weights, as pointwiseData does:
// the pair's huge terms cancel exactly after the running sum has dropped
// the low bits of what came before them, so a driver that adds the taps
// in another order changes float32 bits. zeroPlane >= 0 zeroes that plane
// of every channel.
func paddedData(rng *rand.Rand, c *paddedCase, zeroPlane int) {
	val := func() float64 { return float64(float32(rng.NormFloat64())) }
	vol := c.D * c.H * c.W
	c.xd = make([]float64, c.inC*vol)
	for i := range c.xd {
		switch {
		case i%vol/(c.H*c.W) == zeroPlane:
		case !c.depthwise && i/vol%2 == 1:
			c.xd[i] = c.xd[i-vol]
		case rng.Intn(2) == 0:
			c.xd[i] = val() * (1 << 36)
		default:
			c.xd[i] = val()
		}
	}
	filters := c.outC * c.inC
	if c.depthwise {
		filters = c.outC
	}
	c.wd = make([]float64, filters*27)
	for i := range c.wd {
		if !c.depthwise && i/27%c.inC%2 == 1 {
			c.wd[i] = -c.wd[i-27]
		} else {
			c.wd[i] = val()
		}
	}
	c.bd = make([]float32, c.outC)
	for i := range c.bd {
		c.bd[i] = float32(val())
	}
}

// segTables returns the segLo/segHi tables of counts over an axis of n
// planes (nil for one segment).
func segTables(counts []int, n int) (lo, hi []int) {
	if counts == nil {
		return nil, nil
	}
	lo, hi = make([]int, n), make([]int, n)
	pos := 0
	for _, cnt := range counts {
		for z := pos; z < pos+cnt; z++ {
			lo[z], hi[z] = pos, pos+cnt
		}
		pos += cnt
	}
	return lo, hi
}

// clipped is the reference: the per-row drivers on the pure-Go tier.
func (c *paddedCase) clipped() []float64 {
	od := make([]float64, c.outC*c.D*c.H*c.W)
	segLo, segHi := segTables(c.counts, c.D)
	withKernels(false, false, func() {
		acc := make([]float64, c.W)
		if c.depthwise {
			depthwise3dPlanes(od, c.xd, c.wd, c.bd, 3, c.D, c.H, c.W, c.relu, segLo, segHi, acc, 0, c.outC*c.D)
		} else {
			conv3dPlanes(od, c.xd, c.wd, c.bd, c.inC, 3, c.D, c.H, c.W, c.relu, segLo, segHi, acc, 0, c.outC*c.D)
		}
	})
	return od
}

// padded runs the layer on conv3dPadded (through runPadded) on workers
// goroutines, with scratch that starts as NaN so a border the driver
// fails to clear shows.
func (c *paddedCase) padded(workers int) []float64 {
	x := newAct(c.xd, c.inC, c.D, c.H, c.W)
	out := newAct(make([]float64, c.outC*c.D*c.H*c.W), c.outC, c.D, c.H, c.W)
	segLo, segHi := segTables(c.counts, c.D)
	a := NewArena()
	poison := a.F64(convScratchKey, 3*padScratchLen(c.outC, c.H, c.W))
	for i := range poison {
		poison[i] = math.NaN()
	}
	runPadded(out, x, c.wd, c.bd, c.depthwise, c.relu, segLo, segHi, a, workers)
	return out.Data
}

// routed runs the layer through runConv, which picks the driver.
func (c *paddedCase) routed(workers int) []float64 {
	x := newAct(c.xd, c.inC, c.D, c.H, c.W)
	out := newAct(make([]float64, c.outC*c.D*c.H*c.W), c.outC, c.D, c.H, c.W)
	segLo, segHi := segTables(c.counts, c.D)
	runConv(out, x, c.wd, c.bd, 3, c.depthwise, c.relu, segLo, segHi, NewArena(), workers)
	return out.Data
}

func firstDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestPaddedConvMatchesClipped is the exactness contract of conv3dPadded:
// on every tier and at one to three workers, over widths and heights on
// both sides of the kernels' minimum lengths (a band of r rows is n =
// r·(W+2)−2 elements, which runs tap9z only from 8 and tap9 only from 4,
// so one-row planes of width 1 to 3 take the Go loop), over one and
// several row bands, unsegmented and segmented depth, dense and
// depthwise, with and without a folded ReLU and with a zero plane, it
// writes the clipped drivers' bits, and runConv, which routes there on
// the SIMD tiers, does too. A second sweep takes dense layers through
// every split of their output channels into tap9z3 triples and tap9Rows
// leftovers (outC 1 to 5, 7 and the CFNN's 14), over a band shorter than
// one vector, a band of one vector and a masked tail, and two bands.
func TestPaddedConvMatchesClipped(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type layer struct {
		inC, outC int
		depthwise bool
	}
	for _, W := range []int{1, 2, 3, 7, 8, 9, 64, 65} {
		for _, H := range []int{1, 2, 5, 17, 40} { // 17 and 40 span two and three row bands
			for _, counts := range [][]int{nil, {1, 4, 2}} {
				for _, l := range []layer{{1, 3, false}, {9, 2, false}, {4, 4, true}} {
					for _, relu := range []bool{false, true} {
						c := paddedCase{inC: l.inC, outC: l.outC, D: 7, H: H, W: W, depthwise: l.depthwise, relu: relu, counts: counts}
						paddedData(rng, &c, rng.Intn(c.D+1)-1)
						name := fmt.Sprintf("W=%d H=%d counts=%v inC=%d depthwise=%v relu=%v", W, H, counts, l.inC, l.depthwise, relu)
						checkPadded(t, name, &c, true)
					}
				}
			}
		}
	}
	for _, outC := range []int{1, 2, 3, 4, 5, 7, 14} {
		for _, wh := range [][2]int{{7, 1}, {9, 1}, {65, 17}} {
			for _, counts := range [][]int{nil, {1, 4, 2}} {
				c := paddedCase{inC: 3, outC: outC, D: 7, H: wh[1], W: wh[0], relu: rng.Intn(2) == 0, counts: counts}
				paddedData(rng, &c, rng.Intn(c.D+1)-1)
				name := fmt.Sprintf("outC=%d W=%d H=%d counts=%v relu=%v", outC, c.W, c.H, counts, c.relu)
				checkPadded(t, name, &c, true)
			}
		}
	}
}

// checkPadded compares c's padded and routed outputs with the clipped
// reference on every tier at one to three workers; with exact false the
// padded driver is expected to differ and only routed must match.
func checkPadded(t *testing.T, name string, c *paddedCase, exact bool) {
	t.Helper()
	want := c.clipped()
	differs := false
	for _, tier := range kernelTiers {
		if !tier.ok {
			continue
		}
		for workers := 1; workers <= 3; workers++ {
			var pad, routed []float64
			withKernels(tier.z, tier.v2, func() {
				pad, routed = c.padded(workers), c.routed(workers)
			})
			if i := firstDiff(routed, want); i >= 0 {
				t.Fatalf("%s %s workers=%d: runConv element %d = %v, clipped %v", name, tier.name, workers, i, routed[i], want[i])
			}
			i := firstDiff(pad, want)
			if exact && i >= 0 {
				t.Fatalf("%s %s workers=%d: padded element %d = %v, clipped %v", name, tier.name, workers, i, pad[i], want[i])
			}
			differs = differs || i >= 0
		}
	}
	if !exact && !differs {
		t.Fatalf("%s: the padded driver matched where its padded taps should change bits", name)
	}
}

// TestPaddedConvUnsafeLayersClip pins padSafe's two exclusions. A −0 bias
// over all −0 inputs with positive weights sums to −0 on the clipped path,
// while a border element's padded taps add w·(+0) = +0 and turn it to +0;
// an Inf weight times a padded zero is NaN. Both layers must fail padSafe,
// and runConv must then match the clipped reference on every tier.
func TestPaddedConvUnsafeLayersClip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	negZero := paddedCase{inC: 2, outC: 2, D: 3, H: 4, W: 9}
	paddedData(rng, &negZero, -1)
	for i := range negZero.xd {
		negZero.xd[i] = math.Copysign(0, -1)
	}
	for i := range negZero.wd {
		negZero.wd[i] = math.Abs(negZero.wd[i]) + 0.5
	}
	negZero.bd[1] = float32(math.Copysign(0, -1))

	inf := paddedCase{inC: 3, outC: 2, D: 5, H: 5, W: 8, counts: []int{2, 3}}
	paddedData(rng, &inf, -1)
	inf.wd[27+9] = math.Inf(1) // filter (0, 1), tap (kz 1, ki 0, kj 0)

	for name, c := range map[string]*paddedCase{"-0 bias": &negZero, "Inf weight": &inf} {
		if padSafe(c.wd, c.bd) {
			t.Fatalf("%s: padSafe accepts the layer", name)
		}
		checkPadded(t, name, c, false)
	}
}

// BenchmarkConv3dPadded times one serial pass of each 3×3×3 layer of the
// Hurricane CFNN (three anchors of three channels in, width 14, one
// output field) over one 6×64×64 chunk slab, through runConv on the
// detected kernel tier: conv3dPadded on the SIMD tiers, the per-row
// drivers in pure Go.
func BenchmarkConv3dPadded(b *testing.B) {
	for _, l := range []struct {
		name      string
		inC, outC int
		depthwise bool
	}{{"dense9to14", 9, 14, false}, {"depthwise14", 14, 14, true}, {"dense14to3", 14, 3, false}} {
		b.Run(l.name, func(b *testing.B) {
			c := paddedCase{inC: l.inC, outC: l.outC, D: 6, H: 64, W: 64, depthwise: l.depthwise}
			paddedData(rand.New(rand.NewSource(1)), &c, -1)
			x := newAct(c.xd, c.inC, c.D, c.H, c.W)
			out := newAct(make([]float64, c.outC*c.D*c.H*c.W), c.outC, c.D, c.H, c.W)
			a := NewArena()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runConv(out, x, c.wd, c.bd, 3, c.depthwise, false, nil, nil, a, 1)
			}
		})
	}
}
