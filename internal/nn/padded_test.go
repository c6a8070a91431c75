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

// paddedCase is one layer and input for the padded-driver tests. A 2D
// case has rank 2 and D = 1.
type paddedCase struct {
	rank, inC, outC, K, D, H, W int
	depthwise, relu             bool
	xd, wd                      []float64
	bd                          []float32
}

// n1 is the length of the leading spatial axis: planes in 3D, rows in 2D.
func (c *paddedCase) n1() int {
	if c.rank == 2 {
		return c.H
	}
	return c.D
}

// act wraps data as ch channels over c's spatial shape.
func (c *paddedCase) act(data []float64, ch int) Act {
	if c.rank == 2 {
		return newAct(data, ch, c.H, c.W)
	}
	return newAct(data, ch, c.D, c.H, c.W)
}

// taps is the tap count of one filter.
func (c *paddedCase) taps() int {
	if c.rank == 2 {
		return c.K * c.K
	}
	return c.K * c.K * c.K
}

// paddedData fills c's input, weights and biases with float32 values, half
// of the inputs scaled by 2^36. In a dense layer every odd input channel
// repeats the previous one under negated weights, as pointwiseData does:
// the pair's huge terms cancel exactly after the running sum has dropped
// the low bits of what came before them, so a driver that adds the taps
// in another order changes float32 bits. zero >= 0 zeroes that plane (in
// 2D, that row) of every channel.
func paddedData(rng *rand.Rand, c *paddedCase, zero int) {
	val := func() float64 { return float64(float32(rng.NormFloat64())) }
	vol := c.D * c.H * c.W
	c.xd = make([]float64, c.inC*vol)
	for i := range c.xd {
		switch {
		case i%vol/(vol/c.n1()) == zero:
		case !c.depthwise && i/vol%2 == 1:
			c.xd[i] = c.xd[i-vol]
		case rng.Intn(2) == 0:
			c.xd[i] = val() * (1 << 36)
		default:
			c.xd[i] = val()
		}
	}
	filters, taps := c.outC*c.inC, c.taps()
	if c.depthwise {
		filters = c.outC
	}
	c.wd = make([]float64, filters*taps)
	for i := range c.wd {
		if !c.depthwise && i/taps%c.inC%2 == 1 {
			c.wd[i] = -c.wd[i-taps]
		} else {
			c.wd[i] = val()
		}
	}
	c.bd = make([]float32, c.outC)
	for i := range c.bd {
		c.bd[i] = float32(val())
	}
}

// shape returns c's convShape.
func (c *paddedCase) shape() convShape {
	return newConvShape(c.act(make([]float64, len(c.xd)/c.inC*c.outC), c.outC), c.act(c.xd, c.inC), c.K, c.depthwise, c.relu)
}

// direct is the reference: convDirect, serially.
func (c *paddedCase) direct() []float64 {
	od := make([]float64, len(c.xd)/c.inC*c.outC)
	s := c.shape()
	convDirect(od, c.xd, c.wd, c.bd, s, 0, s.outC*s.D*s.H)
	return od
}

// padded runs the layer on convPadded (through runPadded) on workers
// goroutines, with scratch that starts as NaN so a border the driver
// fails to clear shows.
func (c *paddedCase) padded(workers int) []float64 {
	od := make([]float64, len(c.xd)/c.inC*c.outC)
	s := c.shape()
	a := NewArena()
	poison := a.F64(convScratchKey, 3*padScratchLen(s.kd, c.outC, c.H, c.W))
	for i := range poison {
		poison[i] = math.NaN()
	}
	runPadded(od, c.xd, c.wd, c.bd, s, a, workers)
	return od
}

// routed runs the layer through runConv, which picks the driver.
func (c *paddedCase) routed(workers int) []float64 {
	out := c.act(make([]float64, len(c.xd)/c.inC*c.outC), c.outC)
	runConv(out, c.act(c.xd, c.inC), c.wd, c.bd, c.K, c.depthwise, c.relu, NewArena(), workers)
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

// TestPaddedConvMatchesClipped is the exactness contract of convPadded:
// on every tier and at one to three workers, in 2D and 3D, over widths and
// heights on both sides of the kernels' minimum lengths (a band of r rows
// is n = r·(W+2)−2 elements, which runs tap9z only from 8 and tap9 only
// from 4, so one-row planes of width 1 to 3 take the Go loop), over one
// and several row bands, the last one full or partial, dense and
// depthwise, with and without a folded ReLU and with a zero plane or row,
// it writes the bits of convDirect, which clips the
// taps convPadded reads as zeros, and runConv, which routes there, does
// too. A second sweep takes dense layers through every split of their
// output channels into tap9z3 triples and tap9Rows leftovers (outC 1 to
// 5, 7 and the CFNN's 14 in 3D and 20 in 2D), over a band shorter than
// one vector, a band of one vector and a masked tail, and two bands.
func TestPaddedConvMatchesClipped(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type layer struct {
		inC, outC int
		depthwise bool
	}
	for _, rank := range []int{2, 3} {
		for _, W := range []int{1, 2, 3, 7, 8, 9, 64, 65} {
			// 16 and 32 fill one and two row bands exactly; 17 and 40
			// end in a partial second and third band.
			for _, H := range []int{1, 2, 5, 16, 17, 32, 40} {
				for _, l := range []layer{{1, 3, false}, {9, 2, false}, {4, 4, true}} {
					for _, relu := range []bool{false, true} {
						c := sweepCase(rank, l.inC, l.outC, H, W)
						c.depthwise, c.relu = l.depthwise, relu
						paddedData(rng, &c, rng.Intn(c.n1()+1)-1)
						name := fmt.Sprintf("rank=%d W=%d H=%d inC=%d depthwise=%v relu=%v", rank, W, H, l.inC, l.depthwise, relu)
						checkPadded(t, name, &c, true)
					}
				}
			}
		}
		wide := map[int]int{2: 20, 3: 14}[rank]
		for _, outC := range []int{1, 2, 3, 4, 5, 7, wide} {
			for _, wh := range [][2]int{{7, 1}, {9, 1}, {65, 17}} {
				c := sweepCase(rank, 3, outC, wh[1], wh[0])
				c.relu = rng.Intn(2) == 0
				paddedData(rng, &c, rng.Intn(c.n1()+1)-1)
				name := fmt.Sprintf("rank=%d outC=%d W=%d H=%d relu=%v", rank, outC, c.W, c.H, c.relu)
				checkPadded(t, name, &c, true)
			}
		}
	}
}

// sweepCase returns a 3×3 dense case of the sweeps: 7 planes in 3D.
func sweepCase(rank, inC, outC, H, W int) paddedCase {
	c := paddedCase{rank: rank, inC: inC, outC: outC, K: 3, D: 1, H: H, W: W}
	if rank == 3 {
		c.D = 7
	}
	return c
}

// checkPadded compares c's padded and routed outputs with convDirect on
// every tier at one to three workers; with exact false the padded driver
// is expected to differ and only routed must match.
func checkPadded(t *testing.T, name string, c *paddedCase, exact bool) {
	t.Helper()
	want := c.direct()
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
				t.Fatalf("%s %s workers=%d: runConv element %d = %v, convDirect %v", name, tier.name, workers, i, routed[i], want[i])
			}
			i := firstDiff(pad, want)
			if exact && i >= 0 {
				t.Fatalf("%s %s workers=%d: padded element %d = %v, convDirect %v", name, tier.name, workers, i, pad[i], want[i])
			}
			differs = differs || i >= 0
		}
	}
	if !exact && !differs {
		t.Fatalf("%s: the padded driver matched where its padded taps should change bits", name)
	}
}

// TestPaddedConvUnsafeLayersClip pins padSafe's two exclusions, in 2D and
// 3D. A −0 bias over all −0 inputs with positive weights sums to −0 on
// convDirect, while a border element's padded taps add w·(+0) = +0 and
// turn it to +0; an Inf weight times a padded zero is NaN. Both layers
// must fail padSafe, and runConv must then match convDirect on every
// tier.
func TestPaddedConvUnsafeLayersClip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, rank := range []int{2, 3} {
		negZero := sweepCase(rank, 2, 2, 4, 9)
		negZero.D = min(negZero.D, 3)
		paddedData(rng, &negZero, -1)
		for i := range negZero.xd {
			negZero.xd[i] = math.Copysign(0, -1)
		}
		for i := range negZero.wd {
			negZero.wd[i] = math.Abs(negZero.wd[i]) + 0.5
		}
		negZero.bd[1] = float32(math.Copysign(0, -1))

		inf := sweepCase(rank, 3, 2, 5, 8)
		inf.D = min(inf.D, 5)
		paddedData(rng, &inf, -1)
		inf.wd[inf.taps()+inf.taps()/18*9] = math.Inf(1) // filter (0, 1), tap (middle kz, ki 0, kj 0)

		for name, c := range map[string]*paddedCase{"-0 bias": &negZero, "Inf weight": &inf} {
			name = fmt.Sprintf("rank=%d %s", rank, name)
			if padSafe(c.wd, c.bd) {
				t.Fatalf("%s: padSafe accepts the layer", name)
			}
			checkPadded(t, name, c, false)
		}
	}
}

// TestConvDirectKernelSizes takes the layers only convDirect runs
// through runConv, in 2D and 3D, on every tier at one to three workers. A 5×5(×5) layer whose outer ring of taps is zero must write
// the bits of the 3×3(×3) layer of its inner taps: each zero tap adds
// w·x = ±0 to an accumulator that starts at a nonzero bias, which changes
// no bit. A 1×1 depthwise layer must write each element's
// float32(bias + w·x).
func TestConvDirectKernelSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, rank := range []int{2, 3} {
		for _, depthwise := range []bool{false, true} {
			c3 := sweepCase(rank, 4, 4, 17, 11)
			c3.depthwise, c3.relu = depthwise, true
			paddedData(rng, &c3, -1)
			c5 := c3
			c5.K = 5
			c5.wd = make([]float64, len(c3.wd)/c3.taps()*c5.taps())
			for i, w := range c3.wd {
				f, tap := i/c3.taps(), i%c3.taps()
				kz, ki, kj := tap/9, tap/3%3, tap%3
				if rank == 3 {
					kz++
				}
				c5.wd[f*c5.taps()+(kz*5+ki+1)*5+kj+1] = w
			}
			checkRouted(t, fmt.Sprintf("rank=%d depthwise=%v 5×5", rank, depthwise), &c5, c3.direct())
		}

		c1 := sweepCase(rank, 5, 5, 17, 11)
		c1.K, c1.depthwise = 1, true
		paddedData(rng, &c1, -1)
		vol := len(c1.xd) / c1.inC
		want := make([]float64, len(c1.xd))
		for i, x := range c1.xd {
			want[i] = float64(float32(float64(c1.bd[i/vol]) + float64(c1.wd[i/vol]*x)))
		}
		checkRouted(t, fmt.Sprintf("rank=%d 1×1 depthwise", rank), &c1, want)
	}
}

// checkRouted fails unless runConv writes want for c on every tier at one
// to three workers.
func checkRouted(t *testing.T, name string, c *paddedCase, want []float64) {
	t.Helper()
	for _, tier := range kernelTiers {
		if !tier.ok {
			continue
		}
		for workers := 1; workers <= 3; workers++ {
			var got []float64
			withKernels(tier.z, tier.v2, func() { got = c.routed(workers) })
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s %s workers=%d: element %d = %v, want %v", name, tier.name, workers, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkConvPadded times one serial pass of each 3×3 layer of the
// CESM CFNN (three anchors of two channels in, width 20, two outputs)
// over one 40×320 chunk, and of each 3×3×3 layer of the Hurricane CFNN
// (three anchors of three channels in, width 14, three outputs) over one
// 6×64×64 chunk slab, through runConv on the detected kernel tier.
func BenchmarkConvPadded(b *testing.B) {
	for _, l := range []struct {
		name                  string
		rank, inC, outC, D, H int
		W                     int
		depthwise             bool
	}{
		{"2d/dense6to20", 2, 6, 20, 1, 40, 320, false},
		{"2d/depthwise20", 2, 20, 20, 1, 40, 320, true},
		{"2d/dense20to2", 2, 20, 2, 1, 40, 320, false},
		{"3d/dense9to14", 3, 9, 14, 6, 64, 64, false},
		{"3d/depthwise14", 3, 14, 14, 6, 64, 64, true},
		{"3d/dense14to3", 3, 14, 3, 6, 64, 64, false},
	} {
		b.Run(l.name, func(b *testing.B) {
			c := paddedCase{rank: l.rank, inC: l.inC, outC: l.outC, K: 3, D: l.D, H: l.H, W: l.W, depthwise: l.depthwise}
			paddedData(rand.New(rand.NewSource(1)), &c, -1)
			x := c.act(c.xd, c.inC)
			out := c.act(make([]float64, len(c.xd)/c.inC*c.outC), c.outC)
			a := NewArena()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runConv(out, x, c.wd, c.bd, 3, c.depthwise, false, a, 1)
			}
		})
	}
}
