package predictor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

func TestLorenzo1DKnown(t *testing.T) {
	q := []int32{5, 7, 9}
	if LorenzoPred1D(q, 0) != 0 {
		t.Fatal("boundary must predict 0")
	}
	if LorenzoPred1D(q, 2) != 7 {
		t.Fatal("1D Lorenzo is previous value")
	}
}

func TestLorenzo2DKnown(t *testing.T) {
	// 2x2 grid [[1,2],[3,x]]: pred(1,1) = 2 + 3 - 1 = 4.
	q := []int32{1, 2, 3, 99}
	if got := LorenzoPred2D(q, 2, 1, 1); got != 4 {
		t.Fatalf("pred = %d, want 4", got)
	}
	if got := LorenzoPred2D(q, 2, 0, 0); got != 0 {
		t.Fatalf("corner pred = %d, want 0", got)
	}
	if got := LorenzoPred2D(q, 2, 0, 1); got != 1 {
		t.Fatalf("top edge pred = %d, want 1 (left only)", got)
	}
	if got := LorenzoPred2D(q, 2, 1, 0); got != 1 {
		t.Fatalf("left edge pred = %d, want 1 (up only)", got)
	}
}

func TestLorenzo2DExactOnPlanes(t *testing.T) {
	// Lorenzo reproduces any affine field exactly away from boundaries.
	const ny, nx = 8, 9
	q := make([]int32, ny*nx)
	for i := 0; i < ny; i++ {
		for j := 0; j < nx; j++ {
			q[i*nx+j] = int32(3*i - 2*j + 7)
		}
	}
	for i := 1; i < ny; i++ {
		for j := 1; j < nx; j++ {
			if got := LorenzoPred2D(q, nx, i, j); got != int64(q[i*nx+j]) {
				t.Fatalf("plane not exact at (%d,%d): %d vs %d", i, j, got, q[i*nx+j])
			}
		}
	}
}

func TestLorenzo3DExactOnPlanes(t *testing.T) {
	const nz, ny, nx = 5, 6, 7
	q := make([]int32, nz*ny*nx)
	for k := 0; k < nz; k++ {
		for i := 0; i < ny; i++ {
			for j := 0; j < nx; j++ {
				q[(k*ny+i)*nx+j] = int32(2*k - i + 4*j - 3)
			}
		}
	}
	for k := 1; k < nz; k++ {
		for i := 1; i < ny; i++ {
			for j := 1; j < nx; j++ {
				if got := LorenzoPred3D(q, ny, nx, k, i, j); got != int64(q[(k*ny+i)*nx+j]) {
					t.Fatalf("3D plane not exact at (%d,%d,%d)", k, i, j)
				}
			}
		}
	}
}

func TestLorenzoAllMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := make([]int32, 4*5*6)
	for i := range q {
		q[i] = int32(rng.Intn(200) - 100)
	}
	all, err := LorenzoAll(q, []int{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		for i := 0; i < 5; i++ {
			for j := 0; j < 6; j++ {
				if all[(k*5+i)*6+j] != LorenzoPred3D(q, 5, 6, k, i, j) {
					t.Fatalf("mismatch at (%d,%d,%d)", k, i, j)
				}
			}
		}
	}
	all2, err := LorenzoAll(q[:20], []int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if all2[i*5+j] != LorenzoPred2D(q[:20], 5, i, j) {
				t.Fatalf("2D mismatch at (%d,%d)", i, j)
			}
		}
	}
	all1, err := LorenzoAll(q[:9], []int{9})
	if err != nil {
		t.Fatal(err)
	}
	if all1[3] != int64(q[2]) {
		t.Fatal("1D mismatch")
	}
}

// TestLorenzo3DFromMatchesBox holds LorenzoPred3DFrom to the 7-term
// inclusion-exclusion with zeros outside the box at its origin, at every
// point of the box, for the grid origin and for interior origins.
func TestLorenzo3DFromMatchesBox(t *testing.T) {
	const nz, ny, nx = 4, 5, 6
	rng := rand.New(rand.NewSource(2))
	q := make([]int32, nz*ny*nx)
	for i := range q {
		q[i] = int32(rng.Intn(2000) - 1000)
	}
	for _, org := range [][3]int{{0, 0, 0}, {1, 2, 3}, {3, 0, 5}, {0, 4, 1}} {
		at := func(k, i, j int) int64 {
			if k < org[0] || i < org[1] || j < org[2] {
				return 0
			}
			return int64(q[(k*ny+i)*nx+j])
		}
		for k := org[0]; k < nz; k++ {
			for i := org[1]; i < ny; i++ {
				for j := org[2]; j < nx; j++ {
					want := at(k-1, i, j) + at(k, i-1, j) + at(k, i, j-1) -
						at(k-1, i-1, j) - at(k-1, i, j-1) - at(k, i-1, j-1) +
						at(k-1, i-1, j-1)
					if got := LorenzoPred3DFrom(q, ny, nx, k, i, j, org[0], org[1], org[2]); got != want {
						t.Fatalf("origin %v, (%d,%d,%d): %d, want %d", org, k, i, j, got, want)
					}
					if org == [3]int{} && want != LorenzoPred3D(q, ny, nx, k, i, j) {
						t.Fatalf("(%d,%d,%d): origin 0 differs from LorenzoPred3D", k, i, j)
					}
				}
			}
		}
	}
}

func TestLorenzoAllErrors(t *testing.T) {
	if _, err := LorenzoAll(make([]int32, 10), []int{3, 3}); err == nil {
		t.Fatal("expected volume mismatch")
	}
	if _, err := LorenzoAll(make([]int32, 16), []int{2, 2, 2, 2}); err == nil {
		t.Fatal("expected rank error")
	}
}

func TestCrossFieldPred(t *testing.T) {
	q := []int32{10, 20, 30}
	// Interior: previous value + dq.
	if got := CrossFieldPredFrom(q, 2, 1, 2, 0, 5.5); got != 25.5 {
		t.Fatalf("pred = %v, want 25.5", got)
	}
	// Boundary: implicit zero neighbor.
	if got := CrossFieldPredFrom(q, 0, 1, 0, 0, 9.5); got != 9.5 {
		t.Fatalf("boundary pred = %v, want 9.5", got)
	}
	// A block origin at coordinate 2 resets the neighbor there.
	if got := CrossFieldPredFrom(q, 2, 1, 2, 2, 5.5); got != 5.5 {
		t.Fatalf("seam-reset pred = %v, want 5.5", got)
	}
}

func TestHybridApplyAndParams(t *testing.T) {
	h := &Hybrid{W: []float64{0.5, 0.25, 0.25}, Bias: 1}
	if got := h.Apply([]float64{4, 8, 8}); got != 6+1 {
		t.Fatalf("apply = %v", got)
	}
	if h.NumParams() != 4 {
		t.Fatalf("params = %d", h.NumParams())
	}
}

func TestFitRecoversExactCombination(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 500
	p0 := make([]float64, n)
	p1 := make([]float64, n)
	target := make([]float64, n)
	for i := 0; i < n; i++ {
		p0[i] = rng.Float64()*100 - 50
		p1[i] = rng.Float64()*100 - 50
		target[i] = 0.7*p0[i] + 0.3*p1[i] + 5
	}
	h, err := Fit([][]float64{p0, p1}, target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.W[0]-0.7) > 1e-6 || math.Abs(h.W[1]-0.3) > 1e-6 || math.Abs(h.Bias-5) > 1e-5 {
		t.Fatalf("fit = %+v", h)
	}
}

func TestFitWeightsFavorBetterPredictor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 2000
	good := make([]float64, n)
	bad := make([]float64, n)
	target := make([]float64, n)
	for i := 0; i < n; i++ {
		target[i] = rng.Float64() * 100
		good[i] = target[i] + rng.NormFloat64()*0.5
		bad[i] = target[i] + rng.NormFloat64()*20
	}
	h, err := Fit([][]float64{good, bad}, target)
	if err != nil {
		t.Fatal(err)
	}
	share := h.WeightShare()
	if share[0] < 0.8 {
		t.Fatalf("good predictor share = %v, want > 0.8", share[0])
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, []float64{1}); !errors.Is(err, ErrBadTraining) {
		t.Fatal("no predictors")
	}
	if _, err := Fit([][]float64{{1, 2}}, []float64{1}); !errors.Is(err, ErrBadTraining) {
		t.Fatal("length mismatch")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}); !errors.Is(err, ErrBadTraining) {
		t.Fatal("too few samples")
	}
}

func TestTrainGDConvergesToFit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 3000
	p0 := make([]float64, n)
	p1 := make([]float64, n)
	target := make([]float64, n)
	for i := 0; i < n; i++ {
		p0[i] = rng.Float64()*200 - 100
		p1[i] = p0[i]*0.2 + rng.Float64()*100
		target[i] = 0.6*p0[i] + 0.4*p1[i] + 2
	}
	hLS, err := Fit([][]float64{p0, p1}, target)
	if err != nil {
		t.Fatal(err)
	}
	hGD, losses, err := TrainGD([][]float64{p0, p1}, target, GDConfig{Epochs: 60, LR: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 60 {
		t.Fatalf("losses = %d epochs", len(losses))
	}
	// Loss must be non-increasing overall (first vs last).
	if losses[len(losses)-1] > losses[0] {
		t.Fatalf("GD diverged: %v -> %v", losses[0], losses[len(losses)-1])
	}
	// GD should approach the LS optimum.
	for k := range hLS.W {
		if math.Abs(hGD.W[k]-hLS.W[k]) > 0.1 {
			t.Fatalf("GD w[%d]=%v vs LS %v", k, hGD.W[k], hLS.W[k])
		}
	}
}

func TestTrainGDErrors(t *testing.T) {
	if _, _, err := TrainGD(nil, nil, GDConfig{}); !errors.Is(err, ErrBadTraining) {
		t.Fatal("expected error")
	}
}

func TestWeightShareNormalizes(t *testing.T) {
	h := &Hybrid{W: []float64{0.5, -0.25, 0.25}, Bias: 99}
	s := h.WeightShare()
	if len(s) != 3 {
		t.Fatalf("share len = %d", len(s))
	}
	if total := s[0] + s[1] + s[2]; total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %v", total)
	}
	if s[0] != 0.5 || s[1] != 0.25 {
		t.Fatalf("share = %v, want [0.5 0.25 0.25]", s)
	}
}

func TestWeightShareDegenerate(t *testing.T) {
	h := &Hybrid{W: []float64{0, 0}}
	s := h.WeightShare()
	if s[0] != 0 || s[1] != 0 {
		t.Fatalf("share = %v", s)
	}
}

// Property: fitting exact linear data recovers it for random dimensions.
func TestFitExactProperty(t *testing.T) {
	f := func(seed int64, mm uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(mm%3) + 1
		n := 200
		preds := make([][]float64, m)
		wTrue := make([]float64, m)
		for k := range preds {
			preds[k] = make([]float64, n)
			wTrue[k] = rng.Float64()*2 - 1
		}
		target := make([]float64, n)
		for i := 0; i < n; i++ {
			for k := range preds {
				preds[k][i] = rng.Float64()*10 - 5
				target[i] += wTrue[k] * preds[k][i]
			}
			target[i] += 3
		}
		h, err := Fit(preds, target)
		if err != nil {
			return false
		}
		for k := range wTrue {
			if math.Abs(h.W[k]-wTrue[k]) > 1e-4 {
				return false
			}
		}
		return math.Abs(h.Bias-3) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRegressionExactOnPlanes(t *testing.T) {
	const ny, nx = 12, 13
	q := make([]int32, ny*nx)
	for i := 0; i < ny; i++ {
		for j := 0; j < nx; j++ {
			q[i*nx+j] = int32(4*i + 2*j - 9)
		}
	}
	preds, err := RegressionAll(q, []int{ny, nx})
	if err != nil {
		t.Fatal(err)
	}
	for i := range q {
		if math.Abs(preds[i]-float64(q[i])) > 1e-6 {
			t.Fatalf("regression not exact on plane at %d: %v vs %d", i, preds[i], q[i])
		}
	}
	codes := ResidualCodes(q, preds)
	for _, c := range codes {
		if c != 0 {
			t.Fatal("plane residuals must be zero")
		}
	}
}

func TestRegression3D(t *testing.T) {
	const nz, ny, nx = 7, 8, 9
	q := make([]int32, nz*ny*nx)
	for k := 0; k < nz; k++ {
		for i := 0; i < ny; i++ {
			for j := 0; j < nx; j++ {
				q[(k*ny+i)*nx+j] = int32(k - 3*i + 2*j)
			}
		}
	}
	preds, err := RegressionAll(q, []int{nz, ny, nx})
	if err != nil {
		t.Fatal(err)
	}
	for i := range q {
		if math.Abs(preds[i]-float64(q[i])) > 1e-6 {
			t.Fatal("3D regression not exact on plane")
		}
	}
}

func TestRegressionErrors(t *testing.T) {
	if _, err := RegressionAll(make([]int32, 5), []int{2, 3}); err == nil {
		t.Fatal("expected volume error")
	}
	if _, err := RegressionAll(make([]int32, 4), []int{4}); err == nil {
		t.Fatal("expected rank error")
	}
}

func TestInterpolationCubicExact(t *testing.T) {
	// A cubic polynomial is reproduced exactly by the 4-point kernel.
	const nx = 32
	q := make([]int32, nx)
	for j := 0; j < nx; j++ {
		x := float64(j)
		q[j] = int32(math.Round(0.01*x*x*x - 0.3*x*x + 2*x + 5))
	}
	preds, err := InterpolationAll(q, []int{nx})
	if err != nil {
		t.Fatal(err)
	}
	for j := 5; j < nx-5; j += 2 {
		if j%2 == 1 {
			if math.Abs(preds[j]-float64(q[j])) > 1.0 {
				t.Fatalf("cubic interp at %d: %v vs %d", j, preds[j], q[j])
			}
		}
	}
}

func TestInterpolationErrors(t *testing.T) {
	if _, err := InterpolationAll(make([]int32, 5), []int{2, 3}); err == nil {
		t.Fatal("expected volume error")
	}
	if _, err := InterpolationAll(make([]int32, 16), []int{2, 2, 2, 2}); err == nil {
		t.Fatal("expected rank error")
	}
}

func TestResidualCodesRoundHalfAway(t *testing.T) {
	q := []int32{10, -10}
	preds := []float64{9.5, -9.5}
	codes := ResidualCodes(q, preds)
	if codes[0] != 0 || codes[1] != 0 {
		t.Fatalf("codes = %v (9.5 rounds to 10, -9.5 to -10)", codes)
	}
}

// Smoother prediction => lower residual entropy; verify Lorenzo beats a
// zero predictor on smooth data (the mechanism behind every compression
// gain in the paper).
func TestLorenzoReducesEntropy(t *testing.T) {
	const ny, nx = 64, 64
	q := make([]int32, ny*nx)
	for i := 0; i < ny; i++ {
		for j := 0; j < nx; j++ {
			q[i*nx+j] = int32(40*math.Sin(float64(i)/9) + 40*math.Cos(float64(j)/11))
		}
	}
	preds, err := LorenzoAll(q, []int{ny, nx})
	if err != nil {
		t.Fatal(err)
	}
	codes := ResidualCodesInt(q, preds)
	hLorenzo := metrics.Entropy(metrics.Histogram(codes))
	hRaw := metrics.Entropy(metrics.Histogram(q))
	if hLorenzo >= hRaw {
		t.Fatalf("Lorenzo entropy %v >= raw %v", hLorenzo, hRaw)
	}
}
