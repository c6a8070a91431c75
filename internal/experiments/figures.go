package experiments

import (
	"fmt"
	"io"
	"math"
	"path/filepath"

	crossfield "repro"
	"repro/internal/cfnn"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// FigI reproduces Figure 1: a mid-depth slice of the SCALE U, V, W fields
// plus the cross-field correlation matrix that motivates the paper. If
// outDir is non-empty, PGM renderings of the slices are written there.
func FigI(w io.Writer, s Sizes, outDir string) error {
	section(w, "Figure 1: Cross-field correlation in SCALE (U, V, W slice)")
	ds, err := s.generate("SCALE")
	if err != nil {
		return err
	}
	k := s.ScaleNZ / 2 // the paper shows the 49th of 98 slices — mid-depth
	names := []string{"U", "V", "W"}
	slices := map[string]*tensor.Tensor{}
	for _, n := range names {
		f, err := ds.Field(n)
		if err != nil {
			return err
		}
		sl, err := f.Tensor().Slice3To2(k)
		if err != nil {
			return err
		}
		slices[n] = sl
		if outDir != "" {
			if err := sim.SavePGM(filepath.Join(outDir, "fig1_"+n+".pgm"), sl); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "slice k=%d of %v\n", k, ds.Dims)
	fmt.Fprintf(w, "pairwise correlation — value (Pearson/Spearman) and structural |∇| (Spearman):\n")
	for i, a := range names {
		for _, b := range names[i+1:] {
			pr, err := metrics.Pearson(slices[a].Data(), slices[b].Data())
			if err != nil {
				return err
			}
			sr, err := metrics.Spearman(slices[a].Data(), slices[b].Data())
			if err != nil {
				return err
			}
			// The paper's point is *structural* similarity ("distinct yet
			// nonlinear correlation"): wind components share gradient
			// structure even where their pointwise values are uncorrelated.
			gs, err := metrics.Spearman(gradMag(slices[a]), gradMag(slices[b]))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %s-%s: value %+.3f/%+.3f | structure %+.3f\n", a, b, pr, sr, gs)
		}
	}
	if outDir != "" {
		fmt.Fprintf(w, "PGM slices written to %s\n", outDir)
	}
	return nil
}

// gradMag returns the locally-averaged gradient magnitude of a rank-2
// tensor: per-point |∇| (one-sided at the boundary) box-smoothed over a
// 7×7 window. The smoothing matters — a single-pixel gradient magnitude is
// one half-normal sample and correlates weakly even between fields with
// identical energy structure; the window recovers the "similar structures"
// a reader sees in the paper's Figure 1.
func gradMag(t *tensor.Tensor) []float32 {
	ny, nx := t.Dim(0), t.Dim(1)
	raw := make([]float64, ny*nx)
	for i := 0; i < ny; i++ {
		for j := 0; j < nx; j++ {
			ii, jj := i, j
			if ii == ny-1 {
				ii--
			}
			if jj == nx-1 {
				jj--
			}
			gy := float64(t.At2(ii+1, j) - t.At2(ii, j))
			gx := float64(t.At2(i, jj+1) - t.At2(i, jj))
			raw[i*nx+j] = math.Hypot(gy, gx)
		}
	}
	const r = 3 // 7x7 box
	out := make([]float32, ny*nx)
	for i := 0; i < ny; i++ {
		for j := 0; j < nx; j++ {
			var sum float64
			n := 0
			for di := -r; di <= r; di++ {
				ii := i + di
				if ii < 0 || ii >= ny {
					continue
				}
				for dj := -r; dj <= r; dj++ {
					jj := j + dj
					if jj < 0 || jj >= nx {
						continue
					}
					sum += raw[ii*nx+jj]
					n++
				}
			}
			out[i*nx+j] = float32(sum / float64(n))
		}
	}
	return out
}

// FigV reproduces Figure 5: per-epoch training loss of the CFNN (left) and
// of the hybrid prediction model (right), both at relative error bound
// 1e-3 as in the paper.
func FigV(w io.Writer, s Sizes) error {
	section(w, "Figure 5: Training loss vs epoch")
	plan := crossfield.PaperPlans()[2] // Hurricane Wf, the paper's running example
	p, err := s.prepare(plan)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "CFNN (%s/%s, data normalized to 0-%d):\n", plan.Dataset, plan.Target, int(cfnnNormScale))
	for e, l := range p.codec.TrainingLosses() {
		fmt.Fprintf(w, "  epoch %2d: loss %.4f\n", e+1, l)
	}

	// Hybrid model trained by gradient descent on the codec's features at
	// rel-eb 1e-3 (Figure 5 right).
	feats, target, err := p.hybridSamples(crossfield.Rel(1e-3))
	if err != nil {
		return err
	}
	_, losses, err := predictor.TrainGD(feats, target, predictor.GDConfig{Epochs: 12, Seed: s.Seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Hybrid model (prequantized values, rel eb 1e-3):\n")
	for e, l := range losses {
		fmt.Fprintf(w, "  epoch %2d: loss %.4f\n", e+1, l)
	}
	return nil
}

const cfnnNormScale = 300.0

// codecPrediction is the codec's hybrid predictor on a target field at one
// bound, as a monolithic encode runs it: the field's absolute bound, its
// prequant codes, and core's feature builder over the CFNN's difference
// predictions from the decompressed anchors.
type codecPrediction struct {
	eb    float64
	q     []int32
	feats *core.Features
}

// predictionAt builds the codec's predictor for target at bound.
func predictionAt(target *crossfield.Field, model *cfnn.Model, anchorsDec []*crossfield.Field, bound crossfield.ErrorBound) (*codecPrediction, error) {
	eb, err := bound.Absolute(metrics.ValueRange(target.Data()))
	if err != nil {
		return nil, err
	}
	q, err := quant.Prequantize(target.Data(), eb)
	if err != nil {
		return nil, err
	}
	diffs, err := model.PredictDiffs(fieldTensorsOf(anchorsDec))
	if err != nil {
		return nil, err
	}
	inv := 1 / (2 * eb)
	dq := make([][]float64, len(diffs))
	for a, d := range diffs {
		dq[a] = make([]float64, d.Len())
		for i, v := range d.Data() {
			dq[a][i] = float64(v) * inv
		}
	}
	feats, err := core.NewFeatures(q, target.Dims(), dq, container.MethodHybrid)
	if err != nil {
		return nil, err
	}
	return &codecPrediction{eb: eb, q: q, feats: feats}, nil
}

// hybridSamples returns the codec's features at bound, one column per
// feature, and the prequant values at every 7th point in raster order: the
// training set of Figure 5's gradient-descent hybrid and of the fit
// ablations.
func (p *preparedPlan) hybridSamples(bound crossfield.ErrorBound) ([][]float64, []float64, error) {
	anchorsDec, err := decompressedAnchors(p.anchors, bound)
	if err != nil {
		return nil, nil, err
	}
	cp, err := predictionAt(p.target, p.codec.Model(), anchorsDec, bound)
	if err != nil {
		return nil, nil, err
	}
	const stride = 7
	n := len(cp.q) / stride
	feats := make([][]float64, cp.feats.Len())
	for k := range feats {
		feats[k] = make([]float64, n)
	}
	target := make([]float64, n)
	row := make([]float64, len(feats))
	for i := range target {
		for k, v := range cp.feats.Row(row, i*stride) {
			feats[k][i] = v
		}
		target[i] = float64(cp.q[i*stride])
	}
	return feats, target, nil
}

// qualityReport is the measurement of Figures 6 and 7: each predictor's
// prediction at every point in physical units, its PSNR against the
// field, and the codec's hybrid fit.
type qualityReport struct {
	lorenzo, cross, hybrid             *tensor.Tensor
	psnrLorenzo, psnrCross, psnrHybrid float64
	fit                                *predictor.Hybrid
}

// predictionQuality predicts every point of target the way the codec does
// at bound, over the target's prequant codes and the CFNN's predictions
// from the decompressed anchors: the Lorenzo feature, the mean of the
// per-axis cross-field features, and the codec's prediction under its own
// fit, each ×2·eb back to physical units.
func predictionQuality(target *crossfield.Field, model *cfnn.Model, anchorsDec []*crossfield.Field, bound crossfield.ErrorBound) (*qualityReport, error) {
	cp, err := predictionAt(target, model, anchorsDec, bound)
	if err != nil {
		return nil, err
	}
	fit, err := cp.feats.Fit()
	if err != nil {
		return nil, err
	}
	dims := target.Dims()
	rep := &qualityReport{lorenzo: tensor.New(dims...), cross: tensor.New(dims...), hybrid: tensor.New(dims...), fit: fit}
	ld, cd, hd := rep.lorenzo.Data(), rep.cross.Data(), rep.hybrid.Data()
	step := 2 * cp.eb
	row := make([]float64, cp.feats.Len())
	for p := range cp.q {
		cp.feats.Row(row, p)
		var sum float64
		for _, v := range row[1:] {
			sum += v
		}
		ld[p] = float32(row[0] * step)
		cd[p] = float32(sum / float64(len(dims)) * step)
		hd[p] = float32(float64(core.Predict(fit, row)) * step)
	}
	data := target.Data()
	if rep.psnrLorenzo, err = metrics.PSNR(data, ld); err != nil {
		return nil, err
	}
	if rep.psnrCross, err = metrics.PSNR(data, cd); err != nil {
		return nil, err
	}
	if rep.psnrHybrid, err = metrics.PSNR(data, hd); err != nil {
		return nil, err
	}
	return rep, nil
}

func fieldTensorsOf(fs []*crossfield.Field) []*tensor.Tensor {
	ts := make([]*tensor.Tensor, len(fs))
	for i, f := range fs {
		ts[i] = f.Tensor()
	}
	return ts
}

// FigVI reproduces Figures 6 and 7: prediction-only reconstruction of
// Hurricane Wf via cross-field, Lorenzo, and hybrid prediction, with
// whole-slice PSNR (Fig 6) and a zoomed 50×50-equivalent region comparison
// (Fig 7). The predictions are the codec's own at rel eb 1e-3: prequant
// codes, CFNN predictions from decompressed anchors and the codec's hybrid
// fit, scaled back to physical units. PGM slices go to outDir if
// non-empty.
func FigVI(w io.Writer, s Sizes, outDir string) error {
	section(w, "Figures 6 & 7: Prediction accuracy (Hurricane Wf from Uf,Vf,Pf; prequant, rel eb 1e-3, decompressed anchors)")
	plan := crossfield.PaperPlans()[2]
	p, err := s.prepare(plan)
	if err != nil {
		return err
	}
	bound := crossfield.Rel(1e-3)
	anchorsDec, err := decompressedAnchors(p.anchors, bound)
	if err != nil {
		return err
	}
	rep, err := predictionQuality(p.target, p.codec.Model(), anchorsDec, bound)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "prediction PSNR (dB): cross-field %.2f | lorenzo %.2f | hybrid %.2f\n",
		rep.psnrCross, rep.psnrLorenzo, rep.psnrHybrid)
	fmt.Fprintf(w, "hybrid weights [lorenzo, d_z, d_y, d_x, bias]: %v\n", fmtWeights(append(append([]float64(nil), rep.fit.W...), rep.fit.Bias)))
	share := rep.fit.WeightShare()
	fmt.Fprintf(w, "weight share: lorenzo %.0f%%, dz %.0f%%, dy %.0f%%, dx %.0f%%\n",
		share[0]*100, share[1]*100, share[2]*100, share[3]*100)

	// Figure 6's view: slice along the second dimension (axis 1).
	mid := p.target.Dims()[1] / 2
	views := map[string]*tensor.Tensor{
		"original": p.target.Tensor(),
		"cross":    rep.cross,
		"lorenzo":  rep.lorenzo,
		"hybrid":   rep.hybrid,
	}
	var zoomErr = map[string]float64{}
	for name, t := range views {
		sl, err := t.SliceAxis1(mid)
		if err != nil {
			return err
		}
		if outDir != "" {
			if err := sim.SavePGM(filepath.Join(outDir, "fig6_"+name+".pgm"), sl); err != nil {
				return err
			}
		}
		// Figure 7: zoom region near the eyewall (upper-left quadrant
		// center), scaled to the grid.
		zh := maxInt(sl.Dim(0)/3, minInt(4, sl.Dim(0)))
		zw := maxInt(sl.Dim(1)/3, minInt(4, sl.Dim(1)))
		oi := minInt(sl.Dim(0)/4, sl.Dim(0)-zh)
		oj := minInt(sl.Dim(1)/4, sl.Dim(1)-zw)
		crop, err := sl.Crop2D(oi, oj, zh, zw)
		if err != nil {
			return err
		}
		if outDir != "" {
			if err := sim.SavePGM(filepath.Join(outDir, "fig7_"+name+".pgm"), crop); err != nil {
				return err
			}
		}
		if name != "original" {
			origSl, err := p.target.Tensor().SliceAxis1(mid)
			if err != nil {
				return err
			}
			origCrop, err := origSl.Crop2D(oi, oj, zh, zw)
			if err != nil {
				return err
			}
			mae := 0.0
			for i := range crop.Data() {
				mae += math.Abs(float64(crop.Data()[i] - origCrop.Data()[i]))
			}
			zoomErr[name] = mae / float64(crop.Len())
		}
	}
	fmt.Fprintf(w, "zoom-region MAE (Fig 7): cross %.4f | lorenzo %.4f | hybrid %.4f\n",
		zoomErr["cross"], zoomErr["lorenzo"], zoomErr["hybrid"])
	if outDir != "" {
		fmt.Fprintf(w, "PGM slices written to %s\n", outDir)
	}
	return nil
}

func fmtWeights(ws []float64) string {
	out := "["
	for i, v := range ws {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%.3f", v)
	}
	return out + "]"
}

// FigVIIIPoint is one rate-distortion sample.
type FigVIIIPoint struct {
	EB                       float64
	PSNR                     float64
	BaselineBits, HybridBits float64
}

// FigVIII reproduces Figure 8: rate-distortion (PSNR vs bit-rate) for all
// six (dataset, field) panels, baseline vs ours. Because dual quantization
// makes both methods reconstruct identical data at a given bound, each
// bound yields one PSNR and two bit-rates.
func FigVIII(w io.Writer, s Sizes) (map[string][]*FigVIIIPoint, error) {
	section(w, "Figure 8: Rate-distortion comparison (bitrate vs PSNR)")
	out := make(map[string][]*FigVIIIPoint)
	for _, plan := range crossfield.PaperPlans() {
		p, err := s.prepare(plan)
		if err != nil {
			return nil, err
		}
		key := plan.Dataset + "-" + plan.Target
		fmt.Fprintf(w, "%s:\n", key)
		fmt.Fprintf(w, "  %-9s %-9s %-14s %-14s\n", "eb", "PSNR", "bits(base)", "bits(ours)")
		for _, eb := range Fig8Bounds() {
			pt, err := p.evaluate(eb)
			if err != nil {
				return nil, err
			}
			if !pt.BoundOK {
				return nil, fmt.Errorf("experiments: bound violated in fig8 %s eb=%g", key, eb)
			}
			out[key] = append(out[key], &FigVIIIPoint{
				EB: eb, PSNR: pt.PSNR, BaselineBits: pt.BaselineBits, HybridBits: pt.HybridBits,
			})
			fmt.Fprintf(w, "  %-9.0e %-9.2f %-14.4f %-14.4f\n", eb, pt.PSNR, pt.BaselineBits, pt.HybridBits)
		}
	}
	return out, nil
}

// FigIX reproduces Figure 9: CLDTOT decompressed by both methods at a fixed
// ~17x compression ratio; the method that achieves 17x with the smaller
// error bound shows fewer artifacts, measured by SSIM and a zoom-region
// MAE. PGM crops go to outDir.
func FigIX(w io.Writer, s Sizes, outDir string) error {
	section(w, "Figure 9: CLDTOT artifacts at fixed ~17x compression ratio")
	plan := crossfield.PaperPlans()[3] // CESM CLDTOT
	p, err := s.prepare(plan)
	if err != nil {
		return err
	}
	const targetCR = 17.0

	baseEB, baseRes, err := searchEBForRatio(p, targetCR, modeBaseline)
	if err != nil {
		return err
	}
	hybEB, hybRes, err := searchEBForRatio(p, targetCR, modeHybrid)
	if err != nil {
		return err
	}
	// On these reduced grids the embedded CFNN model is a significant
	// fraction of the blob, so the strict-ratio comparison is dominated by
	// model overhead (see Table II); the payload-basis search shows the
	// large-field equivalent, where the model cost amortizes away.
	hybPayEB, hybPayRes, err := searchEBForRatio(p, targetCR, modeHybridPayload)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "eb reaching ~%.0fx: baseline rel=%.2e (CR %.2f) | ours rel=%.2e (CR %.2f) | ours-payload rel=%.2e (CR %.2f)\n",
		targetCR, baseEB, baseRes.cr, hybEB, hybRes.cr, hybPayEB, hybPayRes.cr)
	ssimBase, err := metrics.SSIM(p.target.Tensor(), baseRes.recon.Tensor())
	if err != nil {
		return err
	}
	ssimHyb, err := metrics.SSIM(p.target.Tensor(), hybRes.recon.Tensor())
	if err != nil {
		return err
	}
	ssimPay, err := metrics.SSIM(p.target.Tensor(), hybPayRes.recon.Tensor())
	if err != nil {
		return err
	}
	psnrBase, _ := reconPSNR(p.target, baseRes.recon)
	psnrHyb, _ := reconPSNR(p.target, hybRes.recon)
	psnrPay, _ := reconPSNR(p.target, hybPayRes.recon)
	fmt.Fprintf(w, "at equal ratio: baseline SSIM %.4f PSNR %.2f | ours(strict) SSIM %.4f PSNR %.2f | ours(payload basis) SSIM %.4f PSNR %.2f\n",
		ssimBase, psnrBase, ssimHyb, psnrHyb, ssimPay, psnrPay)

	if outDir != "" {
		zh, zw := p.target.Dims()[0]/6, p.target.Dims()[1]/6
		if zh < 8 {
			zh = minInt(p.target.Dims()[0], 8)
		}
		if zw < 8 {
			zw = minInt(p.target.Dims()[1], 8)
		}
		for name, f := range map[string]*crossfield.Field{
			"original": p.target, "baseline": baseRes.recon, "ours": hybRes.recon,
		} {
			crop, err := f.Tensor().Crop2D(p.target.Dims()[0]/3, p.target.Dims()[1]/3, zh, zw)
			if err != nil {
				return err
			}
			if err := sim.SavePGM(filepath.Join(outDir, "fig9_"+name+".pgm"), crop); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "PGM crops written to %s\n", outDir)
	}
	return nil
}

type ratioResult struct {
	cr    float64
	recon *crossfield.Field
}

// ratioMode selects what the eb search targets.
type ratioMode int

const (
	modeBaseline ratioMode = iota
	modeHybrid
	// modeHybridPayload targets the model-excluded ratio — the large-field
	// asymptote where the fixed CFNN cost has amortized away.
	modeHybridPayload
)

// searchEBForRatio bisects the relative error bound until the compression
// ratio is within 5% of the target (or the bracket is exhausted).
func searchEBForRatio(p *preparedPlan, target float64, mode ratioMode) (float64, *ratioResult, error) {
	lo, hi := 1e-5, 5e-2 // CR grows with eb
	var best *ratioResult
	var bestEB float64
	for iter := 0; iter < 18; iter++ {
		mid := math.Sqrt(lo * hi) // geometric bisection
		cr, recon, err := ratioAt(p, mid, mode)
		if err != nil {
			return 0, nil, err
		}
		if best == nil || math.Abs(cr-target) < math.Abs(best.cr-target) {
			best = &ratioResult{cr: cr, recon: recon}
			bestEB = mid
		}
		if math.Abs(cr-target)/target < 0.05 {
			break
		}
		if cr < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return bestEB, best, nil
}

func ratioAt(p *preparedPlan, rel float64, mode ratioMode) (float64, *crossfield.Field, error) {
	bound := crossfield.Rel(rel)
	if mode == modeBaseline {
		comp, err := crossfield.CompressBaseline(p.target, bound)
		if err != nil {
			return 0, nil, err
		}
		recon, err := crossfield.Decompress(p.target.Name, comp.Blob, nil)
		if err != nil {
			return 0, nil, err
		}
		return comp.Stats.Ratio, recon, nil
	}
	anchorsDec, err := decompressedAnchors(p.anchors, bound)
	if err != nil {
		return 0, nil, err
	}
	comp, err := p.codec.Compress(p.target, anchorsDec, bound)
	if err != nil {
		return 0, nil, err
	}
	recon, err := p.codec.Decompress(comp.Blob, anchorsDec)
	if err != nil {
		return 0, nil, err
	}
	cr := comp.Stats.Ratio
	if mode == modeHybridPayload {
		payload := comp.Stats.CompressedBytes - comp.Stats.ModelBytes
		if payload > 0 {
			cr = float64(comp.Stats.OriginalBytes) / float64(payload)
		}
	}
	return cr, recon, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
