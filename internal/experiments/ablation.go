package experiments

import (
	"context"
	"fmt"
	"io"

	crossfield "repro"
	"repro/internal/cfnn"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/quant"
)

// Ablation studies for the design choices Section III motivates but does
// not quantify. They go beyond the paper's tables, as DESIGN.md documents.

// AblationPredictors compares the residual entropy (bits/code — the
// quantity the Huffman stage pays for) of the SZ-family local predictors
// and of the cross-field pipeline on the Hurricane Wf field at rel-eb 1e-3.
// Contextualizes the paper's choice of Lorenzo as the local baseline.
func AblationPredictors(w io.Writer, s Sizes) error {
	section(w, "Ablation: residual entropy per predictor (Hurricane Wf, rel eb 1e-3)")
	plan := crossfield.PaperPlans()[2]
	p, err := s.prepare(plan)
	if err != nil {
		return err
	}
	bound := crossfield.Rel(1e-3)
	eb, err := bound.Absolute(metrics.ValueRange(p.target.Data()))
	if err != nil {
		return err
	}
	q, err := quant.Prequantize(p.target.Data(), eb)
	if err != nil {
		return err
	}
	dims := p.target.Dims()

	entropyOf := func(codes []int32) float64 {
		return metrics.Entropy(metrics.Histogram(codes))
	}
	// Raw prequant values (no prediction).
	fmt.Fprintf(w, "  %-22s %8.4f bits/val\n", "none (raw prequant)", entropyOf(q))

	lor, err := predictor.LorenzoAll(q, dims)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-22s %8.4f bits/val\n", "lorenzo", entropyOf(predictor.ResidualCodesInt(q, lor)))

	reg, err := predictor.RegressionAll(q, dims)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-22s %8.4f bits/val\n", "regression (SZ2)", entropyOf(predictor.ResidualCodes(q, reg)))

	interp, err := predictor.InterpolationAll(q, dims)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-22s %8.4f bits/val\n", "interpolation (SZ3)", entropyOf(predictor.ResidualCodes(q, interp)))

	anchorsDec, err := decompressedAnchors(p.anchors, bound)
	if err != nil {
		return err
	}
	crossSt, err := core.CompressCrossOnly(context.Background(), io.Discard, p.target.Tensor(), core.EncodeRequest{
		Bound: bound, Model: p.codec.Model(), Anchors: fieldTensorsOf(anchorsDec),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-22s %8.4f bits/val\n", "cross-field only", crossSt.CodeEntropy)

	hybRes, err := p.codec.Compress(p.target, anchorsDec, bound)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-22s %8.4f bits/val\n", "hybrid (ours)", hybRes.Stats.CodeEntropy)
	return nil
}

// AblationHybridFit compares the closed-form least-squares hybrid fit
// against the paper's gradient-descent trainer: both weight vectors and the
// resulting compression ratios.
func AblationHybridFit(w io.Writer, s Sizes) error {
	section(w, "Ablation: hybrid weights via least squares vs gradient descent")
	plan := crossfield.PaperPlans()[2]
	p, err := s.prepare(plan)
	if err != nil {
		return err
	}
	feats, target, err := p.hybridSamples(crossfield.Rel(1e-3))
	if err != nil {
		return err
	}
	ls, err := predictor.Fit(feats, target)
	if err != nil {
		return err
	}
	gd, losses, err := predictor.TrainGD(feats, target, predictor.GDConfig{Epochs: 25, Seed: s.Seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  LS weights: %v bias %.4f\n", fmtWeights(ls.W), ls.Bias)
	fmt.Fprintf(w, "  GD weights: %v bias %.4f (final loss %.4f)\n", fmtWeights(gd.W), gd.Bias, losses[len(losses)-1])
	// Residual MSE of each on the sample.
	mse := func(h *predictor.Hybrid) float64 {
		var sum float64
		row := make([]float64, len(feats))
		for i := range target {
			for k := range feats {
				row[k] = feats[k][i]
			}
			d := h.Apply(row) - target[i]
			sum += d * d
		}
		return sum / float64(len(target))
	}
	fmt.Fprintf(w, "  sample MSE: LS %.4f | GD %.4f\n", mse(ls), mse(gd))
	return nil
}

// AblationAttention trains the CFNN with and without the channel-attention
// block and compares prediction PSNR and hybrid compression ratio —
// quantifying the paper's architectural choice (Section III-D2).
func AblationAttention(w io.Writer, s Sizes) error {
	section(w, "Ablation: CFNN with vs without channel attention (Hurricane Wf)")
	plan := crossfield.PaperPlans()[2]
	ds, err := s.generate(plan.Dataset)
	if err != nil {
		return err
	}
	target, err := ds.Field(plan.Target)
	if err != nil {
		return err
	}
	anchors, err := ds.Fieldset(plan.Anchors...)
	if err != nil {
		return err
	}
	bound := crossfield.Rel(1e-3)
	anchorsDec, err := decompressedAnchors(anchors, bound)
	if err != nil {
		return err
	}
	for _, variant := range []struct {
		name        string
		noAttention bool
	}{{"with attention", false}, {"no attention", true}} {
		cfg := cfnn.FastConfig(len(target.Dims()), len(anchors))
		cfg.Features = s.Features3D
		cfg.NoAttention = variant.noAttention
		cfg.Seed = s.Seed
		m, err := cfnn.New(cfg)
		if err != nil {
			return err
		}
		if _, err := m.Train(fieldTensorsOf(anchors), target.Tensor(), cfnn.TrainConfig{
			Epochs: s.Epochs, StepsPerEpoch: s.StepsPerEpoch, Batch: s.Batch, Seed: s.Seed + 3,
		}); err != nil {
			return err
		}
		rep, err := predictionQuality(target, m, anchorsDec, bound)
		if err != nil {
			return err
		}
		st, err := core.Encode(context.Background(), io.Discard, target.Tensor(), core.EncodeRequest{
			Bound: bound, Model: m, Anchors: fieldTensorsOf(anchorsDec),
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-16s params %6d | cross-pred PSNR %6.2f dB | hybrid CR %6.2f\n",
			variant.name, m.ParamCount(), rep.psnrCross, st.Ratio)
	}
	return nil
}

// AblationBlockwiseHybrid explores the paper's Section V plan to "refine
// the hybrid prediction model": instead of one global weight vector, fit
// least-squares weights per spatial block and measure the prediction-MSE
// gain. (Kept at the prediction level: per-block weights would add
// blocks×(n+2) floats to the stored stream; this measures whether that
// storage could pay off.)
func AblationBlockwiseHybrid(w io.Writer, s Sizes) error {
	section(w, "Ablation: global vs block-local hybrid weights (prediction MSE)")
	plan := crossfield.PaperPlans()[2]
	p, err := s.prepare(plan)
	if err != nil {
		return err
	}
	feats, target, err := p.hybridSamples(crossfield.Rel(1e-3))
	if err != nil {
		return err
	}
	global, err := predictor.Fit(feats, target)
	if err != nil {
		return err
	}
	mseOf := func(h *predictor.Hybrid, lo, hi int) float64 {
		row := make([]float64, len(feats))
		var sum float64
		for i := lo; i < hi; i++ {
			for k := range feats {
				row[k] = feats[k][i]
			}
			d := h.Apply(row) - target[i]
			sum += d * d
		}
		return sum
	}
	n := len(target)
	globalMSE := mseOf(global, 0, n) / float64(n)

	// Block-local: contiguous sample blocks (the features were sampled in
	// raster order, so contiguity approximates spatial blocks).
	const blocks = 16
	var localSum float64
	var extraParams int
	bs := (n + blocks - 1) / blocks
	for b := 0; b < blocks; b++ {
		lo := b * bs
		hi := lo + bs
		if hi > n {
			hi = n
		}
		if hi-lo < len(feats)+2 {
			continue
		}
		sub := make([][]float64, len(feats))
		for k := range feats {
			sub[k] = feats[k][lo:hi]
		}
		h, err := predictor.Fit(sub, target[lo:hi])
		if err != nil {
			h = global
		}
		localSum += mseOf(h, lo, hi)
		extraParams += len(feats) + 1
	}
	localMSE := localSum / float64(n)
	fmt.Fprintf(w, "  global weights:      MSE %.4f (%d params)\n", globalMSE, len(feats)+1)
	fmt.Fprintf(w, "  block-local weights: MSE %.4f (%d params, %d blocks)\n", localMSE, extraParams, blocks)
	fmt.Fprintf(w, "  reduction: %.2f%%\n", (globalMSE-localMSE)/globalMSE*100)
	return nil
}

// AblationDirectValue quantifies Section III-B's claim that predicting raw
// values cross-field "rarely performs well" compared to predicting
// first-order differences: it reports the PSNR of the cross-field
// *difference*-based prediction against a naive raw-value regression
// (per-point linear model from anchor values, the best non-NN raw-value
// baseline that needs no extra storage).
func AblationDirectValue(w io.Writer, s Sizes) error {
	section(w, "Ablation: difference prediction vs direct value prediction")
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
	// Direct-value baseline: least-squares linear map from anchor values
	// (plus bias) to target values, evaluated pointwise.
	n := p.target.Len()
	feats := make([][]float64, len(p.anchors))
	for k, a := range p.anchors {
		feats[k] = make([]float64, n)
		for i, v := range a.Data() {
			feats[k][i] = float64(v)
		}
	}
	tgt := make([]float64, n)
	for i, v := range p.target.Data() {
		tgt[i] = float64(v)
	}
	h, err := predictor.Fit(feats, tgt)
	if err != nil {
		return err
	}
	pred := make([]float32, n)
	row := make([]float64, len(feats))
	for i := 0; i < n; i++ {
		for k := range feats {
			row[k] = feats[k][i]
		}
		pred[i] = float32(h.Apply(row))
	}
	psnrDirect, err := metrics.PSNR(p.target.Data(), pred)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  diff-based cross-field PSNR: %6.2f dB\n", rep.psnrCross)
	fmt.Fprintf(w, "  direct-value linear PSNR:    %6.2f dB\n", psnrDirect)
	return nil
}
