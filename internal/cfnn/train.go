package cfnn

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TrainConfig controls patch-based CFNN training.
type TrainConfig struct {
	Epochs        int     // default 8
	StepsPerEpoch int     // default 12
	Batch         int     // default 2
	PatchD        int     // 3D only; default 6
	PatchH        int     // default 16
	PatchW        int     // default 16
	LR            float64 // default 2e-3 (Adam)
	Seed          int64
}

func (tc TrainConfig) withDefaults() TrainConfig {
	if tc.Epochs <= 0 {
		tc.Epochs = 8
	}
	if tc.StepsPerEpoch <= 0 {
		tc.StepsPerEpoch = 12
	}
	if tc.Batch <= 0 {
		tc.Batch = 2
	}
	if tc.PatchD <= 0 {
		tc.PatchD = 6
	}
	if tc.PatchH <= 0 {
		tc.PatchH = 16
	}
	if tc.PatchW <= 0 {
		tc.PatchW = 16
	}
	if tc.LR <= 0 {
		tc.LR = 2e-3
	}
	return tc
}

// Train fits the CFNN on (anchor-diffs → target-diffs) patches sampled from
// the *original* fields (Section III-B: training on original data lets one
// model serve every error bound) and returns the per-epoch mean training
// loss — the series plotted in Figure 5 (left).
func (m *Model) Train(anchors []*tensor.Tensor, target *tensor.Tensor, tc TrainConfig) ([]float64, error) {
	tc = tc.withDefaults()
	inChans, err := m.anchorDiffChannels(anchors)
	if err != nil {
		return nil, err
	}
	if target.Rank() != m.Cfg.SpatialRank || !target.SameShape(anchors[0]) {
		return nil, fmt.Errorf("cfnn: target shape %v incompatible with anchors %v", target.Shape(), anchors[0].Shape())
	}
	outChans, err := diffChannels(target)
	if err != nil {
		return nil, err
	}
	captureNorm(inChans, m.inOff, m.inScale)
	captureNorm(outChans, m.outOff, m.outScale)
	captureMeans(inChans, m.inOff, m.inScale, m.inMean)
	captureMeans(outChans, m.outOff, m.outScale, m.outMean)

	spatial := target.Shape()
	patch := make([]int, len(spatial))
	if m.Cfg.SpatialRank == 3 {
		patch[0], patch[1], patch[2] = tc.PatchD, tc.PatchH, tc.PatchW
	} else {
		patch[0], patch[1] = tc.PatchH, tc.PatchW
	}
	for ax := range patch {
		if patch[ax] > spatial[ax] {
			patch[ax] = spatial[ax]
		}
	}

	rng := rand.New(rand.NewSource(tc.Seed))
	opt := nn.NewAdam(tc.LR)
	params := m.net.Params()
	losses := make([]float64, 0, tc.Epochs)
	for e := 0; e < tc.Epochs; e++ {
		var epochLoss float64
		var samples int
		for s := 0; s < tc.StepsPerEpoch; s++ {
			nn.ZeroGrads(params)
			for b := 0; b < tc.Batch; b++ {
				origin := make([]int, len(spatial))
				for ax := range origin {
					origin[ax] = rng.Intn(spatial[ax] - patch[ax] + 1)
				}
				x := extractPatch(inChans, m.inOff, m.inScale, m.inMean, origin, patch)
				y := extractPatch(outChans, m.outOff, m.outScale, m.outMean, origin, patch)
				pred, err := m.net.Forward(x)
				if err != nil {
					return nil, err
				}
				loss, grad, err := nn.MSELoss(pred, y)
				if err != nil {
					return nil, err
				}
				if _, err := m.net.Backward(grad); err != nil {
					return nil, err
				}
				// Report the loss in the paper's normalized 0-300 units
				// (the network computes on values scaled by internalScale).
				epochLoss += float64(loss * internalScale * internalScale)
				samples++
			}
			nn.ScaleGrads(params, 1/float32(tc.Batch))
			opt.Step(params)
		}
		losses = append(losses, epochLoss/float64(samples))
	}
	m.trained = true
	return losses, nil
}

// extractPatch copies a (C, patch...) window from full-field channels in
// network units.
func extractPatch(chans []*tensor.Tensor, off, scale, mean []float32, origin, patch []int) *tensor.Tensor {
	shape := append([]int{len(chans)}, patch...)
	out := tensor.New(shape...)
	od := out.Data()
	per := 1
	for _, p := range patch {
		per *= p
	}
	for c, ch := range chans {
		o, s, mu := off[c], scale[c], mean[c]
		dst := od[c*per : (c+1)*per]
		switch len(patch) {
		case 2:
			w := patch[1]
			for i := 0; i < patch[0]; i++ {
				for j := 0; j < w; j++ {
					dst[i*w+j] = netValue(ch.At2(origin[0]+i, origin[1]+j), o, s, mu)
				}
			}
		case 3:
			h, w := patch[1], patch[2]
			for k := 0; k < patch[0]; k++ {
				for i := 0; i < h; i++ {
					for j := 0; j < w; j++ {
						dst[(k*h+i)*w+j] = netValue(ch.At3(origin[0]+k, origin[1]+i, origin[2]+j), o, s, mu)
					}
				}
			}
		}
	}
	return out
}
