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
	arena := nn.NewArena()
	x := arena.Act("cfnn.patch.in", append([]int{len(inChans)}, patch...)...)
	y := arena.Act("cfnn.patch.out", append([]int{len(outChans)}, patch...)...)
	origin := make([]int, len(spatial))
	losses := make([]float64, 0, tc.Epochs)
	for e := 0; e < tc.Epochs; e++ {
		var epochLoss float64
		var samples int
		for s := 0; s < tc.StepsPerEpoch; s++ {
			nn.ZeroGrads(params)
			for b := 0; b < tc.Batch; b++ {
				for ax := range origin {
					origin[ax] = rng.Intn(spatial[ax] - patch[ax] + 1)
				}
				extractPatch(x, inChans, m.inOff, m.inScale, m.inMean, spatial, origin)
				extractPatch(y, outChans, m.outOff, m.outScale, m.outMean, spatial, origin)
				pred, err := m.net.Forward(x, arena)
				if err != nil {
					return nil, err
				}
				loss, grad, err := nn.MSELoss(pred, y, arena)
				if err != nil {
					return nil, err
				}
				if err := m.net.Backward(grad, arena); err != nil {
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

// extractPatch fills dst, a (C, patch...) activation, with the window at
// origin of full-field channels of the given spatial shape, in network
// units. A 2D field is one plane of a 3D one.
func extractPatch(dst nn.Act, chans []*tensor.Tensor, off, scale, mean []float32, spatial, origin []int) {
	r := len(spatial)
	pd, pz := 1, 0
	if r == 3 {
		pd, pz = dst.Dim(1), origin[0]
	}
	ph, pw := dst.Dim(r-1), dst.Dim(r)
	fh, fw := spatial[r-2], spatial[r-1]
	i := 0
	for c, ch := range chans {
		o, s, mu := off[c], scale[c], mean[c]
		src := ch.Data()
		for z := pz; z < pz+pd; z++ {
			for row := origin[r-2]; row < origin[r-2]+ph; row++ {
				base := (z*fh+row)*fw + origin[r-1]
				for _, v := range src[base : base+pw] {
					dst.Data[i] = float64(netValue(v, o, s, mu))
					i++
				}
			}
		}
	}
}
