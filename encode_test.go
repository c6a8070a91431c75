package crossfield_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	crossfield "repro"
)

// TestEncodeReproducesGolden re-encodes every fixture the current encoder
// writes and holds it to the committed file byte for byte: the decode
// goldens pin what old bytes mean, this pins that the encoder still writes
// them.
func TestEncodeReproducesGolden(t *testing.T) {
	files := make([]string, 0, len(goldenEncoders))
	for file := range goldenEncoders {
		files = append(files, file)
	}
	slices.Sort(files)
	for _, file := range files {
		t.Run(file, func(t *testing.T) {
			got, want := encodeGolden(t, file), readGolden(t, file)
			if !bytes.Equal(got, want) {
				t.Fatalf("re-encoded %d B, committed %d B: bytes differ", len(got), len(want))
			}
		})
	}
}

// matrixFields returns a seeded smooth target and the two anchors it is a
// pointwise mix of, with dims (rank 2 or 3).
func matrixFields(seed int64, dims ...int) (*crossfield.Field, []*crossfield.Field) {
	rng := rand.New(rand.NewSource(seed))
	n := 1
	for _, d := range dims {
		n *= d
	}
	var fr [3][3]float64
	for i := range fr {
		for j := range fr[i] {
			fr[i][j] = 0.2 + rng.Float64()
		}
	}
	a := make([]float32, n)
	b := make([]float32, n)
	w := make([]float32, n)
	for p := range n {
		var c [3]float64
		for q, k := p, len(dims)-1; k >= 0; k-- {
			c[k] = float64(q % dims[k])
			q /= dims[k]
		}
		x := math.Sin(fr[0][0]*c[0]+fr[0][1]*c[1]+fr[0][2]*c[2]) + 0.05*rng.Float64()
		y := math.Cos(fr[1][0]*c[0]-fr[1][1]*c[1]+fr[1][2]*c[2]) + 0.05*rng.Float64()
		a[p], b[p] = float32(10*x), float32(7*y)
		w[p] = float32(4*x - 3*y + 0.3*x*y)
	}
	return crossfield.MustNewField("W", w, dims...), []*crossfield.Field{
		crossfield.MustNewField("A", a, dims...),
		crossfield.MustNewField("B", b, dims...),
	}
}

// matrixLayouts are the route matrix's layouts: monolithic CFC1, then
// CFC2 in chunks of slabs3D (rank 3, 9 slabs) or slabs2D (rank 2, 24 rows)
// slabs each: three even chunks, chunks with a short tail, one slab per
// chunk, and one chunk holding the whole field.
var matrixLayouts = []struct {
	name             string
	slabs3D, slabs2D int
}{
	{"cfc1", 0, 0}, {"cfc2x3", 3, 8}, {"cfc2tail", 2, 5}, {"cfc2slab", 1, 1}, {"cfc2x1", 9, 24},
}

// TestEncodeRouteMatrix pins the encoder's bytes on every route: rank 2
// and 3, baseline and hybrid, each of matrixLayouts, one level and three
// progressive levels, at 1, 2 and 3 workers. The chunked routes take the
// worker count from WithWorkers; every route also runs at that
// GOMAXPROCS, which bounds the kernels of a monolithic encode. Each
// route's bytes must be the same at every worker count, and their SHA-256
// is pinned. Every blob must hold the planned chunks and decode within its
// bound.
func TestEncodeRouteMatrix(t *testing.T) {
	want := map[string]string{
		"r2/baseline/cfc1/levels1":     "45d1bfdb98226e036ea2ed27f6f649da4704a77fad7ff733f6ffecd36bfb85bf",
		"r2/baseline/cfc1/levels3":     "1dd236658b633d41c9c67fa9964c7dcf5bfb840cf154dcc2cee63b798728fdd6",
		"r2/baseline/cfc2x3/levels1":   "57ae76a5f0fc427d68640273f241b10ae1f56f11970e02ad76fcb3d2d0939c12",
		"r2/baseline/cfc2x3/levels3":   "4ec83e716fb8bc6b26ff7e025d1ffc705982a0d09d1f76b6cd1c9cc5a1a8c721",
		"r2/baseline/cfc2tail/levels1": "48aaec0408ef076a5e9a07325657b41c6d98a17f133f525586d5c65d2880a35d",
		"r2/baseline/cfc2tail/levels3": "583194280027a79a23863e6d31f02f0901143165d3d8785376e5fc17de2b7e17",
		"r2/baseline/cfc2slab/levels1": "fe0afed405bde150d6c94cb70e0227b2b8dfe66d0d952699d47f4710af8cb5c7",
		"r2/baseline/cfc2slab/levels3": "815d7b68f5ab61e28cceacd2624a8bbc495de016294c15999a5d399ac6cab04d",
		"r2/baseline/cfc2x1/levels1":   "d0beb3fbf04b54a205e35c1243527130e81931803bd91307cbe432e05909fc15",
		"r2/baseline/cfc2x1/levels3":   "f3ad15d4abd8e1a49f639278be952a20d534ca37075ec96e6c9aae1693635cf5",
		"r2/hybrid/cfc1/levels1":       "474ef064acc08c10e044ed99fba6c2e2b9f89a04f77834280395c2751b95ec2b",
		"r2/hybrid/cfc1/levels3":       "1fc49738bd68a3164f4013bb2b8ab3fd79164edb99a69e5044cbef1762e9cc0f",
		"r2/hybrid/cfc2x3/levels1":     "672d593a15d2cfe86059994326cdff6446f82b02ce3e024bb49f1f1d40c3a238",
		"r2/hybrid/cfc2x3/levels3":     "c54dbab1adb2425b2e25f6533910f8861000523d345d0e2086a7a364e2ea7d69",
		"r2/hybrid/cfc2tail/levels1":   "e276e1c5ce75d8fb094243b4eaa39e750d58b3005595ecaa0d8093456f528e85",
		"r2/hybrid/cfc2tail/levels3":   "27164ca0d9a2d28cfb909b10847a045ec0a2af85ddf2334e562884641325b48a",
		"r2/hybrid/cfc2slab/levels1":   "c87f421d0daa684d118b701b2142d8c1cc2b35eb0edef1075213f2aca7cc1ed3",
		"r2/hybrid/cfc2slab/levels3":   "b03d1a13171c2e339d1df443de47458ae0c93c8c4d2b7c3ad5a852993869882b",
		"r2/hybrid/cfc2x1/levels1":     "c62476562e451b4648e01ed4a8121e9241e82eb6d383dc21981378ee7a7545c6",
		"r2/hybrid/cfc2x1/levels3":     "659aff71844be36ec101aa9cace6890b51e1a9e4e308806f45b138a5fddd425e",
		"r3/baseline/cfc1/levels1":     "bd19fd599829c9a8dee38aa8cb6c0a68f4e06e095ca0a6aae6ad694c7ec2189d",
		"r3/baseline/cfc1/levels3":     "0f241df149bf798c4879237101fb80c88d5e958b12f38d7cd1c5bb8230ad4577",
		"r3/baseline/cfc2x3/levels1":   "30fafb4009a769e8922dcaecbbec343aca909ac55080f419552de2dc3a0bd5c9",
		"r3/baseline/cfc2x3/levels3":   "0262d2b904e601862719cd184bd568f6f0f15096dad74a7bb2d7f7a7445e83f6",
		"r3/baseline/cfc2tail/levels1": "c690e25ca6c5e84acb1bf6773058a3d05df6bc642d3366d246cfd2509f5e71de",
		"r3/baseline/cfc2tail/levels3": "40e7962dd62138bfa3178e07a6ffc8ade7ab449de126f78fe917344e52c0ed31",
		"r3/baseline/cfc2slab/levels1": "02e6d54a475c51a6040ac21562254de3c76761d8621c527521f7e21a1f680c51",
		"r3/baseline/cfc2slab/levels3": "1d1a44f3d9c00c9e876edb764b2e454715d184208c8f6c632a035e3a70cc25f4",
		"r3/baseline/cfc2x1/levels1":   "3171e34d03117e65fd1fe388d858b066f46eb4469f3133e1f66c95c8151eca87",
		"r3/baseline/cfc2x1/levels3":   "444acd7f4518a6f00f5914232682d0b0ccdc2c8aeac8bcf72f471f3491f1251d",
		"r3/hybrid/cfc1/levels1":       "935369a28a921501ba6af75b27dcd9974a1425da878d33a772e4e50ad705a468",
		"r3/hybrid/cfc1/levels3":       "a2292a9655dae27a7f706801128ef63c87d625eaaff71ecb788c51820bbaba9f",
		"r3/hybrid/cfc2x3/levels1":     "d9029f08630532e3d62a3dbd72923220a3bf0288c6b59a49d73ad0c3ca358636",
		"r3/hybrid/cfc2x3/levels3":     "84c6ba9233f4c6835a87b4807c7a6d97dd7010079b556a982c09892f06c064a7",
		"r3/hybrid/cfc2tail/levels1":   "e73ddd8b595c8ee31cbbd9947917a4ed1857e1b0a6b49c44a2342c38b1c9acc2",
		"r3/hybrid/cfc2tail/levels3":   "94883998a21db6a1faa8eabad5f907f6b38972e702624ca8d9c3e6a493859565",
		"r3/hybrid/cfc2slab/levels1":   "9d79a4f2f6fc7e111cb6f70161cc756d2fcfd977eca2098149a7361f530abcb0",
		"r3/hybrid/cfc2slab/levels3":   "4e4965f84f893324dbf5d79b04e1ff6bed8e4c6db8329aaf91722a9cd015423d",
		"r3/hybrid/cfc2x1/levels1":     "9f9ef1536760dc1bb1853864ca943d2c54f334984b5ea5ff1a00aabedc672105",
		"r3/hybrid/cfc2x1/levels3":     "cd30d29b8815b142f65279bd551050d759a985c4dcf11730a69199f72a118e50",
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, rank := range []int{2, 3} {
		dims, slabVoxels := []int{24, 30}, 30
		if rank == 3 {
			dims, slabVoxels = []int{9, 10, 12}, 10*12
		}
		target, anchors := matrixFields(int64(40+rank), dims...)
		codec, err := crossfield.Train(target, anchors, crossfield.Training{
			Features: 4, Epochs: 2, StepsPerEpoch: 4, Batch: 1, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, hybrid := range []bool{false, true} {
			for _, layout := range matrixLayouts {
				for _, levels := range []int{1, 3} {
					name := fmt.Sprintf("r%d/%s/%s/levels%d", rank,
						map[bool]string{false: "baseline", true: "hybrid"}[hybrid], layout.name, levels)
					slabs := layout.slabs3D
					if rank == 2 {
						slabs = layout.slabs2D
					}
					t.Run(name, func(t *testing.T) {
						var first []byte
						for _, workers := range []int{1, 2, 3} {
							runtime.GOMAXPROCS(workers)
							var opts []crossfield.Option
							if slabs > 0 {
								opts = append(opts, crossfield.WithChunks(slabs*slabVoxels), crossfield.WithWorkers(workers))
							}
							if levels > 1 {
								opts = append(opts, crossfield.WithProgressive(levels))
							}
							var res *crossfield.Compressed
							var err error
							if hybrid {
								res, err = codec.Compress(target, anchors, crossfield.Rel(1e-3), opts...)
							} else {
								res, err = crossfield.CompressBaseline(target, crossfield.Rel(1e-3), opts...)
							}
							if err != nil {
								t.Fatal(err)
							}
							if first != nil {
								if !bytes.Equal(res.Blob, first) {
									t.Fatalf("workers %d: bytes differ from workers 1", workers)
								}
								continue
							}
							first = res.Blob
							chunks := 1
							if slabs > 0 {
								chunks = (dims[0] + slabs - 1) / slabs
							}
							if n, err := crossfield.ChunkCount(res.Blob); err != nil || n != chunks {
								t.Fatalf("ChunkCount = %d, %v; want %d", n, err, chunks)
							}
							var dec []*crossfield.Field
							if hybrid {
								dec = anchors
							}
							back, err := crossfield.Decompress("W", res.Blob, dec)
							if err != nil {
								t.Fatal(err)
							}
							if maxErr, ok, err := crossfield.Verify(target, back, res.Stats.AbsEB); err != nil || !ok {
								t.Fatalf("bound violated: maxErr=%g eb=%g ok=%v err=%v", maxErr, res.Stats.AbsEB, ok, err)
							}
						}
						if got := fmt.Sprintf("%x", sha256.Sum256(first)); got != want[name] {
							t.Errorf("SHA-256 %s (%d B), want %s", got, len(first), want[name])
						}
					})
				}
			}
		}
	}
}
