// Command cfc compresses, decompresses, and verifies scientific fields.
//
// Compress (baseline):
//
//	cfc -c -data data/hurricane -field Wf -rel 1e-3 -o wf.cfc
//
// Compress (cross-field hybrid; anchors are baseline-compressed and
// decompressed at the same bound automatically):
//
//	cfc -c -data data/hurricane -field Wf -rel 1e-3 \
//	    -model wf.cfnn -anchors Uf,Vf,Pf -o wf.cfc
//
// Compress chunked (parallel, random-access CFC2 container; also works
// with -model/-anchors):
//
//	cfc -c -data data/hurricane -field Wf -rel 1e-3 -chunks 1048576 -workers 8 -o wf.cfc
//
// Decompress (hybrid blobs need -data and -anchors to rebuild the anchor
// reconstructions):
//
//	cfc -d -in wf.cfc [-data data/hurricane -anchors Uf,Vf,Pf] -o wf_out.f32
//
// Verify a reconstruction against the original:
//
//	cfc -verify -data data/hurricane -field Wf -in wf.cfc [-anchors ...]
//
// Inspect a blob (for CFC2 containers this lists the chunk table with the
// achieved per-chunk max error; for CFC3 archives, the field manifest):
//
//	cfc -stats -in wf.cfc
//
// Dataset archives (CFC3): pack a whole dataset directory into one
// archive — fields named in -plan are hybrid-compressed against their
// anchors (a small CFNN is trained per target), everything else is
// baseline-compressed; unpack reverses it with zero anchor ceremony:
//
//	cfc -c -archive -data data/hurricane -rel 1e-3 \
//	    -plan "Wf=Uf,Vf,Pf" -o hurricane.cfc
//	cfc -d -archive -in hurricane.cfc -o data/hurricane_out
//	cfc -stats -in hurricane.cfc
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	crossfield "repro"
	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/tensor"
)

func main() {
	var (
		doC      = flag.Bool("c", false, "compress")
		doD      = flag.Bool("d", false, "decompress")
		doV      = flag.Bool("verify", false, "decompress and verify against the original field")
		doS      = flag.Bool("stats", false, "print a blob's header (and chunk table) without decompressing")
		archived = flag.Bool("archive", false, "operate on a whole dataset as a CFC3 archive (with -c/-d)")
		dataDir  = flag.String("data", "", "dataset directory (cfgen format)")
		field    = flag.String("field", "", "field name to compress/verify")
		inPath   = flag.String("in", "", "input .cfc blob (for -d/-verify)")
		outPath  = flag.String("o", "", "output path")
		relEB    = flag.Float64("rel", 0, "relative error bound (fraction of value range)")
		absEB    = flag.Float64("abs", 0, "absolute error bound")
		model    = flag.String("model", "", "trained CFNN model (enables cross-field compression)")
		anchors  = flag.String("anchors", "", "comma-separated anchor field names")
		plan     = flag.String("plan", "", `archive anchor plan: "target=a1,a2;target2=a3" (targets are hybrid-compressed against their anchors)`)
		chunks   = flag.Int("chunks", 0, "values per chunk: >0 writes chunked CFC2 containers, 0 monolithic CFC1 blobs")
		workers  = flag.Int("workers", 0, "chunks compressed concurrently (0 = GOMAXPROCS; needs -chunks)")
		seed     = flag.Int64("seed", 42, "training seed for -archive plan targets")
		timings  = flag.Bool("timings", false, "print per-stage timing tables (-c -archive: compression stages per field; -stats on archives: per-field decode time)")
	)
	flag.Parse()

	switch {
	case *doC && *archived:
		packArchive(*dataDir, *outPath, *relEB, *absEB, *plan, *chunks, *workers, *seed, *timings)
	case *doC:
		compress(*dataDir, *field, *outPath, *relEB, *absEB, *model, *anchors, *chunks, *workers)
	case *doD && *archived:
		unpackArchive(*inPath, *outPath)
	case *doD:
		decompress(*inPath, *dataDir, *anchors, *outPath)
	case *doV:
		verify(*inPath, *dataDir, *field, *anchors)
	case *doS:
		stats(*inPath, *timings)
	default:
		fatal(fmt.Errorf("one of -c, -d, -verify, -stats is required"))
	}
}

// parsePlan parses "target=a1,a2;target2=a3" into target → anchors.
func parsePlan(plan string) (map[string][]string, error) {
	out := make(map[string][]string)
	if strings.TrimSpace(plan) == "" {
		return out, nil
	}
	for _, part := range strings.Split(plan, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		target, list, ok := strings.Cut(part, "=")
		target = strings.TrimSpace(target)
		if !ok || target == "" {
			return nil, fmt.Errorf("bad -plan entry %q (want target=a1,a2)", part)
		}
		if _, dup := out[target]; dup {
			return nil, fmt.Errorf("-plan names target %q twice", target)
		}
		var names []string
		for _, a := range strings.Split(list, ",") {
			if a = strings.TrimSpace(a); a != "" {
				names = append(names, a)
			}
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("-plan target %q has no anchors", target)
		}
		out[target] = names
	}
	return out, nil
}

func packArchive(dataDir, outPath string, rel, abs float64, planFlag string, chunks, workers int, seed int64, timings bool) {
	if dataDir == "" || outPath == "" || (rel <= 0 && abs <= 0) {
		fatal(fmt.Errorf("archive pack needs -data -o and -rel or -abs"))
	}
	plans, err := parsePlan(planFlag)
	if err != nil {
		fatal(err)
	}
	ds, err := sim.LoadDataset(dataDir)
	if err != nil {
		fatal(err)
	}
	fields := make(map[string]*crossfield.Field, len(ds.Fields()))
	for _, name := range ds.Fields() {
		t := ds.MustField(name)
		f, err := crossfield.NewField(name, t.Data(), t.Shape()...)
		if err != nil {
			fatal(err)
		}
		fields[name] = f
	}
	var specs []crossfield.FieldSpec
	for _, name := range ds.Fields() {
		spec := crossfield.FieldSpec{Field: fields[name]}
		if anchors, ok := plans[name]; ok {
			anchorFields := make([]*crossfield.Field, len(anchors))
			for i, a := range anchors {
				af, ok := fields[a]
				if !ok {
					fatal(fmt.Errorf("-plan target %q anchor %q not in dataset", name, a))
				}
				anchorFields[i] = af
			}
			fmt.Printf("training CFNN for %s from %v...\n", name, anchors)
			codec, err := crossfield.Train(fields[name], anchorFields, crossfield.Training{
				Features: 8, Epochs: 4, StepsPerEpoch: 8, Batch: 1, Seed: seed,
			})
			if err != nil {
				fatal(err)
			}
			spec.Codec = codec
		}
		specs = append(specs, spec)
	}
	for target := range plans {
		if _, ok := fields[target]; !ok {
			fatal(fmt.Errorf("-plan target %q not in dataset", target))
		}
	}
	// Same contract as the single-field path: only -chunks selects the
	// chunked CFC2 payload format; -workers alone is ignored.
	var opts []crossfield.Option
	if chunks > 0 {
		opts = append(opts, crossfield.WithChunks(chunks), crossfield.WithWorkers(workers))
	}
	var tm crossfield.DatasetTimings
	if timings {
		opts = append(opts, crossfield.WithStageTimings(&tm))
	}
	// Stream the archive straight to the output file: payloads are written
	// as they are produced, so packing never holds the whole archive (or a
	// second copy of any field) in memory.
	out, err := os.Create(outPath)
	if err != nil {
		fatal(err)
	}
	stats, err := crossfield.CompressDatasetTo(out, specs, bound(rel, abs), opts...)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(outPath)
		fatal(err)
	}
	fmt.Printf("%s: %d fields, %d -> %d bytes (ratio %.2fx)\n",
		outPath, len(specs), stats.OriginalBytes, stats.CompressedBytes, stats.Ratio)
	for _, name := range ds.Fields() {
		st := stats.Fields[name]
		kind := "baseline"
		if _, ok := plans[name]; ok {
			kind = "hybrid"
		}
		fmt.Printf("  %-10s %-8s %8d B  ratio %6.2fx  max err %.3g (eb %.3g)\n",
			name, kind, st.CompressedBytes, st.Ratio, st.MaxErr, st.AbsEB)
	}
	if timings {
		printCompressTimings(&tm)
	}
}

// printCompressTimings renders the per-field per-stage compression wall
// time collected by WithStageTimings. Stage times are summed across chunk
// workers, so a chunked field's stage total can exceed its elapsed time.
func printCompressTimings(tm *crossfield.DatasetTimings) {
	fmt.Printf("compression stage timings (summed wall time across workers):\n")
	fmt.Printf("  %-12s %-10s %6s %12s %8s\n", "field", "stage", "runs", "total", "share")
	for _, ft := range tm.Fields {
		total := ft.Seconds()
		for _, st := range ft.Stages {
			share := 0.0
			if total > 0 {
				share = 100 * st.Seconds() / total
			}
			fmt.Printf("  %-12s %-10s %6d %12s %7.1f%%\n",
				ft.Name, st.Stage, st.Count, fmtSeconds(st.Seconds()), share)
		}
	}
}

// fmtSeconds renders a duration with enough resolution for microsecond
// stages without drowning second-scale ones in digits.
func fmtSeconds(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.1fµs", s*1e6)
	}
}

// openArchiveFile opens a CFC3 archive through a file-backed reader, so
// inspecting or unpacking a multi-GB archive reads payloads on demand
// instead of slurping the file. The caller closes the returned file.
func openArchiveFile(path string) (*crossfield.Archive, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	ar, err := crossfield.OpenArchiveReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return ar, f, nil
}

func unpackArchive(inPath, outDir string) {
	if inPath == "" || outDir == "" {
		fatal(fmt.Errorf("archive unpack needs -in and -o"))
	}
	ar, f, err := openArchiveFile(inPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	names := ar.Fields()
	if len(names) == 0 {
		fatal(fmt.Errorf("empty archive"))
	}
	// The cfgen dataset format holds one shape for all fields; CFC3 itself
	// allows mixed shapes, so reject those with a real error up front.
	man := ar.Manifest()
	dims := man[0].Dims
	for _, fi := range man[1:] {
		if !slices.Equal(fi.Dims, dims) {
			fatal(fmt.Errorf("archive holds mixed shapes (%s is %v, %s is %v); unpack writes cfgen-format datasets, which need one shape",
				man[0].Name, dims, fi.Name, fi.Dims))
		}
	}
	out := sim.NewDataset("unpacked", dims...)
	for _, name := range names {
		f, err := ar.Field(name)
		if err != nil {
			fatal(err)
		}
		if err := out.AddField(name, f.Tensor()); err != nil {
			fatal(err)
		}
	}
	if err := sim.SaveDataset(outDir, out); err != nil {
		fatal(err)
	}
	fmt.Printf("unpacked %d fields %v to %s\n", len(names), dims, outDir)
}

func stats(inPath string, timings bool) {
	if inPath == "" {
		fatal(fmt.Errorf("stats needs -in"))
	}
	// Peek the magic first: a CFC3 archive is inspected through the
	// file-backed reader (only manifest and trailer are read, so stats on
	// a multi-GB archive is instant); single-field blobs load in memory.
	if isArchiveFile(inPath) {
		ar, f, err := openArchiveFile(inPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		statsArchive(ar, timings)
		return
	}
	if timings {
		fatal(fmt.Errorf("-timings with -stats applies only to CFC3 archives"))
	}
	blob, err := os.ReadFile(inPath)
	if err != nil {
		fatal(err)
	}
	if chunk.IsChunked(blob) {
		statsChunked(blob)
		return
	}
	hdr, err := core.PeekStats(blob)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("container:   CFC1 (monolithic)\n")
	fmt.Printf("method:      %v\n", hdr.Method)
	fmt.Printf("dims:        %v (%d points)\n", hdr.Dims, hdr.NumPoints())
	fmt.Printf("bound:       mode=%d value=%g (abs eb %g)\n", hdr.BoundMode, hdr.BoundValue, hdr.AbsEB)
	fmt.Printf("anchors:     %v\n", hdr.Anchors)
	fmt.Printf("sections:    model %d B | table %d B | payload %d B (raw %d B)\n",
		len(hdr.Model), len(hdr.Table), len(hdr.Payload), hdr.PayloadRaw)
	fmt.Printf("total blob:  %d B (ratio %.2fx vs float32)\n",
		len(blob), float64(hdr.NumPoints()*4)/float64(len(blob)))
	if len(hdr.Hybrid) > 0 {
		fmt.Printf("hybrid:      %v\n", hdr.Hybrid)
	}
}

func statsChunked(blob []byte) {
	a, err := chunk.Decode(blob)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("container:   CFC2 (chunked, %d chunks)\n", a.NumChunks())
	fmt.Printf("method:      %v\n", a.Method)
	fmt.Printf("dims:        %v (%d points)\n", a.Dims, a.NumPoints())
	fmt.Printf("bound:       mode=%d value=%g (abs eb %g)\n", a.BoundMode, a.BoundValue, a.AbsEB)
	fmt.Printf("anchors:     %v\n", a.Anchors)
	fmt.Printf("model:       %d B (stored once)\n", len(a.Model))
	fmt.Printf("total blob:  %d B (ratio %.2fx vs float32)\n",
		len(blob), float64(a.NumPoints()*4)/float64(len(blob)))
	fmt.Printf("chunk table (bound abs eb %g):\n", a.AbsEB)
	fmt.Printf("  %5s %8s %8s %12s %12s %10s %12s\n", "chunk", "start", "slabs", "raw B", "payload B", "crc32", "max err")
	for i, e := range a.Index {
		fmt.Printf("  %5d %8d %8d %12d %12d %10x %12s\n",
			i, e.Start, e.Count, e.RawBytes, e.PayloadLen, e.Checksum, fmtMaxErr(e.MaxErr))
	}
}

// fmtMaxErr renders an achieved max error; version-1 containers did not
// record it.
func fmtMaxErr(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.4g", v)
}

// isArchiveFile reports whether the file starts with the CFC3 magic,
// reading only 4 bytes.
func isArchiveFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var prefix [4]byte
	if _, err := io.ReadFull(f, prefix[:]); err != nil {
		return false
	}
	return crossfield.IsArchive(prefix[:])
}

func statsArchive(ar *crossfield.Archive, timings bool) {
	man := ar.Manifest()
	fmt.Printf("container:   CFC3 (dataset archive, %d fields)\n", len(man))
	fmt.Printf("total blob:  %d B\n", ar.Size())
	fmt.Printf("manifest:\n")
	fmt.Printf("  %-12s %-16s %-14s %6s %12s %10s %12s %12s  %s\n",
		"field", "dims", "role", "fmt", "payload B", "bound", "abs eb", "max err", "anchors")
	for _, fi := range man {
		fmt.Printf("  %-12s %-16s %-14s %6s %12d %10s %12.4g %12s  %s\n",
			fi.Name, fmt.Sprint(fi.Dims), fi.Role, fi.Container, fi.Bytes,
			fi.Bound.String(), fi.AbsEB, fmtMaxErr(fi.MaxErr), strings.Join(fi.Anchors, ","))
	}
	// The dependency graph in decompression order — the same toposort the
	// cfserve /v1/archives/{a}/stats route reports as topo_order.
	fmt.Printf("dependency graph (toposort):\n")
	for _, name := range ar.TopoNames() {
		fi, _ := ar.FieldInfoFor(name)
		if len(fi.Anchors) == 0 {
			fmt.Printf("  %s\n", name)
		} else {
			fmt.Printf("  %s <- %s\n", name, strings.Join(fi.Anchors, ","))
		}
	}
	if timings {
		statsDecodeTimings(ar)
	}
}

// statsDecodeTimings decompresses each field once, in dependency order,
// and reports the incremental wall time per field. Anchors are cached by
// the Archive, so each field's number is its own decode cost — earlier
// fields' reconstructions are reused, not recomputed.
func statsDecodeTimings(ar *crossfield.Archive) {
	fmt.Printf("decode timings (topo order; anchors cached, so each row is incremental):\n")
	fmt.Printf("  %-12s %12s %14s\n", "field", "decode", "throughput")
	var total float64
	for _, name := range ar.TopoNames() {
		start := time.Now()
		f, err := ar.Field(name)
		if err != nil {
			fatal(err)
		}
		sec := time.Since(start).Seconds()
		total += sec
		mbps := 0.0
		if sec > 0 {
			mbps = float64(f.Len()*4) / sec / (1 << 20)
		}
		fmt.Printf("  %-12s %12s %11.1f MB/s\n", name, fmtSeconds(sec), mbps)
	}
	fmt.Printf("  %-12s %12s\n", "total", fmtSeconds(total))
}

func bound(rel, abs float64) quant.Bound {
	if rel > 0 {
		return quant.RelBound(rel)
	}
	return quant.AbsBound(abs)
}

func loadAnchors(dataDir, anchors string, b quant.Bound) ([]*tensor.Tensor, []string, error) {
	ds, err := sim.LoadDataset(dataDir)
	if err != nil {
		return nil, nil, err
	}
	var (
		out   []*tensor.Tensor
		names []string
	)
	for _, name := range strings.Split(anchors, ",") {
		name = strings.TrimSpace(name)
		a, err := ds.Field(name)
		if err != nil {
			return nil, nil, err
		}
		// Round-trip through the baseline codec: compressor and
		// decompressor must see identical anchor data.
		var blob bytes.Buffer
		if _, err := core.Encode(context.Background(), &blob, a, core.EncodeRequest{Bound: b}); err != nil {
			return nil, nil, err
		}
		dec, err := core.Decompress(blob.Bytes(), nil)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, dec)
		names = append(names, name)
	}
	return out, names, nil
}

func compress(dataDir, field, outPath string, rel, abs float64, modelPath, anchors string, chunks, workers int) {
	if dataDir == "" || field == "" || outPath == "" || (rel <= 0 && abs <= 0) {
		fatal(fmt.Errorf("compress needs -data -field -o and -rel or -abs"))
	}
	ds, err := sim.LoadDataset(dataDir)
	if err != nil {
		fatal(err)
	}
	f, err := ds.Field(field)
	if err != nil {
		fatal(err)
	}
	b := bound(rel, abs)
	var (
		m             *cfnn.Model
		anchorTensors []*tensor.Tensor
		names         []string
	)
	if modelPath != "" {
		if anchors == "" {
			fatal(fmt.Errorf("-model requires -anchors"))
		}
		blob, merr := os.ReadFile(modelPath)
		if merr != nil {
			fatal(merr)
		}
		if m, merr = cfnn.Load(blob); merr != nil {
			fatal(merr)
		}
		if anchorTensors, names, err = loadAnchors(dataDir, anchors, b); err != nil {
			fatal(err)
		}
	}
	var blob bytes.Buffer
	st, err := core.Encode(context.Background(), &blob, f, core.EncodeRequest{
		Bound:       b,
		Model:       m,
		Anchors:     anchorTensors,
		AnchorNames: names,
		ChunkVoxels: max(chunks, 0),
		Workers:     workers,
	})
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, blob.Bytes(), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d -> %d bytes (ratio %.2fx, %.3f bits/val, eb %s=%g abs=%g, method %v)\n",
		field, st.OriginalBytes, st.CompressedBytes, st.Ratio, st.BitRate, b.Mode, b.Value, st.AbsEB, st.Method)
	if st.ModelBytes > 0 {
		fmt.Printf("  model %d B, table %d B, payload %d B\n", st.ModelBytes, st.TableBytes, st.PayloadBytes)
	}
	if chunks > 0 {
		if n, err := core.ChunkCount(blob.Bytes()); err == nil {
			fmt.Printf("  chunked CFC2 container: %d chunks of ~%d values\n", n, chunks)
		}
	}
}

// blobMeta extracts the fields the decompress/verify paths need from
// either container format.
func blobMeta(blob []byte) (method container.Method, anchorNames []string, b quant.Bound, ebAbs float64, err error) {
	if chunk.IsChunked(blob) {
		a, err := chunk.Decode(blob)
		if err != nil {
			return 0, nil, quant.Bound{}, 0, err
		}
		return a.Method, a.Anchors, quant.Bound{Mode: quant.Mode(a.BoundMode), Value: a.BoundValue}, a.AbsEB, nil
	}
	hdr, err := core.PeekStats(blob)
	if err != nil {
		return 0, nil, quant.Bound{}, 0, err
	}
	return hdr.Method, hdr.Anchors, quant.Bound{Mode: quant.Mode(hdr.BoundMode), Value: hdr.BoundValue}, hdr.AbsEB, nil
}

func decompress(inPath, dataDir, anchors, outPath string) {
	if inPath == "" || outPath == "" {
		fatal(fmt.Errorf("decompress needs -in and -o"))
	}
	blob, err := os.ReadFile(inPath)
	if err != nil {
		fatal(err)
	}
	recon, err := decodeBlob(blob, dataDir, anchors)
	if err != nil {
		fatal(err)
	}
	out, err := os.Create(outPath)
	if err != nil {
		fatal(err)
	}
	err = sim.WriteRaw(out, recon)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %v float32 values to %s\n", recon.Shape(), outPath)
}

func decodeBlob(blob []byte, dataDir, anchors string) (*tensor.Tensor, error) {
	method, anchorList, b, _, err := blobMeta(blob)
	if err != nil {
		return nil, err
	}
	var anchorTensors []*tensor.Tensor
	if method != container.MethodBaseline {
		names := anchors
		if names == "" {
			names = strings.Join(anchorList, ",")
		}
		if dataDir == "" || names == "" {
			return nil, fmt.Errorf("blob needs anchors %v: pass -data and -anchors", anchorList)
		}
		anchorTensors, _, err = loadAnchors(dataDir, names, b)
		if err != nil {
			return nil, err
		}
	}
	return core.Decompress(blob, anchorTensors)
}

func verify(inPath, dataDir, field, anchors string) {
	if inPath == "" || dataDir == "" || field == "" {
		fatal(fmt.Errorf("verify needs -in -data -field"))
	}
	blob, err := os.ReadFile(inPath)
	if err != nil {
		fatal(err)
	}
	_, _, _, ebAbs, err := blobMeta(blob)
	if err != nil {
		fatal(err)
	}
	recon, err := decodeBlob(blob, dataDir, anchors)
	if err != nil {
		fatal(err)
	}
	ds, err := sim.LoadDataset(dataDir)
	if err != nil {
		fatal(err)
	}
	orig, err := ds.Field(field)
	if err != nil {
		fatal(err)
	}
	maxErr, ok, err := core.VerifyBound(orig, recon, ebAbs)
	if err != nil {
		fatal(err)
	}
	status := "OK"
	if !ok {
		status = "VIOLATED"
	}
	fmt.Printf("max |orig-recon| = %g vs abs eb %g: %s\n", maxErr, ebAbs, status)
	if !ok {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfc:", err)
	os.Exit(1)
}
