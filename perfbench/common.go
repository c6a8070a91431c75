package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	crossfield "repro"
)

// setupTimes is one set-up's wall time per stage.
type setupTimes struct {
	generate, train, pack, mount, warm time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.generate + s.train + s.pack + s.mount + s.warm
}

// reportSetups records the median over the run's set-ups of each stage
// and of the whole set-up. Training, the longest stage, runs in the first
// set-up only; later set-ups reuse its codecs, and its time stands in for
// theirs.
func reportSetups(rep *report, all []setupTimes) {
	for i := range all {
		all[i].train = all[0].train
	}
	pick := func(f func(setupTimes) time.Duration) float64 {
		vals := make([]float64, len(all))
		for i, s := range all {
			vals[i] = f(s).Seconds()
		}
		return median(vals)
	}
	rep.set("setup_s", pick(setupTimes.total))
	rep.set("setup.generate_s", pick(func(s setupTimes) time.Duration { return s.generate }))
	rep.set("setup.train_s", pick(func(s setupTimes) time.Duration { return s.train }))
	rep.set("setup.pack_s", pick(func(s setupTimes) time.Duration { return s.pack }))
	rep.set("setup.mount_s", pick(func(s setupTimes) time.Duration { return s.mount }))
	rep.set("setup.warm_s", pick(func(s setupTimes) time.Duration { return s.warm }))
}

// lap returns the time since *t and moves *t to now.
func lap(t *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return d
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// windowStats is what window measures besides the operations themselves.
type windowStats struct {
	elapsed time.Duration
	// peakRSS is the median, over one-second slices of the window's second
	// half, of each slice's VmHWM in MiB. The window starts from a heap
	// returned to the OS, so resident memory climbs for its first seconds;
	// the second half holds the steady state, and the median keeps one
	// slice's garbage-collection spike from deciding the figure.
	peakRSS float64
	// steal is the share of the machine's CPU time its hypervisor took
	// during the window. It is recorded, not corrected for: it explains a
	// slow run on a shared host.
	steal float64
}

// window runs op back to back until seconds have passed. It starts from a
// collected heap, so neither set-up garbage nor set-up memory leaks in.
func window(seconds float64, op func(i int) error) (ws windowStats, err error) {
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return ws, err
	}
	steal0, total0, err := cpuTimes()
	if err != nil {
		return ws, err
	}
	var peaks []float64
	slicePeak := func() error {
		p, err := peakRSSMiB()
		if err != nil {
			return err
		}
		peaks = append(peaks, p)
		return resetPeakRSS()
	}
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var slice time.Time // start of the current slice; zero in the first half
	for i := 0; time.Since(start) < limit; i++ {
		if err := op(i); err != nil {
			return ws, err
		}
		switch {
		case slice.IsZero() && time.Since(start) >= limit/2:
			err = resetPeakRSS()
		case !slice.IsZero() && time.Since(slice) >= time.Second:
			err = slicePeak()
		default:
			continue
		}
		if err != nil {
			return ws, err
		}
		slice = time.Now()
	}
	ws.elapsed = time.Since(start)
	if err := slicePeak(); err != nil {
		return ws, err
	}
	ws.peakRSS = median(peaks)
	steal1, total1, err := cpuTimes()
	if err != nil {
		return ws, err
	}
	if total1 > total0 {
		ws.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	return ws, nil
}

// cpuTimes reads the machine's stolen and total CPU time, in clock ticks,
// from the first line of /proc/stat.
func cpuTimes() (steal, total uint64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's peak resident set since the last reset.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// training is the CFNN budget of every codec: the library's default, so
// that ratio and xfield_gain are those of a codec trained the way the
// library's users train it. Only the smoke test shrinks it.
func training(sz sizes, seed int64) crossfield.Training {
	tr := crossfield.DefaultTraining()
	tr.Epochs, tr.StepsPerEpoch, tr.Seed = sz.epochs, sz.steps, seed
	return tr
}

// leBytes serializes values as the little-endian float32 body cfserve
// sends.
func leBytes(data []float32) []byte {
	out := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// verifyArchive reopens an archive and checks every field against its
// original within the bound the manifest records.
func verifyArchive(blob []byte, orig map[string]*crossfield.Field) error {
	ar, err := crossfield.OpenArchive(blob)
	if err != nil {
		return err
	}
	for _, fi := range ar.Manifest() {
		got, err := ar.Field(fi.Name)
		if err != nil {
			return err
		}
		maxErr, ok, err := crossfield.Verify(orig[fi.Name], got, fi.AbsEB)
		if err != nil {
			return fmt.Errorf("verify %s: %w", fi.Name, err)
		}
		if !ok {
			return fmt.Errorf("field %s: max error %g exceeds bound %g", fi.Name, maxErr, fi.AbsEB)
		}
	}
	return nil
}

// reportArchive records the paper's cross-field gain and the byte layers
// behind it: every dependent compressed alone with the baseline codec
// against its bytes in the archive, CFNN model included.
func reportArchive(rep *report, specs []crossfield.FieldSpec, st crossfield.DatasetStats, opts ...crossfield.Option) error {
	var alone, inArchive, model int
	for _, s := range specs {
		if s.Codec == nil {
			continue
		}
		c, err := crossfield.CompressBaseline(s.Field, crossfield.Rel(relBound), opts...)
		if err != nil {
			return err
		}
		fs := st.Fields[s.Field.Name]
		alone += len(c.Blob)
		inArchive += fs.CompressedBytes
		model += fs.ModelBytes
	}
	if inArchive == 0 {
		return fmt.Errorf("archive has no cross-field dependent")
	}
	rep.set("xfield_gain", float64(alone)/float64(inArchive))
	rep.set("archive.model_bytes", float64(model))
	rep.set("archive.dependent_payload_bytes", float64(inArchive-model))
	return nil
}

// compressStages are the pipeline stages WithStageTimings reports.
var compressStages = []string{"inference", "quantize", "predict", "huffman", "flate"}

// stageSeconds sums each compression stage over a dataset's fields.
func stageSeconds(tm *crossfield.DatasetTimings) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range tm.Fields {
		for _, s := range f.Stages {
			out[s.Stage] += s.Seconds()
		}
	}
	return out
}
