package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	crossfield "repro"
)

// packSetup is everything the pack workload's timed loop needs.
type packSetup struct {
	specs  []crossfield.FieldSpec
	orig   map[string]*crossfield.Field
	codecs map[string]*crossfield.Codec  // by target name
	ref    *crossfield.CompressedDataset // the verified first pack
	times  setupTimes
}

// setupPack generates the CESM-ATM snapshot, trains the paper's CLDTOT and
// LWCF codecs over their Table III anchors (or reuses prev's), and packs
// and verifies the reference archive every timed pack must reproduce byte
// for byte.
func setupPack(sz sizes, seed int64, opts []crossfield.Option, prev *packSetup) (*packSetup, error) {
	ps := &packSetup{orig: make(map[string]*crossfield.Field), codecs: make(map[string]*crossfield.Codec)}
	t := time.Now()
	ds, err := crossfield.GenerateCESM(sz.cesmNY, sz.cesmNX, seed)
	if err != nil {
		return nil, err
	}
	ps.times.generate = lap(&t)
	var anchors, targets []string
	for _, plan := range crossfield.PaperPlans() {
		if plan.Preset != "cesm-cldtot" && plan.Preset != "cesm-lwcf" {
			continue
		}
		target, err := ds.Field(plan.Target)
		if err != nil {
			return nil, err
		}
		af, err := ds.Fieldset(plan.Anchors...)
		if err != nil {
			return nil, err
		}
		if prev != nil {
			ps.codecs[plan.Target] = prev.codecs[plan.Target]
		} else if ps.codecs[plan.Target], err = crossfield.Train(target, af, training(sz, seed)); err != nil {
			return nil, fmt.Errorf("train %s: %w", plan.Target, err)
		}
		for _, a := range plan.Anchors {
			if !slices.Contains(anchors, a) {
				anchors = append(anchors, a)
			}
		}
		targets = append(targets, plan.Target)
	}
	ps.times.train = lap(&t)
	for _, name := range append(anchors, targets...) {
		f := ds.MustField(name)
		ps.orig[name] = f
		ps.specs = append(ps.specs, crossfield.FieldSpec{Field: f, Codec: ps.codecs[name]})
	}
	if ps.ref, err = crossfield.CompressDataset(ps.specs, crossfield.Rel(relBound), opts...); err != nil {
		return nil, err
	}
	ps.times.pack = lap(&t)
	if err := verifyArchive(ps.ref.Blob, ps.orig); err != nil {
		return nil, fmt.Errorf("reference archive: %w", err)
	}
	ps.times.warm = lap(&t)
	return ps, nil
}

// runPack times repeated CompressDataset calls. In a traced run every
// other call also collects WithStageTimings, and the difference between
// the two halves' median latency is the tracing overhead.
func runPack(cfg config, sz sizes) (*report, error) {
	rep := newReport()
	opts := []crossfield.Option{crossfield.WithChunks(sz.cesmChunkRows * sz.cesmNX)}
	var (
		ps  *packSetup
		all []setupTimes
	)
	for range sz.setups {
		var err error
		if ps, err = setupPack(sz, cfg.seed, opts, ps); err != nil {
			return nil, err
		}
		all = append(all, ps.times)
	}
	reportSetups(rep, all)

	var (
		plain, traced []float64                // latency, ms
		stages        = map[string][]float64{} // seconds per traced pack
	)
	ws, err := window(cfg.seconds, func(i int) error {
		o := opts
		var tm crossfield.DatasetTimings
		trace := cfg.trace && i%2 == 0
		if trace {
			o = append(slices.Clip(opts), crossfield.WithStageTimings(&tm))
		}
		start := time.Now()
		res, err := crossfield.CompressDataset(ps.specs, crossfield.Rel(relBound), o...)
		d := ms(time.Since(start))
		rep.attempted++
		if err != nil {
			rep.failed++
			return nil
		}
		// CompressDataset is deterministic, with or without stage timings.
		if !bytes.Equal(res.Blob, ps.ref.Blob) {
			return fmt.Errorf("pack %d differs from the verified reference archive", i)
		}
		if !trace {
			plain = append(plain, d)
			return nil
		}
		traced = append(traced, d)
		for s, v := range stageSeconds(&tm) {
			stages[s] = append(stages[s], v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ok := rep.attempted - rep.failed
	st := ps.ref.Stats
	rep.set("p50_ms", quantile(plain, 0.5))
	rep.set("p90_ms", quantile(plain, 0.9))
	rep.set("mib_per_s", float64(ok)*float64(st.OriginalBytes)/(1<<20)/ws.elapsed.Seconds())
	rep.set("wire_kib_per_op", float64(len(ps.ref.Blob))/1024)
	rep.set("ratio", float64(st.OriginalBytes)/float64(len(ps.ref.Blob)))
	rep.set("peak_rss_mb", ws.peakRSS)
	rep.env["cpu_steal_frac"] = ws.steal
	if err := reportArchive(rep, ps.specs, st, opts...); err != nil {
		return nil, err
	}
	if cfg.trace {
		rep.set("trace.overhead_ms", median(traced)-median(plain))
		for _, s := range compressStages {
			rep.set("core.compress."+s+"_s", median(stages[s]))
		}
	}
	rep.env["grid"] = fmt.Sprintf("CESM-ATM %dx%d, %d fields, chunks of %d rows", sz.cesmNY, sz.cesmNX, len(ps.specs), sz.cesmChunkRows)
	rep.env["samples"] = len(plain)
	return rep, nil
}
