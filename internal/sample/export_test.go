package sample

import (
	"context"
	"fmt"

	"rix/internal/core"
	"rix/internal/emu"
	"rix/internal/pipeline"
	"rix/internal/prog"
)

// NaiveRun is the bit-equality oracle the engine is tested against: a
// sampled run as the plainest sequential loop. It fast-forwards to each
// boundary, snapshots it afresh, boots the window on freshly built
// structures restored from that snapshot, replays the window's records
// from memory (recorded while the pass keeps warming), and folds the
// window's final LISP straight back into the warmer before moving on.
// No ring, no pooling, no speculation, no executor: every window runs
// in index order, one at a time. With sc.CheckpointDir set it writes
// each boundary's checkpoint once.
func NaiveRun(ctx context.Context, p *prog.Program, dynLen int, cfg pipeline.Config, sc Config) (*Estimate, error) {
	sc, err := sc.normalized()
	if err != nil {
		return nil, err
	}
	sp := sc.Sampling
	e, w := emu.New(p), newWarmer(cfg, newWarmParts(cfg))
	c := source{ctx: ctx, p: p, sc: &sc, e: e, w: w}
	n := sp.Warmup + sp.Window + detailPad(cfg)
	var windows []WindowStat
	var fb core.LISPState // the chained feedback; empty boots a cold LISP
	for idx := 0; ; idx++ {
		if err := c.seek(windowStart(idx, sp)); err != nil {
			return nil, err
		}
		if e.Halted {
			break
		}
		b := c.boundary(idx)
		if sc.CheckpointDir != "" {
			if _, err := saveBoundary(&sc, p, b); err != nil {
				return nil, err
			}
		}

		parts := newWarmParts(cfg)
		if err := parts.setState(b.Warm); err != nil {
			return nil, err
		}
		mem, err := emu.NewMemoryFromState(b.Emu.Mem)
		if err != nil {
			return nil, err
		}
		var recs []emu.TraceRec
		for k := uint64(0); k < n && !e.Halted; k++ {
			pc := e.PC
			rec, err := e.Step()
			if err != nil {
				return nil, err
			}
			recs = append(recs, rec)
			w.observe(p.Code[rec.CodeIdx], pc, rec, e.PC)
		}
		pl := pipeline.NewFrom(cfg, p, emu.FromSlice(recs), &pipeline.BootState{
			PC: b.Emu.PC, Regs: b.Emu.Regs, Mem: mem, Warm: parts.Warm,
		})
		if chainsFeedback(cfg.Policy) && len(fb.Entries) > 0 {
			if err := pl.Integrator().LISP.SetState(fb); err != nil {
				return nil, err
			}
		}
		stats, err := pl.RunWindowContext(ctx, sp.Warmup, sp.Window)
		if err != nil {
			return nil, fmt.Errorf("sample: window %d of %s: %w", idx, p.Name, err)
		}
		windows = append(windows, WindowStat{Index: idx, Start: b.Start, MeasuredFrom: b.Start + sp.Warmup, Stats: *stats})
		if chainsFeedback(cfg.Policy) {
			fb = pl.Integrator().LISP.State()
		}
	}
	total := uint64(dynLen)
	if total == 0 {
		total = e.Count
	}
	return aggregate(sp, detailPad(cfg), windows, total), nil
}

// RunRing is Run over a live warm pass that also reports how many ring
// entries the pass filled: the most boundaries the coordinator ever
// held at once.
func RunRing(ctx context.Context, p *prog.Program, dynLen int, cfg pipeline.Config, sc Config) (*Estimate, int, error) {
	sc, err := sc.normalized()
	if err != nil {
		return nil, 0, err
	}
	wp, err := coldParts(cfg)
	if err != nil {
		return nil, 0, err
	}
	src := newPass(ctx, p, cfg, &sc, emu.New(p), newWarmer(cfg, wp), 0, true)
	est, err := src.run(ctx, p, dynLen, cfg, sc)
	return est, src.ring, err
}

// BootCopies is how many window boots have copied a ring entry's
// tables into their slot's own set instead of booting on the entry.
func BootCopies() int64 { return bootCopies.Load() }

// WarmPartsBuilt is how many warm part sets the process has built: the
// warmers', ring entries' and slots' tables, pooled or not.
func WarmPartsBuilt() int64 { return partsBuilt.Load() }
