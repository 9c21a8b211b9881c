package pipeline

import (
	"context"
	"fmt"
	"math"

	"rix/internal/bpred"
	"rix/internal/core"
	"rix/internal/emu"
	"rix/internal/isa"
	"rix/internal/memsys"
	"rix/internal/prog"
	"rix/internal/regfile"
	"rix/internal/rename"
)

// Config is the full machine description.
type Config struct {
	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	RetireWidth int

	ROBSize    int
	LSQSize    int // max memory operations in flight
	NumRS      int
	FetchQueue int

	// Issue ports per class (paper base: 2 simple int, 2 FP/complex, 1
	// load, 1 store). CombinedLS makes loads and stores share LoadPorts
	// (the paper's IW configuration).
	IntPorts   int
	FPPorts    int
	LoadPorts  int
	StorePorts int
	CombinedLS bool

	// Pipeline depths: 3 fetch + 1 decode stages before rename; 2
	// schedule + 2 register-read stages between issue and execute for
	// control resolution.
	FrontendDepth uint64
	ResolveDelay  uint64

	PhysRegs int
	GenBits  uint
	RefBits  uint

	Policy core.Policy
	IT     core.TableConfig
	LISP   core.LISPConfig
	Pred   bpred.Config
	Mem    memsys.Config

	MaxCycles uint64
}

// DefaultConfig is the paper's base machine.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  4,
		RenameWidth: 4,
		IssueWidth:  4,
		RetireWidth: 4,
		ROBSize:     128,
		LSQSize:     64,
		NumRS:       40,
		FetchQueue:  16,
		IntPorts:    2,
		FPPorts:     2,
		LoadPorts:   1,
		StorePorts:  1,

		FrontendDepth: 4, // 3 fetch + 1 decode
		ResolveDelay:  2, // schedule/regread depth for redirects

		PhysRegs: 1024,
		GenBits:  4,
		RefBits:  4,

		IT:   core.TableConfig{Entries: 1024, Assoc: 4},
		LISP: core.LISPConfig{Entries: 1024, Assoc: 2},
		Mem:  memsys.DefaultConfig(),

		MaxCycles: 1 << 32,
	}
}

// eventHorizon bounds how far ahead a completion event may be scheduled.
// Worst-case latency chains (TLB miss + L2 miss + memory + bus + MSHR
// retry) stay well under a thousand cycles; 8K slots leaves an order of
// magnitude of slack while keeping the per-pipeline ring at 64KB — it
// used to be 512KB, which dominated the allocation cost of the sampling
// subsystem's per-window pipelines. schedule panics loudly if an event
// ever lands beyond the horizon.
const eventHorizon = 1 << 13

// eventKind discriminates completion events.
type eventKind uint8

const (
	evExec eventKind = iota // ALU/FP/control execution complete
	evAddrGen
	evLoadDone
	evLoadRetry
	evStoreExec
)

type event struct {
	kind eventKind
	u    *uop
	seq  uint64 // u.seq at schedule time; a recycled uop has a newer seq
	val  uint64 // payload: load value for evLoadDone
}

// Pipeline is one simulated machine instance bound to a program and a
// streaming view of its golden trace.
type Pipeline struct {
	cfg  Config
	prog *prog.Program
	win  traceWindow

	rf    *regfile.File
	front *rename.MapTable
	arch  *rename.MapTable
	integ *core.Integrator
	pred  *bpred.Predictor
	btb   *bpred.BTB
	ras   *bpred.RAS
	cht   *bpred.CHT
	mem   *memsys.Hierarchy

	archMem *emu.Memory // architectural memory, updated at retirement

	now    uint64
	halted bool

	// In-flight uops in program order: the ROB holds every renamed one,
	// the fetch queue the fetched ones not yet renamed.
	rob ring
	fq  ring

	// Reservation stations and their wakeup/select masks (wakeup.go).
	rs     []*uop
	rsUsed int
	wake   wakeup

	// LSQ: the renamed memory operations in program order.
	lsq ring

	// Producer map: physical register -> in-flight producing uop.
	prod []*uop

	// Fetch state.
	fetchPC      uint64 // 0 = waiting for redirect
	fetchReadyAt uint64
	icachePaid   bool // current group's I-cache access already charged

	// Golden-trace cursor.
	cursor int
	onPath bool

	seqCounter  uint64
	retireStall uint64 // store write-buffer admission backpressure
	events      [][]event

	// Steady-state allocation pools: recycled uops (sized to the
	// in-flight window), recycled event buffers (one per future cycle
	// with pending completions), and the issue-candidate scratch slice.
	uopFree []*uop
	evFree  [][]event
	cand    []*uop

	// Oracle probe plumbing (current rename candidate). prb is the probe
	// boxed once so rename does not allocate an interface per uop.
	probeU *uop
	prb    core.ProducerProbe

	// Progress observation (SetProgress): polled on the same batched
	// cadence as cancellation, so the hot loop stays allocation-free.
	progressEvery uint64
	progressFn    func(retired uint64)
	progressLast  uint64

	Stats Stats
}

// pollInterval is the cycle cadence of the batched cancellation and
// progress checks in RunContext/RunWindowContext: a power of two, so the
// check is a mask on the cycle counter. At simulation speed (a few
// hundred ns/cycle) cancellation is detected within about a millisecond,
// and the poll itself — one masked compare per cycle plus a non-blocking
// channel read every pollInterval cycles — is far below the benchgate
// noise floor.
const pollInterval = 1 << 12

// SetProgress registers fn to be called with the cumulative retired
// instruction count roughly every `every` retired instructions (polled
// at pollInterval cycle granularity, so the callback runs well off the
// per-cycle path). every == 0 disables. Call before Run; the callback
// must not mutate the pipeline.
func (pl *Pipeline) SetProgress(every uint64, fn func(retired uint64)) {
	pl.progressEvery = every
	pl.progressFn = fn
}

// poll runs the batched cancellation/progress check. It returns a
// non-nil error exactly when ctx is cancelled.
func (pl *Pipeline) poll(ctx context.Context, done <-chan struct{}) error {
	if done != nil {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	if pl.progressFn != nil && pl.progressEvery > 0 &&
		pl.Stats.Retired-pl.progressLast >= pl.progressEvery {
		pl.progressLast = pl.Stats.Retired
		pl.progressFn(pl.Stats.Retired)
	}
	return nil
}

// New builds a pipeline for a program with a golden trace source (from
// emu.Stream, emu.FromSlice, or workload.Built.Source), booted at the
// program entry — emu.New's architectural state — on cold structures.
// The source is consumed incrementally with O(ROB) buffering.
func New(cfg Config, p *prog.Program, src emu.TraceSource) *Pipeline {
	e := emu.New(p)
	return NewFrom(cfg, p, src, &BootState{PC: e.PC, Regs: e.Regs, Mem: e.Mem})
}

// Warm is the set of long-lived front-end and memory-system structures
// a pipeline boots from. They must match the Config's geometry and are
// owned by the pipeline afterwards.
type Warm struct {
	Pred *bpred.Predictor
	BTB  *bpred.BTB
	RAS  *bpred.RAS
	CHT  *bpred.CHT
	Hier *memsys.Hierarchy
}

// NewWarm builds cold structures sized from cfg.
func NewWarm(cfg Config) Warm {
	pc := cfg.Pred.WithDefaults()
	return Warm{
		Pred: bpred.NewPredictor(cfg.Pred),
		BTB:  bpred.NewBTB(pc.BTBEntries),
		RAS:  bpred.NewRAS(pc.RASEntries),
		CHT:  bpred.NewCHT(pc.CHTEntries),
		Hier: memsys.New(cfg.Mem),
	}
}

// BootState positions a pipeline at an instruction boundary: the
// program entry (New), or a sampled window's detailed start. PC and
// Regs come from an emulator state (emu.State); Mem is the
// architectural memory at that boundary (the pipeline takes ownership —
// pass a clone if it is shared). Warm injects pre-warmed structures,
// all five of them; a zero Warm boots cold ones (NewWarm).
type BootState struct {
	PC   uint64
	Regs [isa.NumLogical]uint64
	Mem  *emu.Memory

	Warm

	// Prev hands over a finished pipeline — one whose RunContext or
	// RunWindowContext returned successfully — for parts: its allocation
	// pools, ring buffers and trace ring when every one matches the
	// Config's sizing, and its integration table, register file and LISP
	// each when its geometry matches, reset in place to the empty table,
	// the freshly built file and a cold LISP. Whatever does not fit, or a
	// nil Prev, is built fresh. Purely an allocation optimization: adopted
	// parts never change simulated behavior. Prev must not be used again.
	// The LISP is PC-keyed, so a caller may seed the new pipeline's
	// (Integrator().LISP.SetState) before it runs; the integration table
	// always starts empty — its entries name physical registers, which
	// only mean something inside one pipeline.
	Prev *Pipeline
}

// fits reports whether every buffer of the finished pipeline pl matches
// cfg's sizing.
func (pl *Pipeline) fits(cfg Config) bool {
	return len(pl.rob.buf) == cfg.ROBSize &&
		len(pl.rs) == cfg.NumRS &&
		pl.wake.fits(cfg.NumRS, cfg.PhysRegs) &&
		len(pl.lsq.buf) == cfg.LSQSize &&
		len(pl.fq.buf) == cfg.FetchQueue &&
		len(pl.prod) == cfg.PhysRegs &&
		len(pl.win.buf) >= winCap(cfg)
}

// winCap is the trace-window ring sizing hint: the in-flight window
// (ROB + fetch queue) plus slack.
func winCap(cfg Config) int { return cfg.ROBSize + cfg.FetchQueue + 8 }

// adoptBuffers takes over the drained pipeline prev's pools and rings,
// emptied: its pending event buffers go back to the free list and every
// ring slot is cleared. The wakeup masks need no reset: draining freed
// every station, which leaves them all-zero (TestWakeupMatchesScan
// checks).
func (pl *Pipeline) adoptBuffers(prev *Pipeline) {
	for i, buf := range prev.events {
		if buf != nil {
			prev.events[i] = nil
			prev.evFree = append(prev.evFree, buf[:0])
		}
	}
	prev.rob.reset()
	prev.lsq.reset()
	prev.fq.reset()
	for _, slots := range [][]*uop{prev.rs, prev.prod, prev.cand} {
		clear(slots)
	}
	pl.rob, pl.rs, pl.lsq, pl.fq = prev.rob, prev.rs, prev.lsq, prev.fq
	pl.events, pl.evFree, pl.uopFree = prev.events, prev.evFree, prev.uopFree
	pl.prod, pl.cand, pl.wake = prev.prod, prev.cand[:0], prev.wake
}

// NewFrom builds a pipeline booted from boot, which must not be nil.
// The golden trace source must produce records starting at the boot
// PC's dynamic instruction (emu.ResumeStream from the same state,
// usually wrapped in emu.Limit for a bounded window).
func NewFrom(cfg Config, p *prog.Program, src emu.TraceSource, boot *BootState) *Pipeline {
	w := boot.Warm
	if w == (Warm{}) {
		w = NewWarm(cfg)
	}
	pl := &Pipeline{
		cfg:     cfg,
		prog:    p,
		front:   rename.NewMapTable(),
		arch:    rename.NewMapTable(),
		fetchPC: boot.PC,
		onPath:  true,
		pred:    w.Pred,
		btb:     w.BTB,
		ras:     w.RAS,
		cht:     w.CHT,
		mem:     w.Hier,
		archMem: boot.Mem,
	}
	rcfg := regfile.Config{
		NumRegs: cfg.PhysRegs, GenBits: cfg.GenBits, RefBits: cfg.RefBits,
		GeneralMode: cfg.Policy.GeneralReuse,
	}
	var (
		it     *core.Table
		lisp   *core.LISP
		winBuf []emu.TraceRec
	)
	if prev := boot.Prev; prev != nil {
		prev.drainInFlight() // before its register file is reset for pl
		it, pl.rf = prev.integ.Table, prev.rf
		if prev.cfg.LISP == cfg.LISP {
			lisp = prev.integ.LISP
			lisp.Reset()
		}
		if prev.fits(cfg) {
			pl.adoptBuffers(prev)
			winBuf = prev.win.buf
		}
	}
	if pl.rf == nil || !pl.rf.Reset(rcfg) {
		pl.rf = regfile.New(rcfg)
	}
	if pl.rs == nil {
		pl.rob = newRing(cfg.ROBSize)
		pl.rs = make([]*uop, cfg.NumRS)
		pl.lsq = newRing(cfg.LSQSize)
		pl.fq = newRing(cfg.FetchQueue)
		pl.events = make([][]event, eventHorizon)
		pl.uopFree = make([]*uop, 0, cfg.ROBSize+cfg.FetchQueue+1)
		pl.cand = make([]*uop, 0, cfg.NumRS)
		pl.prod = make([]*uop, cfg.PhysRegs)
		pl.wake = newWakeup(cfg.NumRS, cfg.PhysRegs)
	}
	pl.win.init(src, winCap(cfg), winBuf)
	if lisp == nil {
		lisp = core.NewLISP(cfg.LISP)
	}
	pl.integ = core.New(cfg.Policy, cfg.IT, lisp, pl.rf, it)
	pl.prb = probe{pl}

	// Boot every live architectural register value, SP and GP first;
	// zero-valued registers stay on the pinned zero register (reads
	// yield 0, as architecturally required).
	for _, l := range bootOrder {
		if v := boot.Regs[l]; v != 0 {
			pl.bootReg(l, v)
		}
	}
	return pl
}

// bootOrder lists logical registers in boot-mapping order: SP, GP, then
// the rest ascending. The hardwired zero register (isa.RegZero) never
// boots — it stays pinned to the zero physical register.
var bootOrder = func() []int {
	order := []int{int(isa.RegSP), int(isa.RegGP)}
	for l := 0; l < isa.NumLogical; l++ {
		if l != int(isa.RegSP) && l != int(isa.RegGP) && l != int(isa.RegZero) {
			order = append(order, l)
		}
	}
	return order
}()

func (pl *Pipeline) bootReg(l int, v uint64) {
	preg, ok := pl.rf.Alloc()
	if !ok {
		panic("pipeline: boot allocation failed")
	}
	pl.rf.SetReady(preg, v)
	m := rename.Mapping{P: preg, Gen: pl.rf.Gen(preg)}
	pl.front.Set(isaReg(l), m)
	pl.arch.Set(isaReg(l), m)
}

// RunContext simulates to completion (all golden-trace instructions
// retired) and returns the statistics: a RunWindowContext with no
// warmup and no end to the measurement.
func (pl *Pipeline) RunContext(ctx context.Context) (*Stats, error) {
	return pl.RunWindowContext(ctx, 0, math.MaxUint64)
}

// Integrator exposes the integration machinery for diagnostics (match
// and rejection counters, table occupancy). Mutating it mid-run corrupts
// the simulation.
func (pl *Pipeline) Integrator() *core.Integrator { return pl.integ }

// RunWindowContext simulates a measurement window in three phases. The
// first warmup retired instructions run in warmup mode — the machine
// executes in full detail (filling the integration table, LISP,
// register file and any residual cache/predictor state) while the
// statistics are gated off. The next measure instructions are the measurement: their Stats
// delta is the result. The run then stops at the measurement boundary
// with the pipeline still full — the caller's source should extend a
// drain pad beyond warmup+measure (emu.Limit(src, warmup+measure+pad))
// so the end-of-window drain overlaps with later instructions exactly as
// in a full run, instead of deflating the measured IPC.
//
// Both boundaries land at the end of the first cycle in which cumulative
// retirement reaches them (exact to within one retire group, and
// deterministic). If the stream ends before the warmup boundary the
// measured window is empty: all-zero Stats; if it ends inside the
// measurement, the delta covers what retired (including the genuine
// final drain when the program itself ends there, as in a full run).
// Stats.TraceWindowPeak reports the whole run's peak, warmup included —
// it is a memory bound, not a windowed counter.
//
// ctx is polled every pollInterval cycles (batched, allocation-free),
// and a cancelled run returns ctx.Err() within that bound.
// context.Background() adds no per-cycle work beyond one masked compare.
func (pl *Pipeline) RunWindowContext(ctx context.Context, warmup, measure uint64) (*Stats, error) {
	done := ctx.Done()
	watch := done != nil || pl.progressFn != nil
	var base *Stats
	if warmup == 0 {
		base = &Stats{} // measure from the very first cycle
	}
	end := warmup + measure
	for !pl.halted {
		if pl.now >= pl.cfg.MaxCycles {
			return nil, fmt.Errorf("pipeline: %s exceeded cycle budget at %d retired",
				pl.prog.Name, pl.Stats.Retired)
		}
		if watch && pl.now&(pollInterval-1) == 0 {
			if err := pl.poll(ctx, done); err != nil {
				return nil, err
			}
		}
		pl.step()
		if base == nil && pl.Stats.Retired >= warmup {
			b := pl.Stats
			b.Cycles = pl.now
			base = &b
		}
		if pl.Stats.Retired >= end {
			pl.halted = true
		}
	}
	pl.Stats.Cycles = pl.now
	pl.Stats.TraceWindowPeak = uint64(pl.win.peak)
	if err := pl.win.err(); err != nil {
		return nil, fmt.Errorf("pipeline: golden trace source failed: %w", err)
	}
	if err := pl.auditRegisters(); err != nil {
		return nil, err
	}
	// A finished pipeline may wait for a successor to take it over
	// (BootState.Prev): it keeps neither its trace source nor its
	// memory image.
	pl.win.src, pl.archMem = nil, nil
	if base == nil {
		// Stream ended inside warmup: nothing was measured.
		return &Stats{}, nil
	}
	m := pl.Stats.Delta(base)
	return &m, nil
}

// newUop returns a zeroed uop, recycling from the free list. Steady-state
// fetch allocates nothing: the pool is bounded by the in-flight window
// (ROB + fetch queue).
//
//rix:hotpath
func (pl *Pipeline) newUop() *uop {
	n := len(pl.uopFree)
	if n == 0 {
		return &uop{} //rix:alloc-ok — pool refill, bounded by the in-flight window
	}
	u := pl.uopFree[n-1]
	pl.uopFree = pl.uopFree[:n-1]
	*u = uop{}
	return u
}

// freeUop returns a dead uop to the pool and its RAS checkpoint to the
// RAS's shadow pool. Fields are cleared on reuse, not here, so callers
// (e.g. squash recovery reading checkpoint snapshots) may still read the
// carcass until the next newUop — a released RAS shadow likewise stays
// intact until the next fetch snapshots. Stale completion events are
// fenced by the (seq, squashed) guard in completeStage.
func (pl *Pipeline) freeUop(u *uop) {
	pl.ras.Release(u.rasSnap)
	pl.uopFree = append(pl.uopFree, u)
}

// fqDrain squashes and recycles every fetched-but-unrenamed uop,
// returning the oldest (the squash recovery checkpoint), or nil when the
// queue was empty.
func (pl *Pipeline) fqDrain() *uop {
	var oldest *uop
	for pl.fq.len() > 0 {
		v := pl.fq.popHead()
		v.squashed = true
		if oldest == nil {
			oldest = v
		}
		pl.freeUop(v)
	}
	return oldest
}

// step advances one cycle. Stages run back-to-front so that same-cycle
// structural hazards resolve like hardware latches.
//
//rix:hotpath
func (pl *Pipeline) step() {
	pl.retireStage()
	if !pl.halted {
		pl.completeStage()
		pl.issueStage()
		pl.renameStage()
		pl.fetchStage()
	}
	pl.Stats.RSOccupancySum += uint64(pl.rsUsed)
	pl.Stats.ROBOccupancySum += uint64(pl.rob.len())
	pl.now++
}

// schedule registers a completion event, stamping the uop's current
// sequence number so stale events for recycled uops are discarded at
// dispatch. Empty slots draw a reusable buffer from the pool instead of
// growing a fresh slice, so steady state schedules allocation-free.
//
//rix:hotpath
func (pl *Pipeline) schedule(at uint64, ev event) {
	if at <= pl.now {
		at = pl.now + 1
	}
	if at-pl.now >= eventHorizon {
		panic("pipeline: event beyond horizon")
	}
	ev.seq = ev.u.seq
	slot := at % eventHorizon
	buf := pl.events[slot]
	if buf == nil {
		if n := len(pl.evFree); n > 0 {
			buf = pl.evFree[n-1]
			pl.evFree = pl.evFree[:n-1]
		}
	}
	pl.events[slot] = append(buf, ev)
}

// auditRegisters verifies at halt that no physical registers leaked: once
// everything still in flight is squashed, the live mappings must be
// exactly the architectural map entries.
func (pl *Pipeline) auditRegisters() error {
	// Retirement of the exit syscall leaves younger (wrong-path) uops in
	// flight; squash them to release their references.
	pl.drainInFlight()
	expected := 0
	for l := 0; l < 32; l++ {
		if pl.arch.Get(isaReg(l)).P != regfile.ZeroReg {
			expected++
		}
	}
	return pl.rf.CheckLeaks(expected)
}

// drainInFlight squashes everything still in flight (post-halt cleanup).
func (pl *Pipeline) drainInFlight() {
	for pl.rob.len() > 0 {
		u := pl.rob.popTail()
		pl.undoUop(u)
		pl.freeUop(u)
	}
	pl.fqDrain()
}
