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

	// ROB: ring of in-flight renamed uops.
	rob     []*uop
	robHead int
	robLen  int

	// Fetch queue: ring of fetched, not-yet-renamed uops.
	fq     []*uop
	fqHead int
	fqLen  int

	// Reservation stations and their wakeup/select masks (wakeup.go).
	rs     []*uop
	rsUsed int
	wake   wakeup

	// LSQ: ring of memory operations in program order.
	lsq     []*uop
	lsqHead int
	lsqLen  int

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

	// LISP seeds the integrator's suppression predictor: it is PC-keyed,
	// so it is safe to carry between pipelines; nil boots a cold one.
	// The integration table always starts empty — its entries name
	// physical registers, which only mean something inside one pipeline.
	LISP *core.LISP

	// Scratch recycles a finished pipeline's allocation pools, ring
	// buffers, integration table and register file (Pipeline.Recycle)
	// into this one. The pools and rings are adopted only when every one
	// matches the Config's sizing, the table and register file each when
	// its geometry matches (reset in place to the empty table and the
	// freshly built file); whatever does not fit, or a nil Scratch, falls
	// back to fresh allocations. Purely an allocation optimization:
	// recycled parts never change simulated behavior.
	Scratch *Scratch
}

// Scratch is the recyclable allocation state of a finished pipeline:
// the uop and event pools, the ROB/RS/LSQ/fetch-queue rings, the RS
// wakeup masks, the producer map, the trace-window ring, the
// integration table and the register file. The sampling engine threads
// one Scratch through its per-window pipelines so steady-state window
// simulation allocates almost nothing. A Scratch is single-owner: hand
// it to at most one NewFrom at a time.
type Scratch struct {
	it     *core.Table
	rf     *regfile.File
	uops   []*uop
	events [][]event
	evFree [][]event
	prod   []*uop
	rob    []*uop
	rs     []*uop
	lsq    []*uop
	fq     []*uop
	cand   []*uop
	wake   wakeup
	win    []emu.TraceRec
}

// fits reports whether every recycled buffer matches cfg's sizing.
func (s *Scratch) fits(cfg Config) bool {
	return s != nil &&
		len(s.rob) == cfg.ROBSize &&
		len(s.rs) == cfg.NumRS &&
		s.wake.fits(cfg.NumRS, cfg.PhysRegs) &&
		len(s.lsq) == cfg.LSQSize &&
		len(s.fq) == cfg.FetchQueue &&
		len(s.prod) == cfg.PhysRegs &&
		len(s.events) == eventHorizon &&
		len(s.win) >= winCap(cfg)
}

// winCap is the trace-window ring sizing hint: the in-flight window
// (ROB + fetch queue) plus slack.
func winCap(cfg Config) int { return cfg.ROBSize + cfg.FetchQueue + 8 }

// Recycle strips a finished pipeline for parts, returning a Scratch a
// successor pipeline of the same configuration can adopt through
// BootState.Scratch. Call it only after RunContext or RunWindowContext
// returned successfully — the machine is halted and its in-flight
// window drained — and do not touch the pipeline afterwards.
func (pl *Pipeline) Recycle() *Scratch {
	pl.drainInFlight() // idempotent: audit already drained on the success paths
	for i := range pl.events {
		if buf := pl.events[i]; buf != nil {
			pl.events[i] = nil
			pl.evFree = append(pl.evFree, buf[:0])
		}
	}
	for i := range pl.rob {
		pl.rob[i] = nil
	}
	for i := range pl.rs {
		pl.rs[i] = nil
	}
	for i := range pl.lsq {
		pl.lsq[i] = nil
	}
	for i := range pl.fq {
		pl.fq[i] = nil
	}
	for i := range pl.prod {
		pl.prod[i] = nil
	}
	for i := range pl.cand {
		pl.cand[i] = nil
	}
	// The wakeup masks need no reset: draining freed every station,
	// which leaves them all-zero (TestWakeupMatchesScan checks).
	return &Scratch{
		it:     pl.integ.Table,
		rf:     pl.rf,
		uops:   pl.uopFree,
		events: pl.events,
		evFree: pl.evFree,
		prod:   pl.prod,
		rob:    pl.rob,
		rs:     pl.rs,
		lsq:    pl.lsq,
		fq:     pl.fq,
		cand:   pl.cand[:0],
		wake:   pl.wake,
		win:    pl.win.buf,
	}
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
	var it *core.Table
	if s := boot.Scratch; s != nil {
		it, pl.rf = s.it, s.rf
	}
	if pl.rf == nil || !pl.rf.Reset(rcfg) {
		pl.rf = regfile.New(rcfg)
	}
	var winBuf []emu.TraceRec
	if s := boot.Scratch; s.fits(cfg) {
		pl.rob, pl.rs, pl.lsq, pl.fq = s.rob, s.rs, s.lsq, s.fq
		pl.events = s.events
		pl.evFree = s.evFree
		pl.uopFree = s.uops
		pl.prod = s.prod
		pl.cand = s.cand[:0]
		pl.wake = s.wake
		winBuf = s.win
	} else {
		pl.rob = make([]*uop, cfg.ROBSize)
		pl.rs = make([]*uop, cfg.NumRS)
		pl.lsq = make([]*uop, cfg.LSQSize)
		pl.fq = make([]*uop, cfg.FetchQueue)
		pl.events = make([][]event, eventHorizon)
		pl.uopFree = make([]*uop, 0, cfg.ROBSize+cfg.FetchQueue+1)
		pl.cand = make([]*uop, 0, cfg.NumRS)
		pl.prod = make([]*uop, cfg.PhysRegs)
		pl.wake = newWakeup(cfg.NumRS, cfg.PhysRegs)
	}
	pl.win.init(src, winCap(cfg), winBuf)
	lisp := boot.LISP
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

// wrap reduces a ring index in [0, 2n) to [0, n) without a division:
// exact for any ring size, where a mask would need a power of two.
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

// fqPush appends a fetched uop; the ring is sized to cfg.FetchQueue and
// callers check fqLen first.
func (pl *Pipeline) fqPush(u *uop) {
	pl.fq[wrap(pl.fqHead+pl.fqLen, len(pl.fq))] = u
	pl.fqLen++
}

// fqPop removes and returns the oldest fetched uop.
func (pl *Pipeline) fqPop() *uop {
	u := pl.fq[pl.fqHead]
	pl.fq[pl.fqHead] = nil
	pl.fqHead = wrap(pl.fqHead+1, len(pl.fq))
	pl.fqLen--
	return u
}

// fqDrain squashes and recycles every fetched-but-unrenamed uop,
// returning the oldest (the squash recovery checkpoint), or nil when the
// queue was empty.
func (pl *Pipeline) fqDrain() *uop {
	var oldest *uop
	for i := 0; i < pl.fqLen; i++ {
		pos := wrap(pl.fqHead+i, len(pl.fq))
		v := pl.fq[pos]
		pl.fq[pos] = nil
		v.squashed = true
		if oldest == nil {
			oldest = v
		}
		pl.freeUop(v)
	}
	pl.fqLen = 0
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
	pl.Stats.ROBOccupancySum += uint64(pl.robLen)
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
	for pl.robLen > 0 {
		tail := wrap(pl.robHead+pl.robLen-1, len(pl.rob))
		u := pl.rob[tail]
		pl.undoUop(u)
		pl.rob[tail] = nil
		pl.robLen--
		pl.freeUop(u)
	}
	pl.fqDrain()
}
