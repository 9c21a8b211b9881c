// Package rix is a from-scratch reproduction of "Three Extensions to
// Register Integration" (Roth, Bracy, Petric — University of Pennsylvania
// TR MS-CIS-02-22, 2002): a cycle-level, execution-driven, out-of-order
// superscalar simulator whose register-rename stage implements register
// integration, plus the paper's three extensions — general reuse via
// physical-register reference counting, opcode/call-depth integration
// table indexing, and reverse integration (speculative memory bypassing
// for stack saves and restores).
//
// # Streaming trace pipeline
//
// Golden traces are produced and consumed through the emu.TraceSource
// contract (Next/Err): the emulator is an incremental
// producer (emu.Stream), the pipeline buffers only a sliding window of
// O(ROB + fetch queue) records, and workload.Built mints an independent
// source per simulation so concurrent configs of one workload never
// share a cursor. Memory per simulation is therefore bounded by the
// machine's in-flight window, not by trace length (formerly up to
// 24 bytes x 2^24 records materialized per workload). emu.FromSlice
// adapts recorded traces, and emu.Materialize / workload.Built.Materialize
// flatten a stream for tests and small traces. The pipeline's steady
// state allocates nothing: uops recycle through a free list sized to the
// in-flight window, completion events reuse a pooled ring of buffers,
// and the issue stage sorts candidates in preallocated scratch.
//
// # The unified run API
//
// internal/run is the single entry point for every simulation: a run is
// described by a JSON-serializable run.Request (workload name or inline
// program, sim.Options including sampling, checkpoint/resume knobs),
// validated eagerly, and executed by run.Do(ctx, req, opts...), which
// routes automatically to the full-detail pipeline, the sampling
// engine, or checkpoint resume. The context is honored at batched poll
// boundaries through the whole stack (pipeline cycle loop, emulator
// streams, sampling windows, workload builds, runner pool) so a
// cancelled run returns ctx.Err() promptly without putting work on the
// per-cycle path; a cancelled checkpointing sampled run flushes a final
// checkpoint and a Resume request finishes it bit-identically
// (sample.Continue). run.Observer receives typed progress events (cell
// started/finished, instructions retired, window completed, checkpoint
// written); runner.Engine executes its spec matrices through run.Do and
// forwards every cell's events to Engine.Observer. internal/sim is pure
// configuration — Options renders presets into pipeline.Config and has
// no execution entry point of its own.
//
// # Sampled simulation
//
// internal/sample layers checkpointed interval sampling on the
// streaming contract: functional fast-forward with microarchitectural
// warming (caches, TLBs, branch predictors, BTB, RAS), periodic
// detailed measurement windows booted mid-trace via pipeline.BootState
// (a warmup prefix with statistics gated off warms the
// rename-dependent state), per-window Stats aggregated into estimates
// with confidence half-widths, and gob checkpoints per window boundary
// so runs resume and windows shard across processes (doc/FORMATS.md
// specifies the on-disk encodings). One engine runs every sampled
// cell: a window coordinator pulls window boundaries from the warm
// pass — one fast-forward in index order, copying each boundary into a
// small ring of pooled entries — and executes the detail windows
// speculatively on the one executor internal/run picks for the run
// (sample.Config.Scheduler): cross-process workers when the request
// sets WorkerDir, else a shared slot pool (sample.Scheduler) or a
// pool of the run's own — a process-wide pool of slots, each holding a
// pooled boot clone re-seeded in place per window, that all sampled
// cells draw from, a window running on its own goroutine once it takes
// a slot; a cell that settles early stops asking and its slots flow to
// cells still draining — with the estimate bit-identical at every
// width and the
// dispatched/settled/discarded window counts reported on
// run.Result.Sampled. The warm pass's boundary states share pages with
// the emulator's copy-on-write memory, and drained into a warm set it
// is reusable through a content-addressed checkpoint cache
// (run.Request.CheckpointCache, runner.Engine.CheckpointCache) of
// .warmset entries. sim.Options.Sampling selects
// sampling per cell; runner routes sampled cells automatically and
// sizes the matrix-wide scheduler from its -j budget (Engine
// .WindowJobs overrides), and runner.Sampled derives sampled variants
// of whole specs (rixbench -sample). doc/ARCHITECTURE.md maps the
// whole sampling stack top to bottom.
//
// Layout:
//
//	internal/isa          Alpha-flavoured 64-bit RISC ISA
//	internal/asm          two-pass assembler
//	internal/emu          architectural emulator (golden model / DIVA)
//	internal/bpred        hybrid branch predictor, BTB, RAS, CHT
//	internal/memsys       caches, TLBs, MSHRs, write buffer, buses
//	internal/regfile      reference-counted physical register file
//	internal/rename       pointer-based map table
//	internal/core         the paper's contribution: IT, LISP, logic
//	internal/pipeline     13-stage 4-way out-of-order core
//	internal/sim          named configuration presets (pure configuration facade)
//	internal/sample       checkpointed interval-sampling engine (Run/Continue)
//	internal/run          unified run API: Request/Do/Observer/Result (serializable, cancellable)
//	internal/workload     16 synthetic SPEC2000int stand-ins
//	internal/runner       experiment engine over run.Do: spec registry, lazy builds, bounded pool
//	internal/experiments  the paper's figures/diagnostics as registered specs
//	cmd/internal/cmdutil  shared CLI harness: signal-cancelled contexts, one exit path
//	cmd/rixsim            single-run driver over run.Do (-sample/-resume/-req/-json/-timeout)
//	cmd/rixbench          figure/table reproduction harness (-sample for the fast matrix)
//	cmd/rixasm            assembler / disassembler
//	cmd/rixtrace          functional profiler (streaming)
//	cmd/benchgate         bench output -> BENCH_pipeline.json + perf gates (-update refreshes baseline)
//	examples/             quickstart, membypass, complexity, customworkload, runapi
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results against the paper.
package rix
