// Package run is the unified entry point for every simulation in the
// tree: a run is described as a JSON-serializable Request, validated
// eagerly, executed by Do under a context.Context, observed live
// through a typed event stream (Observer), and summarized in a Result
// that round-trips through JSON.
//
// Do routes automatically by the request's Mode():
//
//   - ModeDetail — full-detail pipeline simulation (pipeline.RunContext)
//   - ModeSampled — checkpointed interval sampling (sample.Run)
//   - ModeResume — finish or re-measure a checkpointed sampled run
//     (sample.Continue)
//
// Cancellation reaches every layer: the pipeline's cycle loop, the
// emulator's fast-forward and stream loops, and the sampling engine's
// window iteration all poll the context at batched intervals, so a
// cancelled run returns ctx.Err() within a bounded amount of simulated
// work while the hot loops stay allocation-free. A cancelled sampled
// run that was writing checkpoints leaves the checkpoint of every
// window it dispatched, so a later ModeResume request reproduces the
// uninterrupted run's stats bit-for-bit.
//
// The runner engine (internal/runner) executes its experiment matrices
// through Do, and the simulation CLIs (rixsim, rixbench, rixtrace)
// build on the same stack, so one cancellation and observation story
// covers ad-hoc runs, experiment suites, and the command line.
package run

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"rix/internal/pipeline"
	"rix/internal/sample"
	"rix/internal/sim"
)

// Mode names the execution path a Request routes to.
type Mode string

const (
	ModeDetail  Mode = "detail"  // full-detail pipeline simulation
	ModeSampled Mode = "sampled" // checkpointed interval sampling
	ModeResume  Mode = "resume"  // finish/re-measure a checkpointed sampled run
)

// Request describes one simulation as data. It is the serializable unit
// of work: a request marshals to JSON, travels (to a config file, a job
// queue, a remote daemon), unmarshals, and executes identically —
// Validate and Do never depend on anything outside the value.
//
// Exactly one of Workload (a registered or engine-supplied workload
// name) and Source (inline rix assembly) selects the program.
type Request struct {
	// Workload names a workload resolved through the run's Source
	// (default: the package registry, memoized).
	Workload string `json:"workload,omitempty"`

	// Source is inline rix assembly, assembled under SourceName (default
	// "inline.s"). Inline programs have no validated dynamic length, so
	// sampled estimates scale by the observed count.
	Source     string `json:"source,omitempty"`
	SourceName string `json:"source_name,omitempty"`

	// Label keys the run's results (default Options.Label()).
	Label string `json:"label,omitempty"`

	// Options is the machine configuration, including the sampling
	// switch that selects ModeSampled.
	Options sim.Options `json:"options"`

	// CheckpointDir persists (ModeSampled) or supplies (ModeResume) the
	// sampled run's per-window checkpoints.
	CheckpointDir string `json:"checkpoint_dir,omitempty"`

	// Resume selects ModeResume: finish or re-measure the checkpointed
	// run in CheckpointDir. Requires Options.Sampling and CheckpointDir.
	Resume bool `json:"resume,omitempty"`

	// Jobs bounds window-level parallelism: a sampled or resumed run
	// keeps up to Jobs detail windows in flight on a worker pool of
	// that many slots, while its warm pass feeds them boundaries. 0 and
	// 1 both mean one window at a time. When the caller supplies a shared pool
	// (WithScheduler), the pool's slot count governs instead and Jobs
	// records the intended size for request-serialization fidelity. The
	// estimate is bit-identical in every case.
	Jobs int `json:"jobs,omitempty"`

	// CheckpointCache is a directory for the content-addressed warm-set
	// cache: a sampled run probes it before fast-forwarding and skips the
	// warm pass on a hit. Safe to share across runs and processes; any
	// configuration change is a clean miss.
	CheckpointCache string `json:"checkpoint_cache,omitempty"`

	// MaxInstrs bounds functional execution of inline sources and
	// sampled fast-forward (default workload.MaxInstrs /
	// sample.DefaultMaxInstrs).
	MaxInstrs uint64 `json:"max_instrs,omitempty"`

	// WorkerDir, when set, runs a sampled run's detail windows on
	// `rixsim -worker` processes watching this directory instead of
	// in-process: manifests, leases, and results travel through its
	// windows/ subdirectory (see internal/sample/procexec). Jobs then
	// bounds the windows on offer at once. The estimate is
	// bit-identical either way, and a resume run executes its windows
	// the same way. Requires Options.Sampling.
	WorkerDir string `json:"worker_dir,omitempty"`
}

// Mode reports the execution path the request routes to.
func (r *Request) Mode() Mode {
	switch {
	case r.Resume:
		return ModeResume
	case r.Options.Sampling != nil:
		return ModeSampled
	default:
		return ModeDetail
	}
}

// ResolvedLabel is the result key: Label, or the canonical option label.
func (r *Request) ResolvedLabel() string {
	if r.Label != "" {
		return r.Label
	}
	return r.Options.Label()
}

// name is the workload name results and events carry.
func (r *Request) name() string {
	if r.Workload != "" {
		return r.Workload
	}
	if r.SourceName != "" {
		return r.SourceName
	}
	return "inline.s"
}

// Validate rejects malformed requests eagerly — before any workload is
// built or simulation started — so a registry of requests (like the
// experiment spec registry) catches bad axes at registration time.
func (r *Request) Validate() error {
	if (r.Workload == "") == (r.Source == "") {
		return fmt.Errorf("run: request needs exactly one of workload and source (got workload=%q, %d source bytes)",
			r.Workload, len(r.Source))
	}
	if _, err := r.Options.Config(); err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if r.Resume {
		if r.Options.Sampling == nil {
			return fmt.Errorf("run: resume request needs Options.Sampling (the layout the checkpoints were written under)")
		}
		if r.CheckpointDir == "" {
			return fmt.Errorf("run: resume request needs CheckpointDir")
		}
	}
	if r.CheckpointDir != "" && r.Options.Sampling == nil {
		return fmt.Errorf("run: CheckpointDir is only meaningful for sampled runs (set Options.Sampling)")
	}
	if r.Jobs < 0 {
		return fmt.Errorf("run: Jobs must be >= 0, got %d", r.Jobs)
	}
	if r.Jobs > 1 && r.Options.Sampling == nil {
		return fmt.Errorf("run: Jobs is only meaningful for sampled runs (set Options.Sampling)")
	}
	if r.CheckpointCache != "" && r.Options.Sampling == nil {
		return fmt.Errorf("run: CheckpointCache is only meaningful for sampled runs (set Options.Sampling)")
	}
	if r.WorkerDir != "" && r.Options.Sampling == nil {
		return fmt.Errorf("run: WorkerDir is only meaningful for sampled runs (set Options.Sampling)")
	}
	return nil
}

// Window is one sampled measurement window's summary in a Result.
type Window struct {
	Index        int     `json:"index"`
	Start        uint64  `json:"start"`
	MeasuredFrom uint64  `json:"measured_from"`
	Retired      uint64  `json:"retired"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`
	Rate         float64 `json:"rate"`
}

// Sampled is the sampling-specific half of a Result: per-window
// estimates plus the aggregate coverage and confidence numbers of the
// sample.Estimate it summarizes.
type Sampled struct {
	Sampling        sample.Sampling `json:"sampling"`
	TotalInstrs     uint64          `json:"total_instrs"`
	SampledInstrs   uint64          `json:"sampled_instrs"`
	DetailedInstrs  uint64          `json:"detailed_instrs"`
	EstimatedCycles uint64          `json:"estimated_cycles"`
	IPC             float64         `json:"ipc"`       // sample-weighted IPC estimate
	Rate            float64         `json:"rate"`      // sample-weighted integration-rate estimate
	IPCCI95         float64         `json:"ipc_ci95"`  // relative half-width on IPC
	RateCI95        float64         `json:"rate_ci95"` // absolute half-width on integration rate

	// Speculative-wave telemetry. The coordinator dispatches detail
	// windows speculatively on guessed feedback: WindowsDispatched counts
	// dispatches (re-dispatches after a misspeculation count again),
	// WindowsSettled the windows whose results were adopted, and
	// WindowsDiscarded the dispatches cancelled by a feedback
	// misspeculation — so Dispatched = Settled + Discarded + (in-flight
	// at an error). A feedback-volatile workload that degrades toward
	// one window at a time shows up here as Discarded approaching
	// Settled, rather than as unexplained slowness. A one-slot run
	// never speculates, so it reports Dispatched = Settled,
	// Discarded = 0. These counts are deterministic for a given run.
	WindowsDispatched uint64 `json:"windows_dispatched"`
	WindowsSettled    uint64 `json:"windows_settled"`
	WindowsDiscarded  uint64 `json:"windows_discarded"`

	Windows []Window `json:"windows"`
}

// DetailFraction is the fraction of the run simulated in detail.
func (s *Sampled) DetailFraction() float64 {
	if s.TotalInstrs == 0 {
		return 0
	}
	return float64(s.DetailedInstrs) / float64(s.TotalInstrs)
}

// summarize flattens a sample.Estimate into the serializable Sampled
// form. discarded is the run's wave-telemetry tally of misspeculated
// windows. Every window of a completed run settles exactly once and
// every other dispatch was discarded, so dispatched = settled +
// discarded — a one-slot run (which never dispatches speculatively)
// counts each window as one dispatch.
func summarize(est *sample.Estimate, discarded uint64) *Sampled {
	settled := uint64(len(est.Windows))
	s := &Sampled{
		WindowsDispatched: settled + discarded,
		WindowsSettled:    settled,
		WindowsDiscarded:  discarded,
		Sampling:          est.Sampling,
		TotalInstrs:       est.TotalInstrs,
		SampledInstrs:     est.SampledInstrs,
		DetailedInstrs:    est.DetailedInstrs,
		EstimatedCycles:   est.EstimatedCycles(),
		IPC:               est.IPC(),
		Rate:              est.IntegrationRate(),
		IPCCI95:           est.IPCCI95,
		RateCI95:          est.RateCI95,
		Windows:           make([]Window, len(est.Windows)),
	}
	for i, w := range est.Windows {
		s.Windows[i] = Window{
			Index:        w.Index,
			Start:        w.Start,
			MeasuredFrom: w.MeasuredFrom,
			Retired:      w.Stats.Retired,
			Cycles:       w.Stats.Cycles,
			IPC:          w.Stats.IPC(),
			Rate:         w.Stats.IntegrationRate(),
		}
	}
	return s
}

// String renders the one-look sampled summary block (the same
// sample.Summary formatting Estimate.String uses).
func (s *Sampled) String() string {
	return sample.Summary(s.SampledInstrs, s.TotalInstrs, s.DetailFraction(), len(s.Windows), s.Sampling,
		s.IPC, s.IPCCI95, s.Rate, s.RateCI95, s.EstimatedCycles)
}

// Result is a completed run: identification, the measured statistics,
// sampling detail when the run sampled, and wall-clock timing. It
// round-trips through JSON (Wall serializes as nanoseconds).
type Result struct {
	Workload string `json:"workload"`
	Label    string `json:"label"`
	Mode     Mode   `json:"mode"`

	// Stats are the run's statistics. For sampled runs they aggregate
	// the measured windows: ratio metrics (IPC, rates, per-million
	// counts) estimate the full run, absolute counters cover the
	// windows.
	Stats pipeline.Stats `json:"stats"`

	// Sampled carries the window-level estimates for sampled/resumed
	// runs; nil for detail runs.
	Sampled *Sampled `json:"sampled,omitempty"`

	// DynLen is the workload's validated dynamic instruction count, or 0
	// when unknown (inline sources).
	DynLen int `json:"dyn_len,omitempty"`

	// Wall is the run's wall-clock duration (request resolution through
	// simulation end).
	Wall time.Duration `json:"wall_ns"`
}

// MarshalRequest / UnmarshalRequest are convenience round-trip helpers
// for tooling that stores requests as files or wire messages.
func MarshalRequest(r *Request) ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// UnmarshalRequest parses and eagerly validates a serialized request.
// Unknown fields are rejected: a misspelled key in a request file must
// fail loudly here, not silently reinterpret the run (e.g. a typo'd
// "checkpoint_dir" would otherwise just drop checkpointing).
func UnmarshalRequest(data []byte) (*Request, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Request
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("run: parse request: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
