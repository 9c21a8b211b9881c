package run

// EventKind discriminates the typed progress events a run emits.
//
// The enum is closed: the constants below are the complete set, new
// kinds are added only alongside a new entry in EventKinds, and a JSON
// consumer switching over them may treat an unknown string as a
// protocol error rather than a forward-compatibility case. Each kind's
// comment names the Event fields it populates.
type EventKind string

const (
	// CellStarted fires once per Do call, after validation and workload
	// resolution succeed.
	CellStarted EventKind = "cell-started"
	// Progress reports simulation progress: Instrs is the cumulative
	// retired (detail) or fast-forwarded (sampled) instruction count.
	Progress EventKind = "progress"
	// WindowDone fires after each sampled measurement window; Window is
	// its index and Instrs the instructions it measured.
	WindowDone EventKind = "window-done"
	// WindowScheduled fires when the sampled engine's coordinator
	// dispatches a detail window to a worker (possibly speculatively; a window that
	// misspeculates on feedback is scheduled again). Window is its index.
	WindowScheduled EventKind = "window-scheduled"
	// WindowDiscarded fires when the coordinator cancels a
	// speculatively dispatched window because an earlier settle
	// invalidated its boot feedback; the window is scheduled again under
	// the corrected chain. Window is its index. Dispatch, settle, and
	// discard events follow a deterministic sequence for a given run.
	WindowDiscarded EventKind = "window-discarded"
	// WorkerJoined fires the first time a cross-process run (one with
	// Request.WorkerDir set) observes a given worker's lease — once per
	// worker ID for the run's lifetime. Worker is its ID. Emitted from
	// the coordinator's per-window collection goroutines; concurrent,
	// and ordering against other windows' events is not deterministic.
	WorkerJoined EventKind = "worker-joined"
	// LeaseClaimed fires when a cross-process run observes a worker's
	// exclusive claim on a dispatched window: Worker is the claimant
	// and Window the index. A window re-dispatched after a crashed
	// worker's lease goes stale fires again for the new claimant. Same
	// concurrency contract as WorkerJoined.
	LeaseClaimed EventKind = "lease-claimed"
	// ResultCollected fires when a cross-process run collects one
	// window's result file: Window is the index and Path the result
	// entry. Same concurrency contract as WorkerJoined.
	ResultCollected EventKind = "result-collected"
	// SlotReturned fires once per window settled after the run has
	// dispatched its last one — each such settle releases a scheduler
	// slot back to the shared pool. Window is the settled index.
	SlotReturned EventKind = "slot-returned"
	// WarmShardStarted fires when a sampled run starts a warm pass from
	// the program entry — the fast-forward that streams its window
	// boundaries, or fills the checkpoint cache on a miss — and not on a
	// cache hit, an injected warm set, or the pass Continue resumes from
	// a checkpoint. The pass is one span over the whole trace, so Shard
	// and SpanEnd are 0.
	WarmShardStarted EventKind = "warm-shard-started"
	// WarmShardDone fires when that warm pass reaches the program's
	// halt, past its last window boundary: Shard is 0 and SpanEnd is
	// the last boundary's dynamic instruction. Together with
	// WarmShardStarted it brackets the warm pass as one span.
	WarmShardDone EventKind = "warm-shard-done"
	// CacheHit fires when a sampled run finds its warm set in the
	// checkpoint cache; Path names the .warmset entry.
	CacheHit EventKind = "cache-hit"
	// CacheWritten fires after a sampled run persists its warm set into
	// the checkpoint cache; Path names the entry.
	CacheWritten EventKind = "cache-written"
	// CheckpointWritten fires after a sampled-run checkpoint lands on
	// disk, as the run hands the window's boundary out and before the
	// window is dispatched; Path names the file and Window the index.
	CheckpointWritten EventKind = "checkpoint-written"
	// CellFinished fires once per Do call that got as far as
	// CellStarted, success or failure (Err carries the failure text).
	CellFinished EventKind = "cell-finished"
)

// EventKinds returns every EventKind, in the order a typical run emits
// them. The slice is freshly allocated; callers may keep or mutate it.
// Exhaustiveness tests (and JSON consumers building dispatch tables)
// should range over this rather than hand-copying the constants.
func EventKinds() []EventKind {
	return []EventKind{
		CellStarted, Progress,
		WarmShardStarted, WarmShardDone,
		CacheHit, CacheWritten,
		WindowScheduled, WorkerJoined, LeaseClaimed, ResultCollected,
		WindowDone, WindowDiscarded, SlotReturned,
		CheckpointWritten, CellFinished,
	}
}

// Event is one typed progress notification. Events are values — they
// serialize to JSON, so an Observer can forward them over a wire as
// easily as render them.
type Event struct {
	Kind     EventKind `json:"kind"`
	Workload string    `json:"workload"`
	Label    string    `json:"label"`
	Mode     Mode      `json:"mode"`

	Instrs  uint64 `json:"instrs,omitempty"`   // Progress, WindowDone
	Window  int    `json:"window,omitempty"`   // WindowDone, WindowScheduled, WindowDiscarded, SlotReturned, CheckpointWritten, LeaseClaimed, ResultCollected
	Shard   int    `json:"shard,omitempty"`    // WarmShardStarted, WarmShardDone
	SpanEnd uint64 `json:"span_end,omitempty"` // WarmShardStarted, WarmShardDone
	Path    string `json:"path,omitempty"`     // CheckpointWritten, CacheHit, CacheWritten, ResultCollected
	Worker  string `json:"worker,omitempty"`   // WorkerJoined, LeaseClaimed
	Err     string `json:"err,omitempty"`      // CellFinished on failure
}

// Observer receives a run's typed progress events. Observe is called
// synchronously from the goroutines executing the run, so it must be
// fast and must not block. Every event of one run fires from the
// goroutine that called Do, in a deterministic sequence, except the
// cross-process worker events (WorkerJoined, LeaseClaimed,
// ResultCollected), which fire from the coordinator's collection
// goroutines. Observe must also be safe for concurrent use: those
// worker events arrive concurrently, and an Observer shared across
// engine cells (see runner.Engine.Observer) sees every cell's events
// concurrently. WindowDone events of one run arrive in window index
// order.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe calls f.
func (f ObserverFunc) Observe(e Event) { f(e) }

// nopObserver is the default sink.
type nopObserver struct{}

func (nopObserver) Observe(Event) {}
