package pipeline

import (
	"reflect"

	"rix/internal/core"
)

// Stats aggregates everything the paper's evaluation section reports.
type Stats struct {
	Cycles  uint64
	Retired uint64

	Fetched          uint64 // all fetched, including wrong path
	FetchedWrongPath uint64
	Renamed          uint64
	Executed         uint64 // instructions that occupied an issue slot

	// Integration (measured at retirement, per the paper).
	Integrated        uint64
	IntegratedDirect  uint64
	IntegratedReverse uint64
	IntType           [numIntTypes]uint64
	IntDistance       [4]uint64 // <4, <16, <64, >=64 renamed instructions
	IntStatus         [core.NumStatuses]uint64
	IntRefcount       [4]uint64 // 1, <=3, <=7, >7

	// Mis-integrations.
	MisIntegrations   uint64
	MisIntLoads       uint64
	MisIntRegs        uint64
	OracleResidual    uint64 // mis-integrations that slipped past the oracle
	DIVAFlushes       uint64
	LateLoadViolation uint64 // order violations caught only at DIVA

	// Branches.
	CondBranches      uint64
	CondMispredicts   uint64
	ResolutionLatency uint64 // sum over retired mispredicted branches
	IndirectBranches  uint64
	IndirectMispreds  uint64

	// Loads.
	LoadsRetired     uint64
	SPLoadsRetired   uint64
	LoadViolations   uint64 // caught at store resolution
	LoadsForwarded   uint64
	CHTStallsGranted uint64

	// Machine occupancy.
	RSOccupancySum  uint64 // per-cycle busy reservation stations
	ROBOccupancySum uint64
	Squashes        uint64

	// Stalls.
	RenameStallsResources uint64
	FetchStallsICache     uint64

	// Streaming: peak golden-trace records buffered by the sliding
	// window. Bounded by the in-flight window (ROB + fetch queue), never
	// by trace length — the machine-checkable form of "the stream is
	// consumed incrementally".
	TraceWindowPeak uint64
}

// Delta returns the component-wise difference s - base: the statistics
// accumulated after the snapshot `base` was taken — the windowed-stats
// primitive behind RunWindowContext. Every uint64 field and every uint64
// array element is a monotonic counter and subtracts, with one exception:
// TraceWindowPeak is a high-water mark, so the delta carries the final
// (whole-run) value. Implemented by reflection so new counter fields are
// windowed automatically; a new non-counter field must be special-cased
// here (the accompanying test enumerates the known field kinds).
func (s *Stats) Delta(base *Stats) Stats {
	var out Stats
	sv := reflect.ValueOf(s).Elem()
	bv := reflect.ValueOf(base).Elem()
	ov := reflect.ValueOf(&out).Elem()
	visitCounters(sv.Type(), "Delta", func(i, j int) {
		f, b, o := sv.Field(i), bv.Field(i), ov.Field(i)
		if j >= 0 {
			f, b, o = f.Index(j), b.Index(j), o.Index(j)
		}
		o.SetUint(f.Uint() - b.Uint())
	})
	out.TraceWindowPeak = s.TraceWindowPeak
	return out
}

// visitCounters walks every uint64 counter of a stats-shaped struct
// type, calling visit(fieldIndex, elemIndex) for each scalar counter
// (elemIndex -1) and each element of a uint64-array counter. Any other
// field shape panics with the field's name: Stats grows by counters,
// and a non-counter field must be given an explicit rule in Delta and
// Add (like TraceWindowPeak's max/latch rule) before it can land.
func visitCounters(t reflect.Type, rule string, visit func(field, elem int)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch f.Type.Kind() {
		case reflect.Uint64:
			visit(i, -1)
		case reflect.Array:
			if f.Type.Elem().Kind() != reflect.Uint64 {
				panic("pipeline: " + t.Name() + " field " + f.Name + " is a " +
					f.Type.String() + ", not a uint64 array, and has no " + rule + " rule")
			}
			for j := 0; j < f.Type.Len(); j++ {
				visit(i, j)
			}
		default:
			panic("pipeline: " + t.Name() + " field " + f.Name + " (" +
				f.Type.String() + ") has no " + rule + " rule")
		}
	}
}

// Add accumulates other into s component-wise; TraceWindowPeak takes the
// maximum. It is the aggregation dual of Delta (internal/sample sums
// per-window measurements with it).
func (s *Stats) Add(other *Stats) {
	peak := s.TraceWindowPeak
	if other.TraceWindowPeak > peak {
		peak = other.TraceWindowPeak
	}
	sv := reflect.ValueOf(s).Elem()
	tv := reflect.ValueOf(other).Elem()
	visitCounters(sv.Type(), "Add", func(i, j int) {
		f, o := sv.Field(i), tv.Field(i)
		if j >= 0 {
			f, o = f.Index(j), o.Index(j)
		}
		f.SetUint(f.Uint() + o.Uint())
	})
	s.TraceWindowPeak = peak
}

// IPC is retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// IntegrationRate is the fraction of retired instructions that integrated.
func (s *Stats) IntegrationRate() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.Integrated) / float64(s.Retired)
}

// ReverseRate is the fraction of retired instructions that integrated via
// reverse entries.
func (s *Stats) ReverseRate() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.IntegratedReverse) / float64(s.Retired)
}

// MisIntPerMillion is the paper's mis-integrations per one million
// retired instructions.
func (s *Stats) MisIntPerMillion() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.MisIntegrations) * 1e6 / float64(s.Retired)
}

// MispredictResolutionAvg is the average cycles from fetch (prediction) to
// resolution for retired mispredicted conditional branches.
func (s *Stats) MispredictResolutionAvg() float64 {
	if s.CondMispredicts == 0 {
		return 0
	}
	return float64(s.ResolutionLatency) / float64(s.CondMispredicts)
}

// AvgRSOccupancy is the mean number of busy reservation stations.
func (s *Stats) AvgRSOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.RSOccupancySum) / float64(s.Cycles)
}

// LoadIntegrationRate is the fraction of retired loads that integrated.
func (s *Stats) LoadIntegrationRate() float64 {
	if s.LoadsRetired == 0 {
		return 0
	}
	return float64(s.IntType[intSPLoad]+s.IntType[intLoad]) / float64(s.LoadsRetired)
}

// SPLoadIntegrationRate is the fraction of retired stack-pointer loads
// that integrated.
func (s *Stats) SPLoadIntegrationRate() float64 {
	if s.SPLoadsRetired == 0 {
		return 0
	}
	return float64(s.IntType[intSPLoad]) / float64(s.SPLoadsRetired)
}

// distanceBucket maps a rename-stream distance to the Figure 5 histogram.
func distanceBucket(d uint64) int {
	switch {
	case d < 4:
		return 0
	case d < 16:
		return 1
	case d < 64:
		return 2
	default:
		return 3
	}
}

// refcountBucket maps a post-integration refcount to the Figure 5
// histogram (1, <=3, <=7, >7).
func refcountBucket(r uint16) int {
	switch {
	case r <= 1:
		return 0
	case r <= 3:
		return 1
	case r <= 7:
		return 2
	default:
		return 3
	}
}
