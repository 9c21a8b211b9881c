package bpred

import "fmt"

// This file holds the serializable state snapshots of every front-end
// predictor. They serve two customers in the sampling subsystem
// (internal/sample): functional warmup restores a live predictor's state
// into each detailed measurement window, and on-disk checkpoints persist
// the warmed state so windows can resume.
//
// SetState is each structure's one restore body: it checks the geometry,
// copies the behavioral state (counters that influence predictions) and
// restarts every diagnostic tally at zero. CopyFrom, the allocation-free
// refill of a pooled structure from a live one, is SetState of an
// aliasing view of the source, which SetState only reads.

// WithDefaults returns the config with every zero field replaced by the
// paper default — the sizing a Pipeline built from this config will use,
// exported so external warmers construct identically-sized structures.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// PredictorState is the serializable state of the direction predictor.
type PredictorState struct {
	Bimodal []uint8
	Gshare  []uint8
	Chooser []uint8
	Hist    uint64
}

// State deep-copies the predictor's behavioral state.
func (p *Predictor) State() PredictorState {
	return PredictorState{
		Bimodal: append([]uint8(nil), p.bimodal...),
		Gshare:  append([]uint8(nil), p.gshare...),
		Chooser: append([]uint8(nil), p.chooser...),
		Hist:    p.hist,
	}
}

// SetState restores a snapshot and zeroes the lookup tally; the table
// geometries must match.
func (p *Predictor) SetState(st PredictorState) error {
	if len(st.Bimodal) != len(p.bimodal) || len(st.Gshare) != len(p.gshare) ||
		len(st.Chooser) != len(p.chooser) {
		return fmt.Errorf("bpred: predictor state geometry %d/%d/%d, want %d/%d/%d",
			len(st.Bimodal), len(st.Gshare), len(st.Chooser),
			len(p.bimodal), len(p.gshare), len(p.chooser))
	}
	copy(p.bimodal, st.Bimodal)
	copy(p.gshare, st.Gshare)
	copy(p.chooser, st.Chooser)
	p.hist = st.Hist
	p.Lookups = 0
	return nil
}

// CopyFrom overwrites p with src's behavioral state without allocating.
func (p *Predictor) CopyFrom(src *Predictor) error {
	return p.SetState(PredictorState{Bimodal: src.bimodal, Gshare: src.gshare, Chooser: src.chooser, Hist: src.hist}) //rix:shared — read-only view
}

// BTBState is the serializable state of the branch target buffer.
type BTBState struct {
	Tags    []uint64
	Targets []uint64
}

// State deep-copies the BTB.
func (b *BTB) State() BTBState {
	return BTBState{
		Tags:    append([]uint64(nil), b.tags...),
		Targets: append([]uint64(nil), b.targets...),
	}
}

// SetState restores a snapshot and zeroes the tallies; the entry count
// must match.
func (b *BTB) SetState(st BTBState) error {
	if len(st.Tags) != len(b.tags) || len(st.Targets) != len(b.targets) {
		return fmt.Errorf("bpred: BTB state has %d entries, want %d", len(st.Tags), len(b.tags))
	}
	copy(b.tags, st.Tags)
	copy(b.targets, st.Targets)
	b.Lookups, b.Hits = 0, 0
	return nil
}

// CopyFrom overwrites b with src's behavioral state without allocating.
func (b *BTB) CopyFrom(src *BTB) error {
	return b.SetState(BTBState{Tags: src.tags, Targets: src.targets}) //rix:shared — read-only view
}

// RASState is the serializable state of the return-address stack. Beyond
// return prediction, Depth seeds the dynamic call depth that extension
// 2's opcode indexing mixes into the IT index — the reason warmup carries
// the RAS across fast-forwarded regions.
type RASState struct {
	Stack []uint64
	Tos   int
	Depth int
}

// State deep-copies the stack.
func (r *RAS) State() RASState {
	return RASState{Stack: append([]uint64(nil), r.stack...), Tos: r.tos, Depth: r.depth}
}

// SetState restores a snapshot and drops any pending shadow snapshot;
// the capacity must match.
func (r *RAS) SetState(st RASState) error {
	if len(st.Stack) != len(r.stack) {
		return fmt.Errorf("bpred: RAS state has %d entries, want %d", len(st.Stack), len(r.stack))
	}
	if st.Tos < 0 || st.Tos > len(r.stack) || st.Depth < 0 {
		return fmt.Errorf("bpred: RAS state tos %d / depth %d out of range", st.Tos, st.Depth)
	}
	copy(r.stack, st.Stack)
	r.tos = st.Tos
	r.depth = st.Depth
	r.dropSnap()
	return nil
}

// CopyFrom overwrites r with src's behavioral state without allocating.
func (r *RAS) CopyFrom(src *RAS) error {
	return r.SetState(RASState{Stack: src.stack, Tos: src.tos, Depth: src.depth}) //rix:shared — read-only view
}

// CHTState is the serializable state of the collision history table.
type CHTState struct {
	Tags []uint64
}

// State deep-copies the table.
func (c *CHT) State() CHTState {
	return CHTState{Tags: append([]uint64(nil), c.tags...)}
}

// SetState restores a snapshot and zeroes the tallies; the entry count
// must match.
func (c *CHT) SetState(st CHTState) error {
	if len(st.Tags) != len(c.tags) {
		return fmt.Errorf("bpred: CHT state has %d entries, want %d", len(st.Tags), len(c.tags))
	}
	copy(c.tags, st.Tags)
	c.Lookups, c.Hits, c.Trained = 0, 0, 0
	return nil
}

// CopyFrom overwrites c with src's behavioral state without allocating.
func (c *CHT) CopyFrom(src *CHT) error {
	return c.SetState(CHTState{Tags: src.tags}) //rix:shared — read-only view
}
