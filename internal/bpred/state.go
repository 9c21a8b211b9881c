package bpred

import "fmt"

// This file holds the serializable state snapshots of every front-end
// predictor. They serve two customers in the sampling subsystem
// (internal/sample): functional warmup clones a live predictor into each
// detailed measurement window, and on-disk checkpoints persist the warmed
// state so windows can resume or shard across processes. Clone is defined
// as SetState(State()) so both paths are identical by construction.
//
// Snapshots capture behavioral state only (counters that influence
// predictions); the diagnostic hit/lookup tallies restart at zero.

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

// SetState restores a snapshot; the table geometries must match.
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
	return nil
}

// Clone returns an independent predictor with the same configuration and
// behavioral state.
func (p *Predictor) Clone() *Predictor {
	c := NewPredictor(p.cfg)
	if err := c.SetState(p.State()); err != nil {
		panic(err) // same config: geometries match by construction
	}
	return c
}

// CopyFrom overwrites p with src's behavioral state without allocating —
// the buffer-reuse path of the sampling engine's pooled window boots. The
// result is indistinguishable from a fresh Clone of src: diagnostic
// tallies restart at zero, exactly as State/SetState leave them.
func (p *Predictor) CopyFrom(src *Predictor) error {
	if len(src.bimodal) != len(p.bimodal) || len(src.gshare) != len(p.gshare) ||
		len(src.chooser) != len(p.chooser) {
		return fmt.Errorf("bpred: predictor copy geometry %d/%d/%d, want %d/%d/%d",
			len(src.bimodal), len(src.gshare), len(src.chooser),
			len(p.bimodal), len(p.gshare), len(p.chooser))
	}
	copy(p.bimodal, src.bimodal)
	copy(p.gshare, src.gshare)
	copy(p.chooser, src.chooser)
	p.hist = src.hist
	p.Lookups = 0
	return nil
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

// SetState restores a snapshot; the entry count must match.
func (b *BTB) SetState(st BTBState) error {
	if len(st.Tags) != len(b.tags) || len(st.Targets) != len(b.targets) {
		return fmt.Errorf("bpred: BTB state has %d entries, want %d", len(st.Tags), len(b.tags))
	}
	copy(b.tags, st.Tags)
	copy(b.targets, st.Targets)
	return nil
}

// Clone returns an independent BTB with the same state.
func (b *BTB) Clone() *BTB {
	c := NewBTB(len(b.tags))
	if err := c.SetState(b.State()); err != nil {
		panic(err)
	}
	return c
}

// CopyFrom overwrites b with src's behavioral state without allocating;
// diagnostic tallies restart at zero, as in a fresh Clone.
func (b *BTB) CopyFrom(src *BTB) error {
	if len(src.tags) != len(b.tags) {
		return fmt.Errorf("bpred: BTB copy has %d entries, want %d", len(src.tags), len(b.tags))
	}
	copy(b.tags, src.tags)
	copy(b.targets, src.targets)
	b.Lookups, b.Hits = 0, 0
	return nil
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

// SetState restores a snapshot; the capacity must match.
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

// Clone returns an independent stack with the same state.
func (r *RAS) Clone() *RAS {
	c := NewRAS(len(r.stack))
	if err := c.SetState(r.State()); err != nil {
		panic(err)
	}
	return c
}

// CopyFrom overwrites r with src's behavioral state without allocating.
// Like SetState, it drops any pending shadow snapshot.
func (r *RAS) CopyFrom(src *RAS) error {
	if len(src.stack) != len(r.stack) {
		return fmt.Errorf("bpred: RAS copy has %d entries, want %d", len(src.stack), len(r.stack))
	}
	copy(r.stack, src.stack)
	r.tos = src.tos
	r.depth = src.depth
	r.dropSnap()
	return nil
}

// CHTState is the serializable state of the collision history table.
type CHTState struct {
	Tags []uint64
}

// State deep-copies the table.
func (c *CHT) State() CHTState {
	return CHTState{Tags: append([]uint64(nil), c.tags...)}
}

// SetState restores a snapshot; the entry count must match.
func (c *CHT) SetState(st CHTState) error {
	if len(st.Tags) != len(c.tags) {
		return fmt.Errorf("bpred: CHT state has %d entries, want %d", len(st.Tags), len(c.tags))
	}
	copy(c.tags, st.Tags)
	return nil
}

// Clone returns an independent table with the same state.
func (c *CHT) Clone() *CHT {
	n := NewCHT(len(c.tags))
	if err := n.SetState(c.State()); err != nil {
		panic(err)
	}
	return n
}

// CopyFrom overwrites c with src's behavioral state without allocating;
// diagnostic tallies restart at zero, as in a fresh Clone.
func (c *CHT) CopyFrom(src *CHT) error {
	if len(src.tags) != len(c.tags) {
		return fmt.Errorf("bpred: CHT copy has %d entries, want %d", len(src.tags), len(c.tags))
	}
	copy(c.tags, src.tags)
	c.Lookups, c.Hits, c.Trained = 0, 0, 0
	return nil
}
