// Package sim is the pure configuration facade: named presets for every
// machine the paper evaluates, rendered into pipeline.Config by
// Options.Config. Execution lives elsewhere — describe a run as a
// run.Request and execute it with run.Do (cancellable, observable,
// resumable), or drive pipeline.New directly for low-level control.
package sim

import (
	"fmt"
	"strings"

	"rix/internal/core"
	"rix/internal/pipeline"
	"rix/internal/sample"
)

// Integration presets (Figure 4 configurations).
const (
	IntNone    = "none"
	IntSquash  = "squash"
	IntGeneral = "+general"
	IntOpcode  = "+opcode"
	IntReverse = "+reverse"
)

// IntegrationPresets lists the Figure 4 configurations in order.
func IntegrationPresets() []string {
	return []string{IntSquash, IntGeneral, IntOpcode, IntReverse}
}

// Suppression modes.
const (
	SuppressLISP   = "lisp"
	SuppressOracle = "oracle"
	SuppressNone   = "off"
)

// Core variants (Figure 7 configurations).
const (
	CoreBase = "base"  // 4-way issue, 40 RS
	CoreRS   = "rs"    // 4-way issue, 20 RS
	CoreIW   = "iw"    // 3-way issue, single load/store port
	CoreIWRS = "iw+rs" // both reductions
)

// Options selects a machine configuration by name. The JSON form is
// part of the serializable run API (run.Request): zero fields are
// omitted, so a round-tripped Options labels and configures identically
// to the original.
type Options struct {
	Integration string `json:"integration,omitempty"` // IntNone..IntReverse (default IntNone)
	Suppression string `json:"suppression,omitempty"` // SuppressLISP (default), SuppressOracle, SuppressNone
	Core        string `json:"core,omitempty"`        // CoreBase (default) .. CoreIWRS

	ITEntries int `json:"it_entries,omitempty"` // default 1024
	ITAssoc   int `json:"it_assoc,omitempty"`   // default 4; <0 = fully associative
	GenBits   int `json:"gen_bits,omitempty"`   // default 4; use NoGenCounters to ablate to 0
	RefBits   int `json:"ref_bits,omitempty"`   // default 4
	PhysRegs  int `json:"phys_regs,omitempty"`  // default 1024

	// Ablation switches.
	NoGenCounters    bool `json:"no_gen_counters,omitempty"`
	ReverseAllStores bool `json:"reverse_all_stores,omitempty"`
	ReverseALU       bool `json:"reverse_alu,omitempty"`
	NoCallDepth      bool `json:"no_call_depth,omitempty"`

	// Sampling switches the run to checkpointed interval sampling
	// (internal/sample). nil means full-detail simulation; the machine
	// configuration (Config) is unaffected by this field.
	Sampling *sample.Sampling `json:"sampling,omitempty"`
}

// Label renders a short canonical name for the option set, suitable as a
// stable result key: the integration preset, then the suppression mode
// (when integration is on), then every explicitly set axis. Unset (zero)
// fields are normalized — Options values that differ only in spelled-out
// vs defaulted integration/suppression label identically — but an axis
// explicitly set to its machine default (e.g. ITEntries: 1024) still
// appears, so such a value labels differently from one that leaves the
// field unset.
func (o Options) Label() string {
	integ := o.Integration
	if integ == "" {
		integ = IntNone
	}
	parts := []string{integ}
	if integ != IntNone {
		sup := o.Suppression
		if sup == "" {
			sup = SuppressLISP
		}
		parts = append(parts, sup)
	}
	if o.Core != "" && o.Core != CoreBase {
		parts = append(parts, o.Core)
	}
	if o.ITEntries > 0 {
		parts = append(parts, fmt.Sprintf("it%d", o.ITEntries))
	}
	switch {
	case o.ITAssoc > 0:
		parts = append(parts, fmt.Sprintf("a%d", o.ITAssoc))
	case o.ITAssoc < 0:
		parts = append(parts, "afull")
	}
	if o.NoGenCounters {
		parts = append(parts, "gen0")
	} else if o.GenBits > 0 {
		parts = append(parts, fmt.Sprintf("gen%d", o.GenBits))
	}
	if o.RefBits > 0 {
		parts = append(parts, fmt.Sprintf("ref%d", o.RefBits))
	}
	if o.PhysRegs > 0 {
		parts = append(parts, fmt.Sprintf("pr%d", o.PhysRegs))
	}
	if o.ReverseAllStores {
		parts = append(parts, "rev-all-st")
	}
	if o.ReverseALU {
		parts = append(parts, "rev-alu")
	}
	if o.NoCallDepth {
		parts = append(parts, "nodepth")
	}
	if o.Sampling != nil {
		parts = append(parts, fmt.Sprintf("smp%d-%d-%d",
			o.Sampling.Interval, o.Sampling.Window, o.Sampling.Warmup))
	}
	return strings.Join(parts, "/")
}

// Policy translates the named integration preset into a core.Policy.
func (o Options) policy() (core.Policy, error) {
	var p core.Policy
	switch o.Integration {
	case "", IntNone:
		return core.Policy{}, nil
	case IntSquash:
		p = core.Policy{Enable: true}
	case IntGeneral:
		p = core.Policy{Enable: true, GeneralReuse: true}
	case IntOpcode:
		p = core.Policy{Enable: true, GeneralReuse: true, OpcodeIndex: true}
	case IntReverse:
		p = core.Policy{Enable: true, GeneralReuse: true, OpcodeIndex: true, Reverse: true}
	default:
		return p, fmt.Errorf("sim: unknown integration preset %q", o.Integration)
	}
	switch o.Suppression {
	case "", SuppressLISP:
		p.UseLISP = true
	case SuppressOracle:
		p.Oracle = true
	case SuppressNone:
	default:
		return p, fmt.Errorf("sim: unknown suppression mode %q", o.Suppression)
	}
	p.ReverseAllStores = o.ReverseAllStores
	p.ReverseALU = o.ReverseALU
	p.NoCallDepth = o.NoCallDepth
	return p, nil
}

// Config assembles the full pipeline configuration. Sampling does not
// shape the machine, but an invalid sampling layout is rejected here so
// spec registration catches it eagerly.
func (o Options) Config() (pipeline.Config, error) {
	cfg := pipeline.DefaultConfig()
	if o.Sampling != nil {
		if err := o.Sampling.Validate(); err != nil {
			return cfg, err
		}
	}
	pol, err := o.policy()
	if err != nil {
		return cfg, err
	}
	cfg.Policy = pol

	switch o.Core {
	case "", CoreBase:
	case CoreRS:
		cfg.NumRS = 20
	case CoreIW:
		cfg.IssueWidth = 3
		cfg.CombinedLS = true
	case CoreIWRS:
		cfg.IssueWidth = 3
		cfg.CombinedLS = true
		cfg.NumRS = 20
	default:
		return cfg, fmt.Errorf("sim: unknown core variant %q", o.Core)
	}

	if o.ITEntries > 0 {
		cfg.IT.Entries = o.ITEntries
	}
	switch {
	case o.ITAssoc > 0:
		cfg.IT.Assoc = o.ITAssoc
	case o.ITAssoc < 0:
		cfg.IT.Assoc = cfg.IT.Entries // fully associative
	}
	if o.GenBits > 0 {
		cfg.GenBits = uint(o.GenBits)
	}
	if o.NoGenCounters {
		cfg.GenBits = 0
	}
	if o.RefBits > 0 {
		cfg.RefBits = uint(o.RefBits)
	}
	if o.PhysRegs > 0 {
		cfg.PhysRegs = o.PhysRegs
	}
	return cfg, nil
}
