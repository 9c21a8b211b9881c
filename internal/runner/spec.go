// Package runner is the unified experiment engine: experiments are
// declared as Specs (a labeled matrix of sim.Options crossed with
// workloads plus a collector that turns keyed results into tables),
// validated and registered in a package-level registry, and executed by
// an Engine that lazily builds workloads in parallel, schedules the
// cross-product through a bounded worker pool with back-pressure, and
// streams per-cell results to collectors.
//
// cmd/rixbench enumerates the registry through Engine.RunSuite, and
// WriteJSON renders its -json output, the format of the committed figure
// goldens; internal/experiments populates the registry with the paper's
// figure and diagnostic suites and checks those goldens. Adding a scenario is
// declaring a Spec and registering it — no fan-out or result-indexing
// code.
package runner

import (
	"fmt"
	"sync"

	"rix/internal/sample"
	"rix/internal/sim"
	"rix/internal/stats"
)

// Config is one labeled point on a spec's configuration axis. An empty
// Label defaults to Opt.Label() at registration/validation time.
type Config struct {
	Label string
	Opt   sim.Options
}

// Collector assembles tables from a completed, keyed result set.
type Collector func(*ResultSet) ([]*stats.Table, error)

// Spec declares one experiment: the workloads it runs on, the labeled
// configuration matrix, and the collector that renders its tables. The
// simulation plan is the cross-product Benchmarks x Configs.
type Spec struct {
	ID          string
	Description string

	// Benchmarks restricts the spec to a workload subset; rows follow
	// this order, names the engine doesn't hold are dropped, and nil
	// means every workload the engine holds (in engine order).
	Benchmarks []string

	// Configs is the labeled sim.Options axis. Labels key result cells
	// and must be unique within the spec.
	Configs []Config

	// Collect renders the result set into tables. Required for
	// registered specs; ad-hoc specs run through Engine.Gather may omit
	// it.
	Collect Collector
}

// normalize defaults empty config labels and validates the spec:
// non-empty id, at least one config, unique labels, and every Options
// value must compile to a pipeline configuration (catching unknown
// integration/suppression/core axis values here rather than mid-run).
func (s *Spec) normalize() error {
	if s.ID == "" {
		return fmt.Errorf("runner: spec with empty id")
	}
	if len(s.Configs) == 0 {
		return fmt.Errorf("runner: spec %q has no configs", s.ID)
	}
	seen := make(map[string]bool, len(s.Configs))
	for i := range s.Configs {
		c := &s.Configs[i]
		if c.Label == "" {
			c.Label = c.Opt.Label()
		}
		if seen[c.Label] {
			return fmt.Errorf("runner: spec %q: duplicate config label %q", s.ID, c.Label)
		}
		seen[c.Label] = true
		if _, err := c.Opt.Config(); err != nil {
			return fmt.Errorf("runner: spec %q, config %q: %w", s.ID, c.Label, err)
		}
	}
	return nil
}

// benchesFor resolves the spec's benchmark list against the engine's
// workload set: an intersection preserving the spec's order, so specs
// that name a full-suite subset still run under a restricted engine.
func (s *Spec) benchesFor(have []string) []string {
	if s.Benchmarks == nil {
		return have
	}
	avail := make(map[string]bool, len(have))
	for _, h := range have {
		avail[h] = true
	}
	var out []string
	for _, b := range s.Benchmarks {
		if avail[b] {
			out = append(out, b)
		}
	}
	return out
}

// registry holds registered specs in registration order.
var registry = struct {
	sync.RWMutex
	specs map[string]*Spec
	order []string
}{specs: make(map[string]*Spec)}

// Register validates a spec and adds it to the registry. It rejects
// duplicate ids, duplicate config labels, unknown option axis values,
// and specs without a collector.
func Register(s Spec) error {
	// Detach from the caller's backing arrays so later mutation of the
	// source slices cannot bypass validation or label defaulting.
	s.Configs = append([]Config(nil), s.Configs...)
	s.Benchmarks = append([]string(nil), s.Benchmarks...)
	if err := s.normalize(); err != nil {
		return err
	}
	if s.Collect == nil {
		return fmt.Errorf("runner: spec %q has no collector", s.ID)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.specs[s.ID]; dup {
		return fmt.Errorf("runner: duplicate spec %q", s.ID)
	}
	registry.specs[s.ID] = &s
	registry.order = append(registry.order, s.ID)
	return nil
}

// MustRegister is Register for static spec tables; it panics on error.
func MustRegister(s Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Lookup finds a registered spec by id.
func Lookup(id string) (*Spec, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.specs[id]
	return s, ok
}

// IDs returns registered spec ids in registration order.
func IDs() []string {
	registry.RLock()
	defer registry.RUnlock()
	return append([]string(nil), registry.order...)
}

// Specs returns registered specs in registration order.
func Specs() []*Spec {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]*Spec, 0, len(registry.order))
	for _, id := range registry.order {
		out = append(out, registry.specs[id])
	}
	return out
}

// Sampled derives the interval-sampled variant of a spec: the same
// workloads, configuration matrix (labels preserved, so the original
// collector renders it unchanged) and collector, with every cell
// switched to checkpointed interval sampling under sp. The variant's id
// gains a "-sampled" suffix; it is returned, not registered — run it
// ad-hoc through Engine.Gather, or register it explicitly.
func Sampled(s *Spec, sp sample.Sampling) Spec {
	c := *s
	c.ID = s.ID + "-sampled"
	c.Description = s.Description + " (sampled " + sp.String() + ")"
	c.Benchmarks = append([]string(nil), s.Benchmarks...)
	c.Configs = make([]Config, len(s.Configs))
	for i, cc := range s.Configs {
		spc := sp
		cc.Opt.Sampling = &spc
		c.Configs[i] = cc
	}
	return c
}
