package sample_test

import (
	"reflect"
	"strings"
	"testing"

	"rix/internal/bpred"
	"rix/internal/core"
	"rix/internal/memsys"
)

// restoreCase is one warm structure type under the restore contract
// every window boot relies on: SetState leaves a used structure equal to
// a fresh one given the same state — behavioural state, every exported
// tally, and (for the hierarchy) empty timing state.
type restoreCase[T, S any] struct {
	new   func() T
	drive func(x T, seed int) []uint64 // traffic; returns the structure's answers
	state func(x T) S
	set   func(x T, st S) error
}

func (c restoreCase[T, S]) run(t *testing.T) {
	used, src := c.new(), c.new()
	c.drive(used, 1)
	c.drive(src, 2)
	for group, sum := range tallySums(tallies(used)) {
		if sum == 0 {
			t.Fatalf("traffic left every %q tally at zero", group)
		}
	}
	st := c.state(src)
	if err := c.set(used, st); err != nil {
		t.Fatal(err)
	}
	fresh := c.new()
	if err := c.set(fresh, st); err != nil {
		t.Fatal(err)
	}
	c.compare(t, "after SetState", used, fresh)
	if a, b := c.drive(used, 3), c.drive(fresh, 3); !reflect.DeepEqual(a, b) {
		t.Error("restored structure answers the same traffic differently from a fresh one")
	}
	c.compare(t, "after more traffic", used, fresh)
}

func (c restoreCase[T, S]) compare(t *testing.T, when string, used, fresh T) {
	t.Helper()
	if !reflect.DeepEqual(c.state(used), c.state(fresh)) {
		t.Errorf("%s: behavioural state differs from a fresh structure's", when)
	}
	if u, f := tallies(used), tallies(fresh); !reflect.DeepEqual(u, f) {
		t.Errorf("%s: tallies %v, fresh structure %v", when, u, f)
	}
}

// tallies collects every exported uint64 field of x, following exported
// pointers to structs (the hierarchy's caches, TLBs, MSHRs, write buffer
// and buses), keyed by field path.
func tallies(x any) map[string]uint64 {
	out := map[string]uint64{}
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		v = reflect.Indirect(v)
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			switch {
			case !f.IsExported():
			case fv.Kind() == reflect.Uint64:
				out[prefix+f.Name] = fv.Uint()
			case fv.Kind() == reflect.Pointer && fv.Type().Elem().Kind() == reflect.Struct && !fv.IsNil():
				walk(fv, prefix+f.Name+".")
			}
		}
	}
	walk(reflect.ValueOf(x), "")
	return out
}

// tallySums sums tallies per component ("" for the structure itself).
func tallySums(ts map[string]uint64) map[string]uint64 {
	sums := map[string]uint64{}
	for k, v := range ts {
		group := ""
		if i := strings.LastIndex(k, "."); i >= 0 {
			group = k[:i]
		}
		sums[group] += v
	}
	return sums
}

func TestSetStateRestoresFresh(t *testing.T) {
	cacheCfg := memsys.CacheConfig{Name: "t", SizeBytes: 4 << 10, LineBytes: 32, Assoc: 2}
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"Predictor", restoreCase[*bpred.Predictor, bpred.PredictorState]{
			new: func() *bpred.Predictor { return bpred.NewPredictor(bpred.Config{}) },
			drive: func(p *bpred.Predictor, seed int) (out []uint64) {
				for i := 0; i < 4000; i++ {
					pc := uint64(0x1000 + (i*seed%97)*4)
					taken := (i+seed)%3 != 0
					got, snap := p.Predict(pc)
					p.SpecUpdate(taken)
					p.Train(pc, taken, snap)
					out = append(out, b2u(got))
				}
				return out
			},
			state: (*bpred.Predictor).State,
			set:   (*bpred.Predictor).SetState,
		}.run},
		{"BTB", restoreCase[*bpred.BTB, bpred.BTBState]{
			new: func() *bpred.BTB { return bpred.NewBTB(64) },
			drive: func(b *bpred.BTB, seed int) (out []uint64) {
				for i := 0; i < 300; i++ {
					pc := uint64(0x1000 + (i*seed%151)*4)
					tgt, ok := b.Predict(pc)
					b.Train(pc, pc+uint64(seed)*0x100)
					out = append(out, tgt, b2u(ok))
				}
				return out
			},
			state: (*bpred.BTB).State,
			set:   (*bpred.BTB).SetState,
		}.run},
		{"RAS", restoreCase[*bpred.RAS, bpred.RASState]{
			new: func() *bpred.RAS { return bpred.NewRAS(8) },
			drive: func(r *bpred.RAS, seed int) (out []uint64) {
				for i := 0; i < 200; i++ {
					if (i*seed)%5 < 3 {
						r.Push(uint64(0x1000 + i*4))
					} else {
						a, ok := r.Pop()
						out = append(out, a, b2u(ok))
					}
					r.Snapshot() // leaves a pending shadow behind
					out = append(out, uint64(r.Depth()))
				}
				return out
			},
			state: (*bpred.RAS).State,
			set:   (*bpred.RAS).SetState,
		}.run},
		{"CHT", restoreCase[*bpred.CHT, bpred.CHTState]{
			new: func() *bpred.CHT { return bpred.NewCHT(32) },
			drive: func(c *bpred.CHT, seed int) (out []uint64) {
				for i := 0; i < 200; i++ {
					pc := uint64(0x40 + (i*seed%53)*4)
					out = append(out, b2u(c.Predict(pc)))
					if i%3 == 0 {
						c.Train(pc)
					}
				}
				return out
			},
			state: (*bpred.CHT).State,
			set:   (*bpred.CHT).SetState,
		}.run},
		{"Cache", restoreCase[*memsys.Cache, memsys.CacheState]{
			new: func() *memsys.Cache { return memsys.NewCache(cacheCfg) },
			drive: func(c *memsys.Cache, seed int) (out []uint64) {
				for i := 0; i < 600; i++ {
					hit, victim, dirty := c.Access(uint64((i*seed%211)*96), i%4 == 0)
					out = append(out, b2u(hit), victim, b2u(dirty))
				}
				return out
			},
			state: (*memsys.Cache).State,
			set:   (*memsys.Cache).SetState,
		}.run},
		{"TLB", restoreCase[*memsys.TLB, memsys.CacheState]{
			new: func() *memsys.TLB { return memsys.NewTLB(16, 4, 4096, 30) },
			drive: func(tl *memsys.TLB, seed int) (out []uint64) {
				for i := 0; i < 300; i++ {
					out = append(out, tl.Penalty(uint64(i*seed%67)<<12))
				}
				return out
			},
			state: (*memsys.TLB).State,
			set:   (*memsys.TLB).SetState,
		}.run},
		{"Hierarchy", restoreCase[*memsys.Hierarchy, memsys.WarmState]{
			new: func() *memsys.Hierarchy { return memsys.New(memsys.DefaultConfig()) },
			// Many accesses per cycle to distinct lines keep fills in
			// flight, so the MSHRs, write buffer and buses are all busy
			// when the traffic stops.
			drive: func(h *memsys.Hierarchy, seed int) (out []uint64) {
				base := uint64(seed) << 24
				for i := 0; i < 256; i++ {
					now := uint64(i / 32)
					out = append(out,
						h.Load(base+0x100000+uint64(i%97)*4096, now),
						h.Store(base+0x200000+uint64(i%61)*64, now),
						h.IFetch(base+0x1000+uint64(i%41)*32, now))
				}
				return out
			},
			state: (*memsys.Hierarchy).WarmState,
			set:   (*memsys.Hierarchy).SetWarmState,
		}.run},
		{"LISP", restoreCase[*core.LISP, core.LISPState]{
			new: func() *core.LISP { return core.NewLISP(core.LISPConfig{Entries: 64, Assoc: 2}) },
			drive: func(l *core.LISP, seed int) (out []uint64) {
				for i := 0; i < 300; i++ {
					pc := uint64(0x100 + (i*seed%89)*4)
					out = append(out, b2u(l.Suppress(pc)))
					if i%4 == 0 {
						l.Train(pc)
					}
				}
				return out
			},
			state: (*core.LISP).State,
			set:   (*core.LISP).SetState,
		}.run},
	} {
		t.Run(tc.name, tc.run)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
