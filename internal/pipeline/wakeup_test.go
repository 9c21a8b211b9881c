package pipeline

import (
	"fmt"
	"math/bits"
	"testing"

	"rix/internal/emu"
	"rix/internal/regfile"
)

// checkWakeup asserts the wakeup invariants against a full scan of the
// stations: busy mirrors occupancy, the ready mask is exactly
// {i : rs[i] != nil && srcReady(rs[i])}, every wait-mask bit names an
// occupied slot that reads that still-unready register, and each slot's
// pending count is its number of distinct unready sources.
func checkWakeup(t *testing.T, pl *Pipeline) {
	t.Helper()
	w := &pl.wake
	held := 0 // wait-mask bits the occupied slots account for
	for i, u := range pl.rs {
		k, bit := slotBit(i)
		if busy := w.busy[k]&bit != 0; busy != (u != nil) {
			t.Fatalf("cycle %d: slot %d busy=%v, occupied=%v", pl.now, i, busy, u != nil)
		}
		want := u != nil && pl.srcReady(u)
		if got := w.ready[k]&bit != 0; got != want {
			t.Fatalf("cycle %d: slot %d ready=%v, scan says %v", pl.now, i, got, want)
		}
		n := 0
		if u != nil {
			srcs, ns := sources(u)
			for _, p := range srcs[:ns] {
				waiting := w.wait[int(p)*w.words+k]&bit != 0
				if waiting == pl.ready(p) {
					t.Fatalf("cycle %d: slot %d waits on p%d = %v, but p%d ready = %v",
						pl.now, i, p, waiting, p, pl.ready(p))
				}
				if waiting {
					n++
				}
			}
		}
		if int(w.pending[i]) != n {
			t.Fatalf("cycle %d: slot %d pending %d, unready sources %d", pl.now, i, w.pending[i], n)
		}
		held += n
	}
	// Every expected bit is present; equal totals leave no room for a
	// stray bit naming a free slot or a source the slot does not read.
	total := 0
	for _, b := range w.wait {
		total += bits.OnesCount64(b)
	}
	if total != held {
		t.Fatalf("cycle %d: wait masks hold %d bits, occupied slots account for %d", pl.now, total, held)
	}
}

// srcReady is the full-scan readiness predicate the wakeup masks
// replace: whether all of u's register sources have values.
func (pl *Pipeline) srcReady(u *uop) bool {
	if u.in.Op.ReadsRa() && !pl.ready(u.src1.P) {
		return false
	}
	if u.in.Op.ReadsRb() && !pl.ready(u.src2.P) {
		return false
	}
	if isCMOV(u.in.Op) && !pl.ready(u.oldDest.P) {
		return false
	}
	return true
}

// sources lists u's distinct register sources.
func sources(u *uop) (ps [3]regfile.PReg, n int) {
	add := func(p regfile.PReg) {
		for _, q := range ps[:n] {
			if q == p {
				return
			}
		}
		ps[n] = p
		n++
	}
	if u.in.Op.ReadsRa() {
		add(u.src1.P)
	}
	if u.in.Op.ReadsRb() {
		add(u.src2.P)
	}
	if isCMOV(u.in.Op) {
		add(u.oldDest.P)
	}
	return ps, n
}

// TestWakeupMatchesScan steps pipelines cycle by cycle and checks the
// wakeup state against a full station scan after every cycle, across
// every integration policy, the reduced RS/IW cores, the two-station
// stress machines, and squash-heavy programs (mispredicts, wrong-path
// calls, DIVA flushes, load violations). A finished pipeline must hand
// its successor (BootState.Prev) all-zero masks.
func TestWakeupMatchesScan(t *testing.T) {
	cores := map[string]func(*Config){
		"base":  func(c *Config) {},
		"rs":    func(c *Config) { c.NumRS = 20 },
		"iw":    func(c *Config) { c.IssueWidth = 3; c.CombinedLS = true },
		"iw+rs": func(c *Config) { c.IssueWidth = 3; c.CombinedLS = true; c.NumRS = 20 },
		"rs2":   func(c *Config) { c.NumRS = 2 },
		"tiny": func(c *Config) {
			c.ROBSize, c.NumRS, c.LSQSize, c.PhysRegs, c.FetchQueue = 8, 2, 2, 40, 1
		},
		"rs100": func(c *Config) { c.NumRS = 100 }, // two mask words
	}
	progs := map[string]string{
		"branchy":   branchySrc,
		"jumptable": jumpTableSrc,
		"misint":    misintSrc,
		"collision": collisionSrc,
		"mixed":     mixedWidthSrc,
	}
	var seen Stats
	for pname, src := range progs {
		p, trace := build(t, src)
		if len(trace) > 4000 {
			trace = trace[:4000] // keeps the race-enabled run affordable
		}
		for cname, mod := range cores {
			for polName, pol := range paperPolicies() {
				cfg := DefaultConfig()
				cfg.Policy = pol
				mod(&cfg)
				t.Run(fmt.Sprintf("%s/%s/%s", pname, cname, polName), func(t *testing.T) {
					pl := New(cfg, p, emu.FromSlice(trace))
					for !pl.halted {
						if pl.now >= 1<<22 {
							t.Fatal("cycle budget exceeded")
						}
						pl.step()
						checkWakeup(t, pl)
					}
					if err := pl.auditRegisters(); err != nil {
						t.Fatal(err)
					}
					seen.Add(&pl.Stats)
					next := NewFrom(cfg, p, emu.FromSlice(nil), &BootState{Prev: pl})
					if &next.wake.busy[0] != &pl.wake.busy[0] {
						t.Fatal("successor did not adopt the wakeup masks")
					}
					checkZero(t, &next.wake)
				})
			}
		}
	}
	if seen.Squashes == 0 || seen.DIVAFlushes == 0 || seen.LoadViolations == 0 {
		t.Errorf("squash paths not exercised: %d squashes, %d DIVA flushes, %d load violations",
			seen.Squashes, seen.DIVAFlushes, seen.LoadViolations)
	}
}

func checkZero(t *testing.T, w *wakeup) {
	t.Helper()
	for name, m := range map[string][]uint64{"busy": w.busy, "ready": w.ready, "wait": w.wait} {
		for i, b := range m {
			if b != 0 {
				t.Fatalf("recycled %s mask word %d = %#x", name, i, b)
			}
		}
	}
	for i, n := range w.pending {
		if n != 0 {
			t.Fatalf("recycled pending[%d] = %d", i, n)
		}
	}
}
