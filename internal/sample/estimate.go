package sample

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rix/internal/pipeline"
)

// WindowStat is one measurement window's contribution to an estimate.
type WindowStat struct {
	Index        int
	Start        uint64 // dynamic instruction where the detailed run (warmup) begins
	MeasuredFrom uint64 // Start + Warmup: first measured instruction
	Stats        pipeline.Stats
}

// Estimate aggregates per-window measurements into whole-run estimates
// with approximate error bounds.
//
// Ratio metrics (IPC, integration rate, any Stats-derived rate) come
// from Agg, the component-wise sum of measured windows, so they are the
// sample-weighted estimates of the full-run values. The CI95 fields are
// approximate 95% confidence half-widths derived from the between-window
// variance (normal approximation; with fewer than two windows they are
// zero and no bound is claimed).
type Estimate struct {
	Sampling Sampling
	Windows  []WindowStat

	TotalInstrs    uint64 // full dynamic length of the run
	SampledInstrs  uint64 // measured instructions (sum of window Retired)
	DetailedInstrs uint64 // detailed-mode instructions including warmup prefixes

	Agg pipeline.Stats // component-wise sum of measured windows

	IPCCI95  float64 // relative half-width on IPC
	RateCI95 float64 // absolute half-width on integration rate
}

// aggregate folds windows (any dispatch order) into an Estimate. pad is
// the per-window drain pad (counted as detailed work). Windows that
// measured nothing (the stream ended inside their warmup) are dropped.
func aggregate(sp Sampling, pad uint64, windows []WindowStat, total uint64) *Estimate {
	sort.Slice(windows, func(i, j int) bool { return windows[i].Index < windows[j].Index })
	est := &Estimate{Sampling: sp, TotalInstrs: total}
	var ipcs, rates []float64
	for _, w := range windows {
		if w.Stats.Retired == 0 {
			continue
		}
		est.Windows = append(est.Windows, w)
		est.Agg.Add(&w.Stats)
		est.SampledInstrs += w.Stats.Retired
		est.DetailedInstrs += sp.Warmup + w.Stats.Retired + pad
		ipcs = append(ipcs, w.Stats.IPC())
		rates = append(rates, w.Stats.IntegrationRate())
	}
	if mean, half := ci95(ipcs); mean > 0 {
		est.IPCCI95 = half / mean
	}
	_, est.RateCI95 = ci95(rates)
	return est
}

// ci95 returns the arithmetic mean and the approximate 95% confidence
// half-width (1.96 standard errors, normal approximation) of vals. With
// fewer than two values the half-width is zero: no bound is claimable.
func ci95(vals []float64) (mean, half float64) {
	n := float64(len(vals))
	if n == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += v
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / (n - 1))
	return mean, 1.96 * sd / math.Sqrt(n)
}

// IPC is the sample-weighted IPC estimate.
func (e *Estimate) IPC() float64 { return e.Agg.IPC() }

// IntegrationRate is the sample-weighted integration-rate estimate.
func (e *Estimate) IntegrationRate() float64 { return e.Agg.IntegrationRate() }

// EstimatedCycles extrapolates the whole-run cycle count from the IPC
// estimate.
func (e *Estimate) EstimatedCycles() uint64 {
	ipc := e.IPC()
	if ipc == 0 {
		return 0
	}
	return uint64(float64(e.TotalInstrs)/ipc + 0.5)
}

// DetailFraction is the fraction of the run simulated in detail (warmup
// prefixes included) — the reciprocal of the sampling work speedup.
func (e *Estimate) DetailFraction() float64 {
	if e.TotalInstrs == 0 {
		return 0
	}
	return float64(e.DetailedInstrs) / float64(e.TotalInstrs)
}

// Summary renders the canonical one-look sampled summary block from
// already-aggregated values (no trailing newline). Estimate.String and
// the run API's result summary share it, so the block cannot drift
// between the engine and the CLIs.
func Summary(sampledInstrs, totalInstrs uint64, detailFrac float64, windows int, sp Sampling,
	ipc, ipcCI95, rate, rateCI95 float64, estCycles uint64) string {

	var b strings.Builder
	fmt.Fprintf(&b, "sampled %d/%d instructions (%.1f%% detail incl. warmup) over %d windows (%s)\n",
		sampledInstrs, totalInstrs, 100*detailFrac, windows, sp)
	fmt.Fprintf(&b, "IPC              %.3f ±%.1f%% (95%% CI)\n", ipc, 100*ipcCI95)
	fmt.Fprintf(&b, "integration rate %.2f%% ±%.2fpp (95%% CI)\n", 100*rate, 100*rateCI95)
	fmt.Fprintf(&b, "est. cycles      %d", estCycles)
	return b.String()
}

// String renders a one-look summary block (trailing newline included,
// the historical contract).
func (e *Estimate) String() string {
	return Summary(e.SampledInstrs, e.TotalInstrs, e.DetailFraction(), len(e.Windows), e.Sampling,
		e.IPC(), e.IPCCI95, e.IntegrationRate(), e.RateCI95, e.EstimatedCycles()) + "\n"
}
