package experiments

import (
	"rix/internal/pipeline"
	"rix/internal/runner"
	"rix/internal/stats"
)

// column is one column of a figure table: its header, its value for
// one benchmark, how a value renders (stats.Table.Row prints a float64
// as %.2f), and the summary row's aggregate of the column's values in
// bench order (nil leaves the summary cell blank).
type column struct {
	header  string
	value   func(rs *runner.ResultSet, bench string) float64
	render  func(float64) interface{}
	summary func([]float64) float64
}

// table renders one row per benchmark of rs and, when sum is not "",
// a summary row named sum. It is the figures' only per-bench row loop.
func table(rs *runner.ResultSet, title, sum string, cols ...column) *stats.Table {
	header := []string{"bench"}
	for _, c := range cols {
		header = append(header, c.header)
	}
	t := stats.NewTable(title, header...)
	vals := make([][]float64, len(cols))
	for _, b := range rs.Benches() {
		row := []interface{}{b}
		for i, c := range cols {
			v := c.value(rs, b)
			vals[i] = append(vals[i], v)
			row = append(row, c.render(v))
		}
		t.Row(row...)
	}
	if sum != "" {
		row := []interface{}{sum}
		for i, c := range cols {
			if c.summary == nil {
				row = append(row, "")
				continue
			}
			row = append(row, c.render(c.summary(vals[i])))
		}
		t.Row(row...)
	}
	return t
}

// speedup is label's IPC speedup over base, summarized as the
// geometric mean of 1+speedup, less 1.
func speedup(header, label, base string) column {
	return column{header: header, render: pct2, summary: gmeanSpeedup,
		value: func(rs *runner.ResultSet, b string) float64 {
			return rs.Get(b, label).IPC()/rs.Get(b, base).IPC() - 1
		}}
}

func gmeanSpeedup(vs []float64) float64 {
	ratios := make([]float64, len(vs))
	for i, v := range vs {
		ratios[i] = 1 + v
	}
	return stats.GeoMean(ratios) - 1
}

// metric is one pipeline.Stats metric of label, summarized by its
// arithmetic mean.
func metric(header, label string, f func(*pipeline.Stats) float64, render func(float64) interface{}) column {
	return column{header: header, render: render, summary: stats.AMean,
		value: func(rs *runner.ResultSet, b string) float64 { return f(rs.Get(b, label)) }}
}

// unsummed is c with a blank summary cell.
func (c column) unsummed() column {
	c.summary = nil
	return c
}

// shares is one column per header: bucket i of buckets as a share of
// total on label, where a zero total counts as 1.
func shares(label string, buckets func(*pipeline.Stats) []uint64, total func(*pipeline.Stats) uint64, headers ...string) []column {
	cols := make([]column, len(headers))
	for i, h := range headers {
		cols[i] = column{header: h, render: pct,
			value: func(rs *runner.ResultSet, b string) float64 {
				st := rs.Get(b, label)
				tot := float64(total(st))
				if tot == 0 {
					tot = 1
				}
				return float64(buckets(st)[i]) / tot
			}}
	}
	return cols
}
