package sample

import (
	"strings"
	"testing"
)

// TestParseSampling covers the -sample flag forms rixsim and rixbench
// accept: the named default, interval/window[/warmup] with the warmup
// defaulting to DefaultSampling's, and every rejected shape.
func TestParseSampling(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Sampling
	}{
		{"default", DefaultSampling()},
		{"on", DefaultSampling()},
		{"25000/1000/500", Sampling{Interval: 25000, Window: 1000, Warmup: 500}},
		{"25000/1000", Sampling{Interval: 25000, Window: 1000, Warmup: 300}},
		{" 25000 / 1000 / 0 ", Sampling{Interval: 25000, Window: 1000}},
		{"1000/700/300", Sampling{Interval: 1000, Window: 700, Warmup: 300}},
	} {
		got, err := ParseSampling(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseSampling(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, c := range []struct{ in, err string }{
		{"1000", "want interval/window[/warmup]"},
		{"1000/100/50/5", "want interval/window[/warmup]"},
		{"", "want interval/window[/warmup]"},
		{"1000/x", `bad count "x"`},
		{"1000/-1", `bad count "-1"`},
		{"1000//50", `bad count ""`},
		{"1000/701/300", "exceeds interval 1000"},
		{"0/100/0", "must be positive"},
		{"1000/0/100", "must be positive"},
	} {
		got, err := ParseSampling(c.in)
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("ParseSampling(%q) = %+v, %v; want an error containing %q", c.in, got, err, c.err)
		}
	}
}
