package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, on a two-program
// subset and checks that the result names exactly the metrics
// BENCHMARK.json lists, each with its unit, and that no cell failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDef struct{ Name, Unit string }
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		for trace, want := range [][]metricDef{def.EndToEnd, def.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.Name, "-seed", "7", "-seconds", "0.1", "-trace", []string{"0", "1"}[trace],
				"-programs", "gzip,twolf", "-ref", "reference.json", "-work", t.TempDir()}
			if code := realMain(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d\n%s", w.Name, trace, res.Correct, res.Failed, res.Attempted, stdout.String())
			}
			if !strings.Contains(stdout.String(), "fail_ratio 0 ") {
				t.Errorf("%s trace %d: report lacks fail_ratio 0\n%s", w.Name, trace, stdout.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
