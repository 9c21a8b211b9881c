package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rix/internal/pipeline"
	"rix/internal/runner"
	"rix/internal/sample"
)

// TestStatsMatchBenchmarkReference recomputes the digests the benchmark
// harness (perfbench, a module of its own) checks every Figure 4 cell
// against: SHA-256 of json.Marshal(pipeline.Stats), first 12 bytes, in
// full detail and with -sample default. It covers gzip's 18 cells.
//
// The harness counts a cell whose digest differs from
// perfbench/reference.json as a failed operation, and a change that
// raises the share of failed operations is refused. So renaming, adding
// or removing a Stats field changes every digest even where no value
// moves, and so does any change to a Stats value. Such a change must
// land in, or after, a benchmark change that regenerates
// reference.json (`go run . -write-ref -ref reference.json` from
// perfbench/).
func TestStatsMatchBenchmarkReference(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "perfbench", "reference.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ref map[string]map[string]map[string]struct{ Digest string }
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	fig4, ok := runner.Lookup("fig4")
	if !ok {
		t.Fatal("fig4 not registered")
	}
	sampled := runner.Sampled(fig4, sample.DefaultSampling())
	e := runner.NewEngineWith([]string{"gzip"}, goldenSrc)
	var bad []string
	for _, m := range []struct {
		mode string
		spec *runner.Spec
	}{{"detail", fig4}, {"sampled", &sampled}} {
		rs, err := e.Gather(bg, m.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range rs.Labels() {
			want := ref[m.mode]["gzip"][l].Digest
			if got := statsDigest(t, rs.Get("gzip", l)); got != want {
				bad = append(bad, fmt.Sprintf("%s gzip %s: digest %s, reference %q", m.mode, l, got, want))
			}
		}
	}
	if len(bad) > 0 {
		t.Errorf("pipeline.Stats digests differ from perfbench/reference.json:\n  %s\n"+
			"The benchmark counts each such cell as a failed operation and refuses the change.\n"+
			"A change to pipeline.Stats (a field renamed, added or removed, or a value moved)\n"+
			"must land in, or after, a benchmark change that regenerates reference.json.",
			strings.Join(bad, "\n  "))
	}
}

// statsDigest is perfbench's digest of one cell.
func statsDigest(t *testing.T, st *pipeline.Stats) string {
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12])
}
