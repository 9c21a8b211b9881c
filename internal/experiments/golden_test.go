package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rix/internal/run"
	"rix/internal/runner"
	"rix/internal/sample"
	"rix/internal/workload"
)

// goldenBenches is the workload subset the committed figure goldens
// under testdata/golden cover.
var goldenBenches = []string{"gzip", "crafty", "vortex", "mcf"}

// goldenSrc builds each golden workload once for both shared runs.
var goldenSrc = workload.NewBuilder()

var (
	// detail is every registered suite in full detail, the run
	// bench_subset.json pins; the structure tests read it.
	detail = &goldenRun{file: "bench_subset.json"}

	// sampled is every suite's `-sample default` variant with a shared
	// two-slot window pool per suite, the run sampled_subset.json pins
	// (its bytes are the same at every width).
	sampled = &goldenRun{file: "sampled_subset.json", sampling: &defaultSampling}

	defaultSampling = sample.DefaultSampling()
)

// goldenRun runs each registered suite on goldenBenches at most once
// per test binary, when a test first asks for it, so a test that reads
// one suite pays for that suite alone.
type goldenRun struct {
	file     string           // the golden under testdata/golden the run must match
	sampling *sample.Sampling // nil: full detail

	mu     sync.Mutex
	suites map[string]*suiteRun
}

// suiteRun is one suite's shared result, with the number of windows its
// sampled cells dispatched and discarded.
type suiteRun struct {
	runner.Suite
	dispatched, discarded int
	err                   error
}

// suite returns the shared run of the registered spec id, running it
// on first use.
func (g *goldenRun) suite(t *testing.T, id string) *suiteRun {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.suites[id]
	if !ok {
		r = &suiteRun{}
		r.err = g.run(id, r)
		if g.suites == nil {
			g.suites = map[string]*suiteRun{}
		}
		g.suites[id] = r
	}
	if r.err != nil {
		t.Fatalf("%s: %v", id, r.err)
	}
	return r
}

func (g *goldenRun) run(id string, r *suiteRun) error {
	e := runner.NewEngineWith(goldenBenches, goldenSrc)
	if g.sampling != nil {
		e.WindowJobs = 2
		var mu sync.Mutex
		e.Observer = run.ObserverFunc(func(ev run.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case run.WindowScheduled:
				r.dispatched++
			case run.WindowDiscarded:
				r.discarded++
			}
		})
	}
	var err error
	r.Suite, err = e.RunSuite(bg, id, g.sampling)
	return err
}

// TestGoldenFigures renders every registered suite of both shared runs
// as `rixbench -json` does and requires the committed goldens' bytes.
func TestGoldenFigures(t *testing.T) {
	for _, g := range []*goldenRun{detail, sampled} {
		t.Run(strings.TrimSuffix(g.file, ".json"), func(t *testing.T) {
			var suites []runner.Suite
			for _, id := range runner.IDs() {
				suites = append(suites, g.suite(t, id).Suite)
			}
			var got bytes.Buffer
			if err := runner.WriteJSON(&got, suites); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("..", "..", "testdata", "golden", g.file)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			flags := ""
			if g.sampling != nil {
				flags = " -sample default"
			}
			t.Errorf("figures differ from %s%s\nafter an intended model change, refresh it with\n"+
				"  go run ./cmd/rixbench -suite all%s -json -bench %s > testdata/golden/%s",
				g.file, firstDiff(want, got.Bytes()), flags, strings.Join(goldenBenches, ","), g.file)
		})
	}
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("; first at line %d:\n  golden: %s\n  now:    %s", i+1, wl, gl)
		}
	}
	return ""
}
