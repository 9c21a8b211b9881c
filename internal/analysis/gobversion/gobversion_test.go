package gobversion_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rix/internal/analysis/analysistest"
	"rix/internal/analysis/gobversion"
	"rix/internal/analysis/load"
)

// withFixtureConfig points the analyzer at a temp golden and the
// fixture package's tracked names, restoring the real configuration
// afterwards.
func withFixtureConfig(t *testing.T) {
	t.Helper()
	oldPath, oldRoots, oldUpdate := gobversion.GoldenPath, gobversion.Roots, gobversion.Update
	t.Cleanup(func() {
		gobversion.GoldenPath, gobversion.Roots, gobversion.Update = oldPath, oldRoots, oldUpdate
	})
	gobversion.GoldenPath = filepath.Join(t.TempDir(), "golden.json")
	gobversion.Roots = map[string]map[string]string{"a": {"Blob": "BlobFormat"}}
	gobversion.Update = false
}

func findings(t *testing.T, testdata string) []string {
	t.Helper()
	loader := load.New(testdata+"/src", "")
	pkgs, err := loader.Load("a")
	if err != nil {
		t.Fatalf("loading %s: %v", testdata, err)
	}
	out, err := analysistest.RunAnalyzer(gobversion.Analyzer, pkgs[0])
	if err != nil {
		t.Fatalf("analyzer failed: %v", err)
	}
	return out
}

func TestGobversionLifecycle(t *testing.T) {
	withFixtureConfig(t)

	// No golden yet: every tracked name reports a missing entry.
	got := findings(t, "testdata")
	if len(got) != 2 {
		t.Fatalf("expected 2 missing-entry findings, got %v", got)
	}
	for _, f := range got {
		if !strings.Contains(f, "no golden entry") {
			t.Errorf("expected missing-entry finding, got %q", f)
		}
	}

	// Update mode records the structure and reports nothing.
	gobversion.Update = true
	if got := findings(t, "testdata"); len(got) != 0 {
		t.Fatalf("update mode reported findings: %v", got)
	}
	gobversion.Update = false
	if _, err := os.Stat(gobversion.GoldenPath); err != nil {
		t.Fatalf("update mode did not write the golden: %v", err)
	}

	// Unchanged structure: clean.
	if got := findings(t, "testdata"); len(got) != 0 {
		t.Fatalf("clean compare reported findings: %v", got)
	}

	// Drifted structure without a const bump, then with one — the want
	// comments in the fixtures assert the message flavor.
	analysistest.Run(t, "testdata/drift", gobversion.Analyzer, "a")
	analysistest.Run(t, "testdata/bump", gobversion.Analyzer, "a")
}

// TestGobversionPinsReachableTypes: the root's entry covers the types it
// reaches in another package, so a field added to a nested struct, or
// a nested named type retyped, changes the root's structure although
// the root's own package is untouched.
func TestGobversionPinsReachableTypes(t *testing.T) {
	withFixtureConfig(t)
	gobversion.Update = true
	findings(t, "testdata")
	gobversion.Update = false
	analysistest.Run(t, "testdata/nested", gobversion.Analyzer, "a")
	analysistest.Run(t, "testdata/retyped", gobversion.Analyzer, "a")
}

// TestGobversionGuardsEachRoot: each root is guarded by its own const.
// In the wrongbump fixture Blob changes while only Note's const moves,
// which must read as a change without a bump, not as a stale golden.
func TestGobversionGuardsEachRoot(t *testing.T) {
	withFixtureConfig(t)
	gobversion.Roots = map[string]map[string]string{"a": {"Blob": "BlobFormat", "Note": "NoteFormat"}}
	gobversion.Update = true
	findings(t, "testdata")
	gobversion.Update = false
	analysistest.Run(t, "testdata/wrongbump", gobversion.Analyzer, "a")
}

func TestGobversionUntrackedPackageIsIgnored(t *testing.T) {
	withFixtureConfig(t)
	gobversion.Roots = map[string]map[string]string{}
	if got := findings(t, "testdata"); len(got) != 0 {
		t.Fatalf("untracked package reported findings: %v", got)
	}
}

// writeFixtureGolden writes g as the golden file the analyzer reads.
func writeFixtureGolden(t *testing.T, g gobversion.Golden) {
	t.Helper()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gobversion.GoldenPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// staleGolden is a golden holding rows for names package a no longer
// tracks, plus rows of packages whose paths merely start with "a".
func staleGolden(t *testing.T) gobversion.Golden {
	t.Helper()
	gobversion.Update = true
	findings(t, "testdata")
	gobversion.Update = false
	data, err := os.ReadFile(gobversion.GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g gobversion.Golden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	row := g.Types["a.Blob"]
	g.Types["a.Gone"] = row
	g.Types["a/sub.Keep"] = row
	g.Types["ab.Keep"] = row
	g.Consts["a.GoneFormat"] = "1"
	g.Consts["a/sub.KeepFormat"] = "1"
	return g
}

// TestGobversionUpdatePrunesStaleRows: update mode replaces the analyzed
// package's rows — dropping those no tracked name produces — and leaves
// every other package's rows alone, including packages whose paths only
// share a prefix with it.
func TestGobversionUpdatePrunesStaleRows(t *testing.T) {
	withFixtureConfig(t)
	writeFixtureGolden(t, staleGolden(t))

	gobversion.Update = true
	if got := findings(t, "testdata"); len(got) != 0 {
		t.Fatalf("update mode reported findings: %v", got)
	}
	types, consts := goldenKeys(t)
	if want := []string{"a.Blob", "a/sub.Keep", "ab.Keep"}; !reflect.DeepEqual(types, want) {
		t.Errorf("golden types after update = %v, want %v", types, want)
	}
	if want := []string{"a.BlobFormat", "a/sub.KeepFormat"}; !reflect.DeepEqual(consts, want) {
		t.Errorf("golden consts after update = %v, want %v", consts, want)
	}
}

// TestGobversionReportsStaleRows: compare mode names every golden row of
// the analyzed package that no tracked name produces, and no row of
// another package.
func TestGobversionReportsStaleRows(t *testing.T) {
	withFixtureConfig(t)
	writeFixtureGolden(t, staleGolden(t))

	got := findings(t, "testdata")
	if len(got) != 2 {
		t.Fatalf("expected 2 stale-row findings, got %v", got)
	}
	for i, key := range []string{"a.Gone", "a.GoneFormat"} {
		if !strings.Contains(got[i], "golden entry "+key+" is no longer tracked") {
			t.Errorf("finding %d = %q, want the stale row %s", i, got[i], key)
		}
	}
}

// TestGobversionDropsRowsOfUntrackedPackage: a package that declares no
// root or const any more still owns its golden rows, so compare mode
// names each of them and update mode drops them.
func TestGobversionDropsRowsOfUntrackedPackage(t *testing.T) {
	withFixtureConfig(t)
	writeFixtureGolden(t, staleGolden(t))
	gobversion.Roots = map[string]map[string]string{}

	got := findings(t, "testdata")
	keys := []string{"a.Blob", "a.BlobFormat", "a.Gone", "a.GoneFormat"}
	if len(got) != len(keys) {
		t.Fatalf("expected %d stale-row findings, got %v", len(keys), got)
	}
	for i, key := range keys {
		if !strings.Contains(got[i], "golden entry "+key+" is no longer tracked") {
			t.Errorf("finding %d = %q, want the stale row %s", i, got[i], key)
		}
	}

	gobversion.Update = true
	findings(t, "testdata")
	types, consts := goldenKeys(t)
	if want := []string{"a/sub.Keep", "ab.Keep"}; !reflect.DeepEqual(types, want) {
		t.Errorf("golden types after update = %v, want %v", types, want)
	}
	if want := []string{"a/sub.KeepFormat"}; !reflect.DeepEqual(consts, want) {
		t.Errorf("golden consts after update = %v, want %v", consts, want)
	}
}

// goldenKeys returns the golden file's type and const keys, sorted.
func goldenKeys(t *testing.T) (types, consts []string) {
	t.Helper()
	data, err := os.ReadFile(gobversion.GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g gobversion.Golden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	for k := range g.Types {
		types = append(types, k)
	}
	for k := range g.Consts {
		consts = append(consts, k)
	}
	sort.Strings(types)
	sort.Strings(consts)
	return types, consts
}
