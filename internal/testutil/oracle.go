package testutil

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// MatchOracle fails t unless est JSON-encodes to workload name's entry
// in testdata/golden/sampled_oracle.json: the naive-loop estimates (the
// sample package's NaiveRun) of gzip and crafty under +reverse with the
// default window layout, for tests outside that package, which cannot
// compute them. TestOracleGolden in internal/sample pins the file to
// NaiveRun; its -update-oracle flag rewrites it.
func MatchOracle(t testing.TB, name string, est any) {
	t.Helper()
	_, here, _, _ := runtime.Caller(0)
	path := filepath.Join(filepath.Dir(here), "..", "..", "testdata", "golden", "sampled_oracle.json")
	var ests map[string]json.RawMessage
	var want bytes.Buffer
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &ests)
	}
	if err == nil {
		err = json.Compact(&want, ests[name])
	}
	got, merr := json.Marshal(est)
	if err = errors.Join(err, merr); err != nil {
		t.Fatalf("oracle estimate of %s: %v", name, err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("%s: estimate diverges from the naive loop's in %s", name, path)
	}
}
