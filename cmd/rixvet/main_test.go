package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestListMode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	for _, name := range []string{"hotalloc", "snapshotpure", "eventenum", "ctxflow", "gobversion"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("expected exit 2 for unknown analyzer, got %d", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("missing error message: %s", errb.String())
	}
}
