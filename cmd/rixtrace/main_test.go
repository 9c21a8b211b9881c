package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"rix/internal/emu"
	"rix/internal/workload"
)

// TestTraceWriterRoundTrip records a real workload trace and reads it
// back record-for-record.
func TestTraceWriterRoundTrip(t *testing.T) {
	b, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip not registered")
	}
	bw, err := b.BuildContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := bw.Materialize()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "gzip.trace")
	tw, err := newTraceWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		if err := tw.write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.finish(); err != nil {
		t.Fatal(err)
	}

	got, err := readTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestTraceWriterAbortRemovesPartial is the regression test for the
// truncated-file bug: aborting mid-stream (the write-failure and
// source-failure paths) must remove the partial file.
func TestTraceWriterAbortRemovesPartial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.trace")
	tw, err := newTraceWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tw.write(emu.TraceRec{CodeIdx: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	tw.abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("partial file still exists after abort (stat err: %v)", err)
	}
}

// TestTraceWriterFinishFailureRemovesPartial forces the flush to fail by
// closing the underlying file first; finish must report the error and
// remove the file.
func TestTraceWriterFinishFailureRemovesPartial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "failflush.trace")
	tw, err := newTraceWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	// Fill past the buffer so finish must actually write.
	for i := 0; i < (1<<16)/traceRecBytes+8; i++ {
		if err := tw.write(emu.TraceRec{CodeIdx: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	tw.f.Close() // sabotage: flush inside finish now fails
	if err := tw.finish(); err == nil {
		t.Fatal("finish succeeded despite closed file")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("partial file still exists after failed finish (stat err: %v)", err)
	}
}

// TestTraceWriterMidStreamWriteError drives the writer until the sticky
// bufio error surfaces, then verifies the abort path cleans up.
func TestTraceWriterMidStreamWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "midstream.trace")
	tw, err := newTraceWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	tw.f.Close() // every flush from here on fails
	var werr error
	for i := 0; i < (1<<17)/traceRecBytes; i++ {
		if werr = tw.write(emu.TraceRec{CodeIdx: uint32(i)}); werr != nil {
			break
		}
	}
	if werr == nil {
		t.Fatal("no write error surfaced despite closed file")
	}
	tw.abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("partial file still exists after abort (stat err: %v)", err)
	}
}
