package emu

import (
	"context"
	"testing"

	"rix/internal/prog"
)

// tinyProg assembles a minimal program: clr v0 (exit fn), syscall.
func tinyProg(t *testing.T) *prog.Program {
	t.Helper()
	return assemble(t, `
        .text
main:   clr  v0
        syscall
`)
}

func TestStreamMatchesTrace(t *testing.T) {
	p := tinyProg(t)
	recs, _, err := Trace(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	s := Stream(p, 100)
	for i, want := range recs {
		got, ok := s.Next()
		if !ok || got != want {
			t.Fatalf("record %d: got %+v ok=%v, want %+v", i, got, ok, want)
		}
	}
	if _, ok := s.Next(); ok {
		t.Error("stream longer than materialized trace")
	}
	if err := s.Err(); err != nil {
		t.Errorf("clean end of stream reported error: %v", err)
	}
}

func TestStreamBudgetExhaustion(t *testing.T) {
	p := tinyProg(t)
	s := Stream(p, 1) // too small: program needs 2 instructions
	if _, ok := s.Next(); !ok {
		t.Fatal("first step should succeed")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("budget exhausted but stream continued")
	}
	if s.Err() == nil {
		t.Error("did-not-halt not reported via Err")
	}
	if _, err := Materialize(Stream(p, 1)); err == nil {
		t.Error("Materialize swallowed the production error")
	}
}

// TestStreamContextCancel: a cancelled context ends the stream at the
// next batched poll with Err() == ctx.Err().
func TestStreamContextCancel(t *testing.T) {
	// An endless loop: the stream only stops via budget or cancellation.
	p := assemble(t, `
        .text
main:   br   main
`)
	ctx, cancel := context.WithCancel(context.Background())
	s := Stream(p, 1<<30)
	s.SetContext(ctx)
	cancel()
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
		if n > streamPollInterval {
			t.Fatal("stream did not stop within one poll interval of cancellation")
		}
	}
	if err := s.Err(); err != context.Canceled {
		t.Errorf("Err() = %v, want context.Canceled", err)
	}
}
