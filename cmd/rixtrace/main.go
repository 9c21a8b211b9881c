// rixtrace functionally executes a workload on the golden emulator and
// reports its dynamic profile: instruction mix, call-depth distribution,
// save/restore density, and program output.
//
// The profile is computed from the streaming emu.TraceSource — records
// are folded into counters as they are produced, so memory stays O(1)
// regardless of trace length.
//
// The tool runs under the shared cmdutil harness: a SIGINT (or
// -timeout) cancels the stream at a batched poll boundary, and a second
// SIGINT hard-kills.
//
// Usage:
//
//	rixtrace -bench vortex
//	rixtrace -file prog.s
//	rixtrace -bench gcc -max 1048576     # bound the streamed instruction budget
//	rixtrace -bench perl.d -echo 256     # cap the echoed program output bytes
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"rix/cmd/internal/cmdutil"
	"rix/internal/asm"
	"rix/internal/emu"
	"rix/internal/isa"
	"rix/internal/prog"
	"rix/internal/workload"
)

func main() { cmdutil.Main("rixtrace", body) }

func body(ctx context.Context) error {
	bench := flag.String("bench", "", "workload name")
	file := flag.String("file", "", "assembly file")
	maxInstrs := flag.Uint64("max", workload.MaxInstrs, "instruction budget for the streamed trace")
	outCap := flag.Int("echo", 1<<10, "max program-output bytes to echo (0 = none)")
	timeout := flag.Duration("timeout", 0, "cancel the trace after this duration (0 = none)")
	flag.Parse()

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var p *prog.Program
	var err error
	switch {
	case *bench != "":
		b, ok := workload.ByName(*bench)
		if !ok {
			return fmt.Errorf("unknown workload %q", *bench)
		}
		p, err = asm.Assemble(b.Name+".s", b.Source)
	case *file != "":
		var src []byte
		src, err = os.ReadFile(*file)
		if err != nil {
			return err
		}
		p, err = asm.Assemble(*file, string(src))
	default:
		return fmt.Errorf("one of -bench or -file is required")
	}
	if err != nil {
		return err
	}

	src := emu.Stream(p, *maxInstrs)
	src.SetContext(ctx)

	var n, loads, stores, branches, taken, calls, rets, alu, fp, spStores, spLoads uint64
	depth, maxDepth := 0, 0
	depthSum := uint64(0)
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		n++
		in := p.Code[r.CodeIdx]
		switch in.Op.ClassOf() {
		case isa.ClassLoad:
			loads++
			if in.IsSPLoad() {
				spLoads++
			}
		case isa.ClassStore:
			stores++
			if in.IsSPStore() {
				spStores++
			}
		case isa.ClassBranch:
			branches++
			if r.Value == 1 {
				taken++
			}
		case isa.ClassCallDirect, isa.ClassCallIndirect:
			calls++
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
		case isa.ClassRet:
			rets++
			if depth > 0 {
				depth--
			}
		case isa.ClassFP:
			fp++
		default:
			alu++
		}
		depthSum += uint64(depth)
	}
	if err := src.Err(); err != nil {
		return err
	}
	e := src.Emulator()
	pc := func(v uint64) string { return fmt.Sprintf("%5.1f%%", 100*float64(v)/float64(n)) }

	fmt.Printf("workload     %s\n", p.Name)
	fmt.Printf("dynamic      %d instructions, exit %d\n", n, e.ExitCode)
	fmt.Printf("loads        %8d %s  (sp: %d)\n", loads, pc(loads), spLoads)
	fmt.Printf("stores       %8d %s  (sp: %d)\n", stores, pc(stores), spStores)
	fmt.Printf("branches     %8d %s  (%.1f%% taken)\n", branches, pc(branches),
		100*float64(taken)/float64(maxU(branches, 1)))
	fmt.Printf("calls/rets   %8d %s  / %d\n", calls, pc(calls), rets)
	fmt.Printf("fp           %8d %s\n", fp, pc(fp))
	fmt.Printf("alu/other    %8d %s\n", alu, pc(alu))
	fmt.Printf("call depth   avg %.2f, max %d\n", float64(depthSum)/float64(n), maxDepth)
	if out := e.Output; len(out) > 0 && *outCap > 0 {
		if len(out) > *outCap {
			fmt.Printf("output       %q... (%d bytes total)\n", out[:*outCap], len(out))
		} else {
			fmt.Printf("output       %q\n", out)
		}
	}
	return nil
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
