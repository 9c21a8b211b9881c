// Command rixvet runs the project's static-analysis suite
// (internal/analysis): hotalloc, snapshotpure, eventenum, ctxflow, and
// gobversion:
//
//	rixvet ./...                  # analyze every package in the module
//	rixvet -only hotalloc ./...   # one analyzer
//	rixvet -json ./...            # machine-readable findings
//	rixvet -list                  # print the suite and exit
//	rixvet -update-gob-golden     # re-pin gob structure golden
//
// Packages are loaded with the offline loader (internal/analysis/load):
// no network, no module cache — the standard library is type-checked
// from GOROOT source. Exit status is 1 when any analyzer reports a
// finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	"rix/internal/analysis"
	"rix/internal/analysis/gobversion"
	"rix/internal/analysis/load"
	"rix/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rixvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listFlag   = fs.Bool("list", false, "print the analyzer suite and exit")
		onlyFlag   = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		jsonFlag   = fs.Bool("json", false, "emit findings as JSON")
		updateFlag = fs.Bool("update-gob-golden", false, "regenerate the gobversion structure golden instead of checking it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, a := range suite.Analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*onlyFlag)
	if err != nil {
		fmt.Fprintln(stderr, "rixvet:", err)
		return 2
	}
	gobversion.Update = *updateFlag
	return standalone(fs.Args(), analyzers, *jsonFlag, stdout, stderr)
}

// selectAnalyzers filters the suite by the -only flag.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return suite.Analyzers, nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a := suite.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// finding is one diagnostic, ready for text or JSON output.
type finding struct {
	Analyzer string `json:"analyzer"`
	Pos      string `json:"pos"`
	Message  string `json:"message"`
}

// standalone loads patterns (default ./...) from the enclosing module
// and applies every selected analyzer to every package.
func standalone(patterns []string, analyzers []*analysis.Analyzer, asJSON bool, stdout, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "rixvet:", err)
		return 2
	}
	root, modulePath, err := load.ModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "rixvet:", err)
		return 2
	}
	loader := load.New(root, modulePath)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "rixvet:", err)
		return 2
	}
	var findings []finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			fs, err := applyAnalyzer(a, pkg.Fset, pkg.Syntax, pkg.Types, pkg.TypesInfo)
			if err != nil {
				fmt.Fprintf(stderr, "rixvet: %s: %s: %v\n", a.Name, pkg.PkgPath, err)
				return 2
			}
			findings = append(findings, fs...)
		}
	}
	return emit(findings, asJSON, stdout, stderr)
}

func applyAnalyzer(a *analysis.Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]finding, error) {
	var out []finding
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report: func(d analysis.Diagnostic) {
			p := fset.Position(d.Pos)
			out = append(out, finding{
				Analyzer: a.Name,
				Pos:      fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column),
				Message:  d.Message,
			})
		},
	}
	if _, err := a.Run(pass); err != nil {
		return nil, err
	}
	return out, nil
}

func emit(findings []finding, asJSON bool, stdout, stderr io.Writer) int {
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Pos != findings[j].Pos {
			return findings[i].Pos < findings[j].Pos
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "rixvet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s: [%s] %s\n", f.Pos, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
