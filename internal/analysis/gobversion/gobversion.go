// Package gobversion guards the on-disk compatibility of the gob
// artifacts doc/FORMATS.md specifies: checkpoints, warm caches, and the
// cross-process executor's manifests, leases and results. Gob is
// structurally tolerant — adding, removing, or
// retyping a field usually still *decodes*, silently producing zero
// values where data used to be. FORMATS.md therefore requires any
// structural change to a persisted type to bump the owning format
// constant so stale artifacts are rejected rather than misread.
//
// A format is named by its root, the type a file holds whole, and is
// guarded by one format constant (Roots). The analyzer renders the
// structure of every module type reachable from a root — a struct by
// its exported fields (name + fully qualified type, in declaration
// order), any other named type by its underlying type — so a field
// added to a struct three pointers down changes the root's entry too.
// It hashes that structure and compares it, along with the value of
// the root's guard constant, against the committed golden file
// (golden.json next to this package). A mismatch is a diagnostic at the
// root's declaration:
//
//   - structure changed, the root's own guard unchanged → the dangerous
//     case (bumping another root's constant does not count): bump the
//     guard, then refresh the golden;
//   - structure or const changed and the golden is stale → refresh
//     with `rixvet -update-gob-golden`;
//   - a golden entry of the package that no tracked name produces (a
//     root or const dropped from tracking, also the last one of a
//     package) → refresh to remove it.
//
// Update mode (the driver's -update-gob-golden flag sets Update)
// replaces the analyzed package's golden entries instead of reporting:
// entries of the package no tracked name produces are dropped.
package gobversion

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rix/internal/analysis"
)

// Roots maps package path → the format roots declared there (the types
// gob writes to a file whole), each to the format constant in the same
// package that guards it. Every module type a root reaches is pinned
// with it, and the guard's value is recorded so the analyzer can tell
// "changed with a bump" from "changed silently".
var Roots = map[string]map[string]string{
	"rix/internal/sample": {
		"Checkpoint":  "CheckpointFormat",
		"warmSetFile": "WarmCacheFormat",
	},
	"rix/internal/sample/procexec": {
		"Manifest": "ManifestFormat",
		"Lease":    "LeaseFormat",
		"Result":   "ResultFormat",
	},
}

// GoldenPath locates the golden file: absolute paths are used as-is
// (tests point it at a temp file), relative paths resolve against the
// module root of the analyzed package.
var GoldenPath = "internal/analysis/gobversion/golden.json"

// Update switches the analyzer from compare mode to regenerate mode.
var Update = false

// Analyzer is the gobversion check.
var Analyzer = &analysis.Analyzer{
	Name: "gobversion",
	Doc:  "pin the field structure of gob-serialized types; structural drift without a format-const bump fails the build",
	Run:  run,
}

// Golden is the committed structure record.
type Golden struct {
	Types  map[string]GoldenType `json:"types"`
	Consts map[string]string     `json:"consts"`
}

// GoldenType records one type: the hash that is compared and the field
// lines that make review diffs readable.
type GoldenType struct {
	Hash   string   `json:"hash"`
	Fields []string `json:"fields"`
}

func run(pass *analysis.Pass) (interface{}, error) {
	pkgPath := pass.Pkg.Path()
	roots := Roots[pkgPath]
	// Every package reads the golden, tracked or not: rows left by a
	// package that no longer declares a root are stale too.
	goldenFile, err := resolveGoldenPath(pass)
	if err != nil {
		return nil, err
	}
	golden, err := readGolden(goldenFile)
	if err != nil {
		return nil, err
	}

	types_ := map[string]GoldenType{}
	consts := map[string]string{}
	guard := map[string]string{} // root key → its guard const's key
	var rootNames []string
	for name := range roots {
		rootNames = append(rootNames, name)
	}
	sort.Strings(rootNames)
	for _, name := range rootNames {
		if obj, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName); ok {
			fields := structure(obj)
			types_[pkgPath+"."+name] = GoldenType{Hash: hashFields(fields), Fields: fields}
		} else {
			pass.Reportf(pass.Files[0].Pos(),
				"gobversion tracks %s.%s but the type does not exist; update gobversion.Roots alongside the rename", pkgPath, name)
		}
		constName := roots[name]
		if obj, ok := pass.Pkg.Scope().Lookup(constName).(*types.Const); ok {
			consts[pkgPath+"."+constName] = obj.Val().ExactString()
			guard[pkgPath+"."+name] = pkgPath + "." + constName
		} else {
			pass.Reportf(pass.Files[0].Pos(),
				"gobversion tracks const %s.%s but it does not exist; update gobversion.Roots", pkgPath, constName)
		}
	}

	stale := staleKeys(golden, pkgPath, types_, consts)
	if len(types_) == 0 && len(consts) == 0 && len(stale) == 0 {
		return nil, nil // nothing of this package is pinned
	}
	if Update {
		return nil, writeGolden(goldenFile, golden, stale, types_, consts)
	}

	// bumped reports whether the const guarding root key moved since the
	// golden was written.
	bumped := func(key string) bool {
		old, ok := golden.Consts[guard[key]]
		return ok && old != consts[guard[key]]
	}
	var typeKeys []string
	for key := range types_ {
		typeKeys = append(typeKeys, key)
	}
	sort.Strings(typeKeys)
	for _, key := range typeKeys {
		cur := types_[key]
		old, ok := golden.Types[key]
		pos := declPos(pass, key)
		switch {
		case !ok:
			pass.Reportf(pos, "gob-serialized type %s has no golden entry; run `rixvet -update-gob-golden` to pin its structure", key)
		case old.Hash != cur.Hash && !bumped(key):
			pass.Reportf(pos,
				"gob-serialized type %s changed structure (%s) without a format-const bump; bump %s in doc/FORMATS.md's table, then run `rixvet -update-gob-golden`",
				key, diffFields(old.Fields, cur.Fields), guard[key])
		case old.Hash != cur.Hash:
			pass.Reportf(pos,
				"gob-serialized type %s changed structure (%s); format const %s is bumped — refresh the golden with `rixvet -update-gob-golden`",
				key, diffFields(old.Fields, cur.Fields), guard[key])
		}
	}
	var constKeys []string
	for key := range consts {
		constKeys = append(constKeys, key)
	}
	sort.Strings(constKeys)
	for _, key := range constKeys {
		if _, ok := golden.Consts[key]; !ok {
			pass.Reportf(pass.Files[0].Pos(),
				"format const %s has no golden entry; run `rixvet -update-gob-golden`", key)
		} else if golden.Consts[key] != consts[key] {
			pass.Reportf(pass.Files[0].Pos(),
				"format const %s changed (%s -> %s); refresh the golden with `rixvet -update-gob-golden`",
				key, golden.Consts[key], consts[key])
		}
	}
	for _, key := range stale {
		pass.Reportf(pass.Files[0].Pos(),
			"golden entry %s is no longer tracked; run `rixvet -update-gob-golden` to drop it", key)
	}
	return nil, nil
}

// owns reports whether a golden key belongs to pkgPath: its package
// part (everything before the last dot) must equal the path exactly, so
// rix/internal/sample does not own rix/internal/sample/procexec.Result.
func owns(pkgPath, key string) bool {
	i := strings.LastIndex(key, ".")
	return i >= 0 && key[:i] == pkgPath
}

// staleKeys lists, sorted, the golden entries of pkgPath that no
// tracked type or const produced this run.
func staleKeys(golden *Golden, pkgPath string, types_ map[string]GoldenType, consts map[string]string) []string {
	var stale []string
	for key := range golden.Types {
		if _, ok := types_[key]; !ok && owns(pkgPath, key) {
			stale = append(stale, key)
		}
	}
	for key := range golden.Consts {
		if _, ok := consts[key]; !ok && owns(pkgPath, key) {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return stale
}

// structure renders what gob encodes of root and of every module type
// it reaches, depth first from the root: one "pkg.Type.Field type" line
// per exported field of a struct (unexported fields are invisible to
// gob and excluded), one "pkg.Type = underlying" line per other named
// type. Module types are those whose package path has the root
// package's first path element; others (the standard library) appear
// only by name in the lines that use them.
func structure(root *types.TypeName) []string {
	module, _, _ := strings.Cut(root.Pkg().Path(), "/")
	inModule := func(obj *types.TypeName) bool {
		if obj.Pkg() == nil {
			return false
		}
		p := obj.Pkg().Path()
		return p == module || strings.HasPrefix(p, module+"/")
	}
	var out []string
	seen := map[*types.TypeName]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			obj := t.Obj()
			if seen[obj] || !inModule(obj) {
				return
			}
			seen[obj] = true
			name := types.TypeString(t, nil)
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				out = append(out, name+" = "+types.TypeString(t.Underlying(), nil))
				walk(t.Underlying())
				return
			}
			fields := exportedFields(st)
			for _, f := range fields {
				out = append(out, name+"."+f.Name()+" "+types.TypeString(f.Type(), nil))
			}
			for _, f := range fields {
				walk(f.Type())
			}
		case *types.Struct:
			for _, f := range exportedFields(t) {
				walk(f.Type())
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		}
	}
	walk(root.Type())
	return out
}

// exportedFields returns the fields of st gob encodes.
func exportedFields(st *types.Struct) []*types.Var {
	var out []*types.Var
	for i := range st.NumFields() {
		if f := st.Field(i); f.Exported() {
			out = append(out, f)
		}
	}
	return out
}

func hashFields(fields []string) string {
	sum := sha256.Sum256([]byte(strings.Join(fields, "\n")))
	return hex.EncodeToString(sum[:])
}

// diffFields summarizes what changed between two field lists.
func diffFields(old, cur []string) string {
	oldSet := map[string]bool{}
	for _, f := range old {
		oldSet[f] = true
	}
	curSet := map[string]bool{}
	for _, f := range cur {
		curSet[f] = true
	}
	var added, removed []string
	for _, f := range cur {
		if !oldSet[f] {
			added = append(added, f)
		}
	}
	for _, f := range old {
		if !curSet[f] {
			removed = append(removed, f)
		}
	}
	var parts []string
	if len(added) > 0 {
		parts = append(parts, "added: "+strings.Join(added, ", "))
	}
	if len(removed) > 0 {
		parts = append(parts, "removed: "+strings.Join(removed, ", "))
	}
	if len(parts) == 0 {
		return "fields reordered"
	}
	return strings.Join(parts, "; ")
}

func declPos(pass *analysis.Pass, key string) token.Pos {
	name := key[strings.LastIndex(key, ".")+1:]
	if obj := pass.Pkg.Scope().Lookup(name); obj != nil && obj.Pos().IsValid() {
		return obj.Pos()
	}
	return pass.Files[0].Pos()
}

// resolveGoldenPath returns the absolute golden-file path for the
// analyzed package: GoldenPath as-is when absolute, else joined to the
// module root found by walking up from the package's source files.
func resolveGoldenPath(pass *analysis.Pass) (string, error) {
	if filepath.IsAbs(GoldenPath) {
		return GoldenPath, nil
	}
	dir := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, filepath.FromSlash(GoldenPath)), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("gobversion: no go.mod above %s and GoldenPath is relative", dir)
		}
		dir = parent
	}
}

func readGolden(path string) (*Golden, error) {
	g := &Golden{Types: map[string]GoldenType{}, Consts: map[string]string{}}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("gobversion: parsing %s: %w", path, err)
	}
	if g.Types == nil {
		g.Types = map[string]GoldenType{}
	}
	if g.Consts == nil {
		g.Consts = map[string]string{}
	}
	return g, nil
}

// writeGolden drops the package's stale entries from the golden, sets
// its current ones and writes it back. Other packages' entries stay,
// which keeps update mode package-at-a-time safe: rixvet runs
// packages sequentially.
func writeGolden(path string, golden *Golden, stale []string, types_ map[string]GoldenType, consts map[string]string) error {
	for _, k := range stale {
		delete(golden.Types, k)
		delete(golden.Consts, k)
	}
	for k, v := range types_ {
		golden.Types[k] = v
	}
	for k, v := range consts {
		golden.Consts[k] = v
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
