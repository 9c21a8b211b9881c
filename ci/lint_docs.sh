#!/usr/bin/env bash
# lint_docs.sh — keep the user-facing docs honest about the CLIs and
# the Go API.
#
# Fails if README.md, EXPERIMENTS.md, doc/ARCHITECTURE.md, or
# doc/FORMATS.md reference a `-flag` that no command under cmd/
# actually defines, the way the docs drifted when the static per-cell
# window split was retired. Flag definitions are discovered by
# grepping cmd/ for flag.<Type>("name", ...) calls and for
# fs.<Type>Var(...) registrations on a FlagSet (how the shared
# cmdutil.SampledFlags group installs its flags, and how rixvet builds
# its standalone FlagSet), so a renamed or deleted flag fails this
# lint until every doc mention is updated.
# Go-toolchain flags that legitimately appear in doc command lines
# (go test -bench, gofmt -l, ...) are allowlisted.
#
# It also fails if those docs name a Go identifier of this module that
# no longer exists: every backticked `pkg.Ident` or `pkg.Ident.Member`
# whose pkg is a package under internal/ (procexec standing for
# internal/sample/procexec) must resolve with `go doc`.
#
# And it fails if README.md, EXPERIMENTS.md or doc/*.md cite a test,
# benchmark or example (a backticked `TestXxx`, `BenchmarkXxx` or
# `ExampleXxx`) that no _test.go file defines, so docs cannot keep
# pointing at a deleted or renamed test.
#
# And it fails if a doc/FORMATS.md row "must equal `pkg.XFormat`
# (currently **N**)" disagrees with the constant's value, read with
# `go doc`, so a format bump cannot leave the table behind.
set -euo pipefail
cd "$(dirname "$0")/.."

defined=$(grep -rhoE '(flag|fs)\.[A-Za-z][A-Za-z0-9]*\((&[A-Za-z0-9.]+, )?"[a-z][a-z0-9-]*"' cmd/ \
  | sed -E 's/.*"([^"]+)".*/\1/' | sort -u)
if [ -z "$defined" ]; then
  echo "lint_docs: found no flag definitions under cmd/ — the grep is broken" >&2
  exit 1
fi

# The cross-process flag group (-worker, -worker-idle, -worker-dir)
# registers through cmdutil.SampledFlags like the other sampled knobs,
# and the distributed-windows docs lean on it heavily. Its absence
# from the discovered set means the registration moved or the grep
# broke — fail fast instead of silently passing stale doc mentions.
for f in worker worker-idle worker-dir; do
  if ! grep -qx "$f" <<<"$defined"; then
    echo "lint_docs: cross-process flag -$f not discovered under cmd/ — registration or the grep broke" >&2
    exit 1
  fi
done

# go test / gofmt / go vet flags quoted in CI and benchmarking docs.
toolchain="bench benchmem benchtime race run count cover l"

fail=0
for doc in README.md EXPERIMENTS.md doc/ARCHITECTURE.md doc/FORMATS.md; do
  # A doc flag reference is `-name` at a word start: preceded by a
  # space, backtick, or parenthesis so hyphenated prose (two-phase,
  # best-effort) and numeric ranges (2-5x) never match.
  refs=$(grep -oE "(^|[ \`(])-[a-z][a-z0-9-]*" "$doc" \
    | sed -E 's/^[^-]*-//' | sort -u)
  for r in $refs; do
    case " $toolchain " in *" $r "*) continue ;; esac
    if ! grep -qx "$r" <<<"$defined"; then
      echo "lint_docs: $doc references -$r but no command under cmd/ defines it" >&2
      fail=1
    fi
  done
done

pkgs=$(find internal -mindepth 1 -maxdepth 1 -type d -printf '%f\n' | paste -sd'|')
declare -A resolved
for doc in README.md EXPERIMENTS.md doc/ARCHITECTURE.md doc/FORMATS.md; do
  refs=$(grep -oE "\`($pkgs|procexec)\.[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)?" "$doc" \
    | sed 's/^`//' | sort -u)
  for r in $refs; do
    if [ -z "${resolved[$r]:-}" ]; then
      pkg=${r%%.*}
      [ "$pkg" = procexec ] && pkg=sample/procexec
      resolved[$r]=no
      if go doc "rix/internal/$pkg.${r#*.}" >/dev/null 2>&1; then
        resolved[$r]=yes
      fi
    fi
    if [ "${resolved[$r]}" = no ]; then
      echo "lint_docs: $doc names \`$r\` but go doc cannot resolve it" >&2
      fail=1
    fi
  done
done

tests=$(grep -rhoE --include='*_test.go' '^func (Test|Benchmark|Example)[A-Za-z0-9_]*\(' . \
  | sed -E 's/^func ([A-Za-z0-9_]+)\(/\1/' | sort -u)
if [ -z "$tests" ]; then
  echo "lint_docs: found no test functions — the grep is broken" >&2
  exit 1
fi
for doc in README.md EXPERIMENTS.md doc/*.md; do
  refs=$(grep -oE "\`(Test|Benchmark|Example)[A-Z0-9_][A-Za-z0-9_]*" "$doc" \
    | sed 's/^`//' | sort -u)
  for r in $refs; do
    if ! grep -qx "$r" <<<"$tests"; then
      echo "lint_docs: $doc cites \`$r\` but no _test.go file defines it" >&2
      fail=1
    fi
  done
done

rows=$(grep -oE 'must equal `[a-z]+\.[A-Za-z]+Format` \(currently \*\*[0-9]+\*\*\)' doc/FORMATS.md \
  | sed -E 's/must equal `([a-z]+)\.([A-Za-z]+)` \(currently \*\*([0-9]+)\*\*\)/\1 \2 \3/')
if [ -z "$rows" ]; then
  echo "lint_docs: found no format-version rows in doc/FORMATS.md — the grep is broken" >&2
  exit 1
fi
while read -r pkg name want; do
  path=$pkg
  [ "$pkg" = procexec ] && path=sample/procexec
  have=$(go doc "rix/internal/$path.$name" 2>/dev/null \
    | sed -nE "s/^[[:space:]]*(const )?$name[[:space:]]*=[[:space:]]*([0-9]+)[[:space:]]*\$/\2/p" | head -1)
  if [ "$have" != "$want" ]; then
    echo "lint_docs: doc/FORMATS.md says $pkg.$name is currently $want, but the code has ${have:-no such constant}" >&2
    fail=1
  fi
done <<<"$rows"

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "lint_docs: every doc-referenced flag is defined by a command, every named Go identifier and test exists, every format version matches"
