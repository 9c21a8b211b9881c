#!/usr/bin/env bash
# smoke_worker.sh — cross-process executor smoke: a `-worker-dir` run
# whose detail windows execute on two real `rixsim -worker` processes
# must print byte-for-byte the output of a plain in-process run.
#
# TestCrossProcessBitEqual and TestCrossProcessEngineParity prove the
# same equality inside one test process; this script is the CI check
# that the *process boundary* — flag wiring, the worker main loop, gob
# manifests/leases/results on a real filesystem — preserves it. The
# text output (stats block + sampled summary) carries no wall-clock
# times, so a plain `diff` is an exact comparison.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)
dir=$(mktemp -d)

workers=()
cleanup() {
  if [ "${#workers[@]}" -gt 0 ]; then
    kill "${workers[@]}" 2>/dev/null || true
  fi
  wait 2>/dev/null || true
  rm -rf "$bin" "$dir"
}
trap cleanup EXIT

go build -o "$bin/rixsim" ./cmd/rixsim

# Two workers on the worker directory. The generous -worker-idle is a
# backstop against a wedged run; cleanup kills them as soon as the
# diff has run.
"$bin/rixsim" -worker "$dir" -worker-idle 10m &
workers+=($!)
"$bin/rixsim" -worker "$dir" -worker-idle 10m &
workers+=($!)

cell=(-bench gzip -int +reverse -sample default)
# -timeout bounds the cross-process run: if both workers died, it fails
# here instead of hanging the job until the CI-level timeout.
"$bin/rixsim" "${cell[@]}" -worker-dir "$dir" -timeout 10m > "$bin/proc.txt"
"$bin/rixsim" "${cell[@]}" > "$bin/inproc.txt"

diff -u "$bin/inproc.txt" "$bin/proc.txt"
echo "smoke_worker: cross-process output byte-identical to in-process"
