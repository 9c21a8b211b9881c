#!/usr/bin/env python3
"""Build and run rix's end-to-end benchmark (the Go program in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload fig4-sampled --seed 1 --seconds 20 --trace 0

The program is built from source into the build directory
($CARGO_TARGET_DIR, default .bench_build) with the Go build cache, module
cache and temporary files kept there too, so nothing outside the checkout
is written. Every argument is passed through to the program; the last line
it prints is the JSON result. The exit code is the program's, or non-zero
when the build fails (as it does without the rix module around this
directory).
"""

import os
import subprocess
import sys

TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    sys.stdout.flush()
    proc = subprocess.Popen([binary, "-work", build] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: timed out after %d s" % TIMEOUT_S, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
