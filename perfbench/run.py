#!/usr/bin/env python3
"""Build the perfbench binary from this checkout, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload detect-serve --seed 1 --seconds 10 --trace 0

The Go build cache, Go's configuration and telemetry directory, temporary
files and the binary all go under .bench_build/ in the checkout, so nothing
outside it is written. When the build fails (for instance, when the
repository's own sources are not next to perfbench/) the script exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=here,
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    # Replace this process with the benchmark, so the caller waits on the
    # benchmark itself and no child outlives the script.
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
