#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload uniform-e2e-serial --seed 1 --seconds 10 --trace 0

The Go program is built into .bench_build/ (binary, build cache and
temporary files all stay under the current directory). All arguments are
passed to it; its last line of standard output is the result JSON. The
exit code is the program's, or 2 when the build fails (for example when
the simulator's sources are not next to this directory).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOTELEMETRY="off",
        XDG_CONFIG_HOME=os.path.join(build, "config"),  # go env and telemetry files
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(build, "out")]
    sys.stdout.flush()
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
