#!/usr/bin/env python3
"""Builds and runs the BRMI wall-clock benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark package is built (release, offline) into CARGO_TARGET_DIR, or
`.bench_build` when that is unset. `--trace 0` runs the `perfbench` binary,
`--trace 1` the `perfbench-traced` binary with its counting allocator.
Build output goes to standard error; the binary's standard output, whose
last line is the JSON result, passes through unchanged. The exit code is
the build's when the build fails, else the binary's.
"""

import os
import subprocess
import sys


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    traced = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    binary = os.path.join(target, "release", "perfbench-traced" if traced else "perfbench")
    return subprocess.run([binary] + argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
