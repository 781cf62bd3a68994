#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the repository root:

    python3 e2ebench/run.py --workload <openloop_storm|openloop_dvfs|paper_sessions> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `ewc-e2ebench` package in release mode (into `CARGO_TARGET_DIR`,
default `.bench_build`), pins this process to one CPU, and replaces itself
with the benchmark binary. The binary's last line of output is the result
object; with `--trace 1` the recorded spans are written to
`<target dir>/e2ebench/spans-<workload>-<seed>.jsonl`.

Pinning is part of the run protocol: the client thread and the backend
daemon ping-pong on every RPC, and on a shared 2-core host the time of an
unpinned storm swung by 2x between runs as the OS moved the two threads
between cores.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def arg(argv, flag):
    """The value following `flag` in `argv`, or None."""
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def main():
    argv = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1

    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    binary = os.path.join(target, "release", "ewc-e2ebench")
    extra = ["--nproc", str(len(cpus))]
    if arg(argv, "--trace") == "1":
        name = "spans-%s-%s.jsonl" % (arg(argv, "--workload"), arg(argv, "--seed"))
        extra += ["--spans-out", os.path.join(target, "e2ebench", name)]
    sys.stdout.flush()
    os.execv(binary, [binary] + argv + extra)


if __name__ == "__main__":
    sys.exit(main())
