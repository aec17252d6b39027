#!/usr/bin/env python3
"""Build and run the metachaos benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload couple-cold --seed 1 --seconds 10 --trace 0

Builds the benchmark program (perfbench, a Go module of its own that
uses the repository through a local replace) and the mcserved daemon
into the build directory, then runs the program with the given flags.
The build directory is $CARGO_TARGET_DIR when set, else .bench_build;
the Go build cache lives there too, so a run reads and writes only
inside the checkout.  The program's last stdout line is the result.
"""

import os
import shutil
import signal
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = os.path.join(build, "perfbench")
    os.makedirs(out, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    # The scheduler's shard count must come from the workload, not from
    # whatever the caller's shell exported.
    env.pop("MPSIM_SHARDS", None)

    # The toolchain's default install location backs up a PATH without it.
    go = shutil.which("go") or "/usr/local/go/bin/go"
    bench = os.path.join(out, "perfbench")
    daemon = os.path.join(out, "mcserved")
    for target, pkg in ((bench, "."), (daemon, "metachaos/cmd/mcserved")):
        build_cmd = [go, "build", "-o", target, pkg]
        done = subprocess.run(build_cmd, cwd=here, env=env,
                              stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("run.py: build of %s failed" % pkg, file=sys.stderr)
            return done.returncode or 1

    cmd = [bench, "--daemon", daemon,
           "--trace-dir", os.path.join(out, "traces")] + sys.argv[1:]
    child = subprocess.Popen(cmd, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
