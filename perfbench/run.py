#!/usr/bin/env python3
"""Build the benchmark from source, print a host fingerprint, run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Arguments go to the benchmark binary unchanged (see perfbench/README.md).
The build honours CARGO_TARGET_DIR; without it the build lands in
perfbench/target. The binary's last stdout line is the JSON result; the
exit status is the binary's, or 3 when the build fails.
"""

import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "conch-perfbench")
    print(f"host: nproc={len(os.sched_getaffinity(0))} cpu={cpu_model()} rustc={rustc_version()}", flush=True)
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
