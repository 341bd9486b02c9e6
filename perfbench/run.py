#!/usr/bin/env python3
"""Build and run the MPF benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the given arguments.  Build
output goes to stderr; the benchmark's last stdout line is its result.
The toolchain version, the git commit (when run in a git checkout) and
a digest of the sources are passed to the benchmark for its provenance
record.  Exits non-zero, without a result, when the build or the run
fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SKIP_DIRS = {"target", ".bench_build", ".bench_out", ".git"}


def source_digest():
    """sha256 over the workspace manifests and every file under crates/
    and this directory, in path order."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in (ROOT / "crates", HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(Path(dirpath) / f for f in sorted(filenames))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # Cargo resolves a relative target directory against the working
    # directory, and so does this path.
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"
    commit = None
    if (ROOT / ".git").exists():
        commit = command_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    env["PERFBENCH_COMMIT"] = commit or "unknown"
    env["PERFBENCH_SOURCE"] = source_digest()

    sys.stdout.flush()
    return subprocess.run([str(binary)] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
