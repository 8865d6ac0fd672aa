#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one measurement.

Run from the repository root:

    python3 servebench/run.py --workload learned_hot --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/servebench (default
.bench_build/servebench), configured once and rebuilt incrementally. Build
output goes to stderr; the benchmark's last stdout line is its JSON result.
Exits non-zero, printing no result, when the build or the run fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    return base / "servebench"


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True)


def git_sha():
    """HEAD of a git checkout at ROOT, else "unknown" (no search above)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the library sources and build file, so results name the
    code they measured even outside a git checkout."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def main(argv):
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 2
    if argv == ["--self-test"]:
        return subprocess.run(
            [str(out / "servebench_test"), str(ROOT / "BENCHMARK.json")]
        ).returncode
    sha = f"{git_sha()}+src:{source_digest()}"
    return subprocess.run(
        [str(out / "servebench"), *argv, "--git-sha", sha]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
