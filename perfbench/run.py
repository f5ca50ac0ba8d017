#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <sync-mis|async-mis|service> \
        --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the result object
(`correct`, `attempted`, `failed`, `metrics`). Build output goes to
standard error. The build uses `CARGO_TARGET_DIR` when it is set and
`.bench_build` at the repository root otherwise; run records and traces
are written under `<target dir>/perfbench-out`.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"


def revision() -> str:
    """The git revision, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench/src", "perfbench/Cargo.toml"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            if f.is_file() and f.suffix in (".rs", ".toml"):
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def rustc_version() -> str:
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    if not MANIFEST.is_file() or not (ROOT / "crates").is_dir():
        print("perfbench: the repository sources are missing", file=sys.stderr)
        return 1
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "perfbench"
    cmd = [
        str(binary),
        *sys.argv[1:],
        "--out-dir",
        str(target / "perfbench-out"),
        "--rev",
        revision(),
        "--rustc",
        rustc_version(),
    ]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
