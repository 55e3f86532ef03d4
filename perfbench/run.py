#!/usr/bin/env python3
"""Builds and runs the tcpburst benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload run-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The script builds two release binaries into $CARGO_TARGET_DIR (default
`.bench_build`): the shipped `tcpburst` CLI, whose `worker` and `serve`
subcommands are the child processes of the `sweep-workers` and
`sweep-serve` workloads, and the `perfbench` runner in this directory.
It then replaces itself with the runner, which prints one JSON object as
the last line of its standard output.

`--smoke` runs every workload at a tiny size, untraced and traced, and
checks that each metric named in BENCHMARK.json is present with its unit.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the workspace sources, standing in for a commit id when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "crates")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)
                  if f.endswith((".rs", ".toml"))]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "tcpburst-core", "--bin", "tcpburst"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def smoke(runner, base_args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bad = 0
    for w in spec["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            args = [runner, "--workload", w["name"], "--seed", "7",
                    "--seconds", "1", "--trace", trace, "--smoke"] + base_args
            proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            label = f"{w['name']} trace={trace}"
            if proc.returncode != 0 or not lines:
                print(f"FAIL {label}: exit {proc.returncode}", file=sys.stderr)
                bad += 1
                continue
            result = json.loads(lines[-1])
            missing = [m["name"] for m in spec[group]
                       if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            extra = sorted(set(result["metrics"]) - {m["name"] for m in spec[group]})
            ok = result["correct"] and result["failed"] == 0 and not missing and not extra
            print(f"{'ok  ' if ok else 'FAIL'} {label}: {len(result['metrics'])} metrics"
                  + (f", missing {missing}" if missing else "")
                  + (f", unlisted {extra}" if extra else ""), file=sys.stderr)
            bad += not ok
    sys.exit(1 if bad else 0)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "core"))):
        fail("the tcpburst workspace is not next to this script; nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build(target)
    runner = os.path.join(target, "release", "perfbench")
    base_args = [
        "--tcpburst", os.path.join(target, "release", "tcpburst"),
        "--root", ROOT,
        "--stamp-rustc", command_output(["rustc", "--version"]),
        "--stamp-commit", command_output(["git", "rev-parse", "HEAD"]),
        "--stamp-source", source_digest(),
    ]
    args = sys.argv[1:]
    if args == ["--smoke"]:
        smoke(runner, base_args)
    sys.stdout.flush()
    os.execv(runner, [runner] + args + base_args)


if __name__ == "__main__":
    main()
