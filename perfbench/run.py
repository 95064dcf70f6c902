#!/usr/bin/env python3
"""Repo benchmark: one command for the fault-oom, kv-openloop and
pdes-sharded workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds perfbench/bench.exe
from source with dune, runs it once, measures the child's peak resident
memory from outside (wait4), and prints the program's report followed by
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
"end_to_end"); with --trace 1 the per-layer ones, and the traced
repeat's spans are written to perfbench/out/.  A failed output check
prints the report with "correct": false and exits 1; a checkout without
the repository's sources exits 3 before printing any result.

Seeds: DEFAULT_SEED is used when --seed is absent.  HELD_OUT_SEED is
reserved for confirming a claimed change; do not tune against it.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fault-oom", "kv-openloop", "pdes-sharded")
DEFAULT_SEED = 1
HELD_OUT_SEED = 977
CHILD_TIMEOUT_S = 170
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
BENCH_EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]", 2)
    if args.seed < 0:
        fail("--seed must be >= 0", 2)
    return args


def source_digest():
    """sha256 over the sources the benchmark builds from, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if "out" not in os.path.relpath(d, path).split(os.sep)
            for f in fs
            if f.endswith((".ml", ".mli")) or f in ("dune", "dune-project", "run.py"))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found under {ROOT}: run from a full checkout", 3)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH", 3)
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(OUT_DIR, "cache"))
    r = subprocess.run([dune, "build", "--root", ROOT, "--display", "quiet",
                        "./perfbench/bench.exe"], cwd=ROOT, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(BENCH_EXE):
        fail(f"build failed (dune exit {r.returncode})", 3)


def run_bench(args, spans):
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if spans:
        cmd += ["--spans", spans]
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return out, p.returncode, usage.ru_maxrss / 1024.0


def ocaml_version(out):
    for tok in out.split("\n", 1)[0].split("  "):
        if tok.startswith("ocaml "):
            return tok[len("ocaml "):]
    return "unknown"


def main():
    args = parse_args()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = (os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
             if args.trace else None)
    out, code, peak_rss_mb = run_bench(args, spans)
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"bench.exe exited {code} without a result", 1)
    commit = git_commit()
    layers = result["per_layer"]
    print(f"provenance: nproc {os.cpu_count()}, ocaml {ocaml_version(out)}, "
          f"git commit {commit or 'unavailable (not a git checkout)'}, "
          f"source digest {source_digest()}, "
          f"host.trace_overhead_pct {layers['host.trace_overhead_pct']['value']:.2f}, "
          f"default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}")
    print(f"peak_rss_mb {peak_rss_mb:.1f} (child process, measured by wait4)")
    if args.trace:
        metrics = layers
    else:
        metrics = dict(result["end_to_end"])
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
