#!/usr/bin/env python3
"""Regenerate the reference figures of psnbench/README.md.

Run from the root of the repository:

    python3 psnbench/figures.py            # about 10 minutes on 2 cores

It runs every workload untraced on seeds 1-3 and traced on seed 1, then
serve-ingest at 12k, 24k and 48k events per session for the uptime
figures, and prints the medians as Markdown tables together with the host
fingerprint the benchmark reports.
"""

import json
import statistics
import subprocess
import sys

WORKLOADS = ["serve-ingest", "hall-batch", "wide-hall"]
SECONDS = "40"


def run(workload, seed, trace, extra=()):
    cmd = ["cargo", "run", "--release", "--quiet", "--manifest-path", "psnbench/Cargo.toml", "--",
           "--workload", workload, "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace), *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip().splitlines()
    detail, result = json.loads(out[-2]), json.loads(out[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return detail


def table(rows, names):
    print("| metric | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 1) + "|")
    for metric in sorted({m for r in rows for m in r}):
        cells = []
        for r in rows:
            v = r.get(metric)
            cells.append("" if v is None else f"{v:.4g}")
        print(f"| `{metric}` | " + " | ".join(cells) + " |")
    print()


def main():
    host = None
    e2e, layers = [], []
    for w in WORKLOADS:
        runs = [run(w, seed, 0) for seed in (1, 2, 3)]
        host = runs[0]["host"]
        e2e.append({k: statistics.median(r["metrics"][k]["value"] for r in runs) for k in runs[0]["metrics"]})
        traced = run(w, 1, 1)
        layers.append({k: v["value"] for k, v in traced["metrics"].items()})
    print(f"Host: {json.dumps(host)}\n")
    print("End-to-end, median of seeds 1-3:\n")
    table(e2e, WORKLOADS)
    print("Per layer, traced run on seed 1:\n")
    table(layers, WORKLOADS)
    print("serve-ingest by session length (seed 1):\n")
    sizes = ["12000", "24000", "48000"]
    rows = []
    for n in sizes:
        m = run("serve-ingest", 1, 0, ("--events", n))["metrics"]
        rows.append({k: m[k]["value"] for k in ("snapshot_mb", "restore_s", "rss_mb", "ingest_eps")})
    table(rows, [f"{n} events" for n in sizes])


if __name__ == "__main__":
    main()
