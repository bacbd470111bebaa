"""Run every workload untraced and traced, and print all metrics in one report.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload this runs ``run.py`` with ``--trace 0`` and ``--trace 1``
(one after the other, never in parallel) and prints every end-to-end metric
with its unit, the share of failed cases, the tracing overhead (traced
minus untraced wall time), the share of case time the top-level spans
cover, and whether the layer shares the benchmark was built on still hold.
Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# (workload, per-layer metrics whose sum should reach the share, share)
CLAIMS = (
    ("certify", ("verify.saito_check.share",), 0.9),
    ("oracle", ("linalg.rank_int.share", "linalg.nullspace.share"), 0.9),
)


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if not out.stdout.strip():
        raise SystemExit(f"run.py {workload} trace={trace} printed no result:\n{out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))
    return result, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary, ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        plain, record = run(workload, args.seed, args.seconds, 0)
        traced, _ = run(workload, args.seed, args.seconds, 1)
        ok = ok and plain["correct"] and traced["correct"]
        metrics, layers = plain["metrics"], traced["metrics"]
        wall, traced_wall = metrics["wall_s"]["value"], layers["trace.wall_s"]["value"]
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s per run, "
              f"{len(record['cases'])} cases x {record['passes']} passes)")
        for name, metric in metrics.items():
            print(f"  {name:14s} {metric['value']:.6g} {metric['unit']}")
        print(f"  {'fail_ratio':14s} {plain['failed'] / plain['attempted']:.6g} 1 "
              f"({plain['failed']} of {plain['attempted']} attempted)")
        print(f"  tracing overhead: {traced_wall - wall:+.4g} s ({(traced_wall - wall) / wall:+.1%} of wall_s)")
        print(f"  top-level spans cover {layers['trace.top_share']['value']:.1%} of traced case time")
        for claim_workload, names, share in CLAIMS:
            if claim_workload == workload:
                got = sum(layers[name]["value"] for name in names)
                verdict = "holds" if got >= share else "NOT MET"
                print(f"  {' + '.join(names)} = {got:.1%} of case time (claim >= {share:.0%}): {verdict}")
        hashes = record["hash_recheck"]
        print(f"  output sha256 identical under PYTHONHASHSEED={hashes['pythonhashseed']} for "
              f"{hashes['checked'] - len(hashes['mismatched'])}/{hashes['checked']} re-run cases")
        summary[workload] = {"end_to_end": plain, "per_layer": traced, "tracing_overhead_s": traced_wall - wall}
    machine = record["machine"]
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu_model']!r} python={machine['python']} "
          f"src_lines={record['src_lines']}")
    path = HERE / "out" / f"report-seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"report: {path.relative_to(HERE.parent)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
