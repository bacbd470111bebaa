"""arrops benchmark: one workload, one seed, one process, closed loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify|oracle|sweep --seed N --seconds S --trace 0|1

Cases run one at a time through the CLI's in-process entry points
(``_make_parser``, ``run``, ``emit_report``), so each case pays exactly what
a ``basis``/``verify``/``oracle``/... user pays; no threads, no workers.
The run repeats whole passes over the workload's cases while the next pass
is expected to end within ``--seconds`` (at least one pass).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
wraps the library's layer functions (``spans.py``) and reports the
per-layer metrics.  Times are rescaled to a nominal host speed (see
``harness.HostSpeed``); the record keeps them as measured too.  Every case's
output is checked outside the timed region (``checks.py``); any failure
makes the exit code 1.  The last stdout line is the JSON result; a fuller
record, with machine info, case properties, output digests and (traced)
spans, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

from harness import NOMINAL_REF_S, ROOT, SRC, HostSpeed, execute, import_cli

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

SETUP_PROBES = 15
# Prints the set-up time and then, in the same process, three reference-kernel timings.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import arrops, arrops.cli
arrops.cli._make_parser()
print(time.perf_counter() - t0)
sys.path.insert(0, sys.argv[2])
from harness import reference_kernel
for _ in range(3):
    t0 = time.perf_counter()
    reference_kernel()
    print(time.perf_counter() - t0)
"""

# Share of --seconds spent re-running the cheapest cases under another PYTHONHASHSEED.
REHASH_SHARE = 0.1


def measure_setup() -> tuple[float, float]:
    """(nominal, measured) median time of ``import arrops`` plus parser
    construction in fresh interpreters.

    Each probe rescales its own time by reference-kernel timings taken in the
    same process right after it.  The first probe is discarded: it may
    compile and cache the bytecode.
    """
    nominal, measured = [], []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        setup, *ref = (float(line) for line in out.stdout.split())
        measured.append(setup)
        nominal.append(setup * NOMINAL_REF_S / statistics.median(ref))
    return statistics.median(nominal[1:]), statistics.median(measured[1:])


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
    }


def src_lines() -> int:
    """Non-blank lines of the library's Python sources."""
    return sum(
        sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
        for path in sorted((SRC / "arrops").rglob("*.py"))
    )


def run_passes(cli, parser, cases, seconds: float, speed: HostSpeed, recorder=None):
    """Closed loop over whole passes.

    Returns the executions (case id, pass, start, wall, cpu), each case's
    output digest and the failures found by the checks.
    """
    from checks import check

    executions, digests, failures = [], {}, []
    start = perf_counter()
    passes = 0
    while True:
        began = perf_counter()
        for case in cases:
            speed.maybe_sample()
            if recorder is None:
                w0, c0 = perf_counter(), process_time()
                code, result, text = execute(cli, parser, case.argv)
                wall, cpu = perf_counter() - w0, process_time() - c0
            else:
                with recorder.case(len(executions)):
                    w0, c0 = perf_counter(), process_time()
                    code, result, text = execute(cli, parser, case.argv)
                    wall, cpu = perf_counter() - w0, process_time() - c0
            executions.append((case.id, passes, w0, wall, cpu))
            digest = hashlib.sha256(text.encode()).hexdigest()
            first = digests.setdefault(case.id, digest)
            problem = check(case, code, result)
            if problem is None and first != digest:
                problem = "output differs between passes"
            if problem is not None:
                failures.append({"case": case.id, "argv": case.argv, "problem": problem})
        passes += 1
        if perf_counter() - start + (perf_counter() - began) > seconds:
            break
    speed.sample()
    return executions, digests, failures


def rehash(workload: str, seed: int, cost: dict[str, float], digests: dict[str, str], budget: float) -> dict:
    """Re-run the cheapest cases under another PYTHONHASHSEED and compare output digests."""
    chosen, spent = [], 0.0
    for case_id in sorted(cost, key=cost.get):
        if chosen and spent + cost[case_id] > budget:
            break
        chosen.append(case_id)
        spent += cost[case_id]
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    out = subprocess.run(
        [sys.executable, str(HERE / "rehash.py"), workload, str(seed), ",".join(chosen)],
        capture_output=True, text=True, check=True, timeout=150,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
    )
    again = json.loads(out.stdout.splitlines()[-1])
    mismatched = sorted(cid for cid in chosen if again.get(cid) != digests[cid])
    return {"pythonhashseed": hash_seed, "checked": len(chosen), "of": len(cost), "mismatched": mismatched}


def timings(executions, factors) -> dict[str, float]:
    """End-to-end times from executions whose wall and cpu are multiplied by ``factors``."""
    pass_wall: dict[int, float] = {}
    pass_cpu: dict[int, float] = {}
    per_case: dict[str, list[float]] = {}
    for (case_id, pass_no, _, wall, cpu), (fw, fc) in zip(executions, factors):
        pass_wall[pass_no] = pass_wall.get(pass_no, 0.0) + wall * fw
        pass_cpu[pass_no] = pass_cpu.get(pass_no, 0.0) + cpu * fc
        per_case.setdefault(case_id, []).append(wall * fw)
    case_s = sorted(statistics.median(v) for v in per_case.values())
    return {
        "wall_s": statistics.median(pass_wall.values()),
        "cpu_s": statistics.median(pass_cpu.values()),
        "case_s.p50": statistics.median(case_s),
        "case_s.p90": statistics.quantiles(case_s, n=10, method="inclusive")[8],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["certify", "oracle", "sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    cli = import_cli()
    import spans
    import workloads

    setup = measure_setup() if not args.trace else None
    parser = cli._make_parser()
    cases = workloads.build(args.workload, args.seed)
    speed = HostSpeed()
    recorder = spans.Recorder() if args.trace else None
    if recorder is None:
        executions, digests, failures = run_passes(cli, parser, cases, args.seconds, speed)
    else:
        with recorder.installed():
            executions, digests, failures = run_passes(cli, parser, cases, args.seconds, speed, recorder)
    passes = executions[-1][1] + 1
    factors = [speed.factors(start, start + wall) for _, _, start, wall, _ in executions]

    if recorder is None:
        values = timings(executions, factors)
        raw = timings(executions, [(1.0, 1.0)] * len(executions))
        values["setup_s"], raw["setup_s"] = setup
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        values = recorder.summary(passes, [fw for fw, _ in factors])
        raw = recorder.summary(passes, [1.0] * len(executions))
    per_case_raw = {}
    for case_id, _, _, wall, _ in executions:
        per_case_raw.setdefault(case_id, []).append(wall)
    cost = {case_id: statistics.median(v) for case_id, v in per_case_raw.items()}
    hashes = rehash(args.workload, args.seed, cost, digests, REHASH_SHARE * args.seconds)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = len(executions)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "src_lines": src_lines(),
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "hash_recheck": hashes,
        "host_speed": {
            "nominal_ref_s": NOMINAL_REF_S,
            "ref_wall_median_s": statistics.median(speed.wall),
            "ref_samples": len(speed.wall),
        },
        "metrics": metrics,
        "measured": {m["name"]: raw[m["name"]] for m in wanted if m["name"] in raw},
        "cases": [
            {**case.to_json(), "wall_s": cost[case.id], "samples": len(per_case_raw[case.id]), "sha256": digests[case.id]}
            for case in cases
        ],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(info, indent=2) + "\n", encoding="utf-8")
    if recorder is not None:
        recorder.write(OUT / f"{stem}.spans.tsv", [case_id for case_id, *_ in executions])

    machine = info["machine"]
    print(f"arrops benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu_model']!r} python={machine['python']} "
          f"src_lines={info['src_lines']}")
    print(f"cases={len(cases)} passes={passes} attempted={attempted} failed={len(failures)} "
          f"fail_ratio={info['fail_ratio']:g} (1)")
    print(f"host speed: reference kernel median {info['host_speed']['ref_wall_median_s'] * 1e3:.2f} ms; "
          f"times are rescaled to {NOMINAL_REF_S * 1e3:g} ms, as measured in brackets")
    for name, metric in metrics.items():
        measured = f"  [{raw[name]:.6g}]" if raw.get(name, metric["value"]) != metric["value"] else ""
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}{measured}")
    print(f"case_s sample count: {len(cases)} cases x {passes} passes")
    print(f"output sha256 identical under PYTHONHASHSEED={hashes['pythonhashseed']} for "
          f"{hashes['checked'] - len(hashes['mismatched'])}/{hashes['checked']} re-run cases (of {len(cases)})")
    for failure in failures[:10]:
        print(f"FAILED {failure['case']}: {failure['problem']}", file=sys.stderr)
    print(f"record: {(OUT / stem).relative_to(ROOT)}.json")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
