"""Shared plumbing: import arrops from this checkout, run one case the way the
CLI does, and track the host's speed with a reference kernel."""

from __future__ import annotations

import gc
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_cli():
    """Import ``arrops.cli`` from ``src/`` of this checkout, never from an installed copy."""
    package = SRC / "arrops"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of an arrops checkout")
    sys.path.insert(0, str(SRC))
    import arrops.cli

    if Path(arrops.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported arrops from {arrops.cli.__file__}, not from {package}")
    return arrops.cli


def execute(cli, parser, argv: list[str]) -> tuple[int, dict | None, str]:
    """Parse, run and emit one invocation like ``arrops.cli.main``; returns (exit code, result, stdout).

    Module attributes are looked up at call time so the traced run's wrappers apply.
    """
    args = parser.parse_args(argv)
    try:
        result, code = cli.run(args)
    except (cli.SaitoFailed, cli.IdentityViolated, cli.ZeroNormalizer):
        return cli.VERIFICATION_ERROR, None, ""
    except (cli.ArropsError, OSError):
        return cli.USER_ERROR, None, ""
    return code, result, cli.emit_report(result, args.format) + "\n"


# -- host-speed reference ------------------------------------------------------------
#
# Shared hosts change speed: on a 2-CPU Intel Xeon virtual machine (CPython
# 3.11) a fixed pure-Python loop ran 1.7x slower in some 8-second windows
# than in others, in CPU time as much as in wall time.  The run therefore
# times a fixed reference kernel between cases (at least every
# REF_INTERVAL_S) and rescales each case to a host on which the kernel takes
# NOMINAL_REF_S, using the kernel timings just before and just after the case.
# Over 10-second windows whose raw case times moved by 30 %, the rescaled
# times moved by 3 %.

NOMINAL_REF_S = 0.01
REF_INTERVAL_S = 0.25
REF_REPEATS = 3


def reference_kernel() -> int:
    """Fixed mix of Fraction, big-integer and dict work, like the library's inner loops."""
    acc = Fraction(0)
    table = {}
    x = 3
    for i in range(1, 2100):
        acc += Fraction(i % 89 + 1, i % 97 + 2)
        x = (x * 2654435761 + i) % (1 << 127)
        table[(i % 31, i % 37)] = x
    return acc.numerator % 7 + len(table)


class HostSpeed:
    """Timestamped reference-kernel timings taken through a run."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self) -> None:
        """Median of REF_REPEATS kernel timings, without the collector, so a
        large library heap cannot slow the kernel."""
        walls, cpus = [], []
        gc.disable()
        try:
            for _ in range(REF_REPEATS):
                w0, c0 = perf_counter(), process_time()
                reference_kernel()
                walls.append(perf_counter() - w0)
                cpus.append(process_time() - c0)
        finally:
            gc.enable()
        self.at.append(perf_counter())
        self.wall.append(sorted(walls)[REF_REPEATS // 2])
        self.cpu.append(sorted(cpus)[REF_REPEATS // 2])

    def maybe_sample(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= REF_INTERVAL_S:
            self.sample()

    def factors(self, start: float, end: float) -> tuple[float, float]:
        """(wall, cpu) factors from measured to nominal seconds for a span of time.

        Uses the mean of the last kernel timing before ``start`` and the first
        after ``end`` (the last one taken, if none follows).
        """
        before = max(bisect_right(self.at, start) - 1, 0)
        after = min(bisect_left(self.at, end), len(self.at) - 1)
        wall = (self.wall[before] + self.wall[after]) / 2
        cpu = (self.cpu[before] + self.cpu[after]) / 2
        return NOMINAL_REF_S / wall, NOMINAL_REF_S / cpu
