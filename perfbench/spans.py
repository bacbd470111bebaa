"""In-memory span recorder for the traced run.

The library has no tracing of its own, so the traced run wraps selected
public functions from the outside, at every name a caller uses to look
them up: a module-level function is replaced in each ``arrops`` module
that imported it (``arrops.verify.rank_int``, ``arrops.cli.build_basis``
...), and a method is replaced on its class (``Poly.exact_div``).  Each call
becomes a span ``[name, start, end, parent, execution]``; the harness opens
one ``case`` span per CLI invocation (numbered in run order), so every
layer span has a parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

CASE = "case"


def _saito_stats(rec: Recorder, args: tuple, result) -> None:
    rec.add("verify.saito_check.det_terms", len(result.det.terms))
    rec.peak("verify.saito_check.max_size", len(args[0]))
    rec.peak("verify.saito_check.det_degree", result.det.total_degree())


def _rank_stats(rec: Recorder, args: tuple, result) -> None:
    rows = args[0]
    rec.add("linalg.rank_int.entries", len(rows) * (len(rows[0]) if rows else 0))


def _flat_stats(rec: Recorder, args: tuple, result) -> None:
    rec.add("extension.flat_profiles.flats", len(result))


def _emit_stats(rec: Recorder, args: tuple, result) -> None:
    rec.add("cli.emit_report.bytes", len(result.encode()))


SUM_COUNTERS = (
    "verify.saito_check.det_terms",
    "linalg.rank_int.entries",
    "extension.flat_profiles.flats",
    "cli.emit_report.bytes",
)
PEAK_COUNTERS = ("verify.saito_check.max_size", "verify.saito_check.det_degree")

# (span name, defining module, attribute, optional hook adding counters from the call)
TARGETS = (
    ("verify.saito_check", "arrops.verify", "saito_check", _saito_stats),
    ("linalg.det_poly_matrix", "arrops.linalg", "det_poly_matrix", None),
    ("polynomial.exact_div", "arrops.polynomial", "Poly.exact_div", None),
    ("linalg.rank_int", "arrops.linalg", "rank_int", _rank_stats),
    ("linalg.nullspace", "arrops.linalg", "nullspace", None),
    ("linalg.rref", "arrops.linalg", "rref", None),
    ("verify.oracle_dim", "arrops.verify", "oracle_dim", None),
    ("freebasis.basis_2arr_lines", "arrops.freebasis", "basis_2arr_lines", None),
    ("freebasis.build_basis", "arrops.freebasis", "build_basis", None),
    ("extension.extend", "arrops.extension", "extend", None),
    ("extension.flat_profiles", "arrops.extension", "flat_profiles", _flat_stats),
    ("arrangement.parse_arrangement", "arrops.arrangement", "parse_arrangement", None),
    ("exponents.exp_3arr_closed", "arrops.exponents", "exp_3arr_closed", None),
    ("verify.check_identities", "arrops.verify", "check_identities", None),
    ("cli.emit_report", "arrops.cli", "emit_report", _emit_stats),
)


class Recorder:
    """Spans and counters of one traced run, kept in memory until the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.sums = dict.fromkeys(SUM_COUNTERS, 0)
        self.peaks = dict.fromkeys(PEAK_COUNTERS, 0)
        self._stack: list[int] = []
        self._execution = -1

    def add(self, name: str, value: int) -> None:
        self.sums[name] += value

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1, self._execution])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    @contextmanager
    def case(self, execution: int):
        self._execution = execution
        idx = self._open(CASE)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every binding of the target functions while the block runs."""
        undo = []
        for name, module_name, attr, hook in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = [mod for key, mod in sys.modules.items() if key == "arrops" or key.startswith("arrops.")]
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        undo.append((holder, key, original))
        try:
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def summary(self, passes: int, scale: list[float]) -> dict[str, float]:
        """Per-pass calls, total and self seconds and share of case time of every
        span name, per-pass counter sums and whole-run peaks.

        Durations of execution ``i`` are multiplied by ``scale[i]``.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        top = 0.0
        for i, (name, start, end, parent, execution) in enumerate(self.spans):
            k = scale[execution]
            calls[name] += 1
            total[name] += (end - start) * k
            self_time[name] += (end - start - child_time[i]) * k
            if parent >= 0 and self.spans[parent][0] == CASE:
                top += (end - start) * k
        case_time = total[CASE]
        out: dict[str, float] = {"trace.wall_s": case_time / passes, "trace.top_share": top / case_time}
        for name, _, _, _ in TARGETS:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.s"] = total[name] / passes
            out[f"{name}.self_s"] = self_time[name] / passes
            out[f"{name}.share"] = total[name] / case_time
        out.update({name: value / passes for name, value in self.sums.items()})
        out.update(self.peaks)
        return out

    def write(self, path, case_ids: list[str]) -> None:
        """One tab-separated line per span: name, start, end, parent index,
        execution number, case id (times as measured)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, execution in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{execution}\t{case_ids[execution]}\n")
