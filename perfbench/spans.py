"""Per-layer spans and counts, taken from outside the package by wrapping
public functions and methods of curvealg's modules.

A span's total time counts only its outermost call, so re-entry (rho_embed
calling rho_monomial, basis calling tuple_keys) is not counted twice; its
self time is its duration minus the time of the traced calls it made.
"""

from __future__ import annotations

import functools
import sys
import time
import types
import weakref
from collections import Counter, defaultdict

from curvealg import ainfinity, curves, hochschild, linalg, poly, quiver

# (span, owner, attribute).  A module-level function is replaced in every
# curvealg module that imported it by name.
TARGETS = (
    ("quiver.build_ew", quiver, "build_ew"),
    ("hochschild.basis", hochschild.HochschildComplex, "basis"),
    ("hochschild.basis", hochschild.HochschildComplex, "tuple_keys"),
    ("hochschild.basis", hochschild.UnnormalizedComplex, "basis"),
    ("hochschild.basis", hochschild.UnnormalizedComplex, "tuple_keys"),
    ("hochschild.assemble", hochschild.HochschildComplex, "delta_columns"),
    ("hochschild.oracle_assemble", hochschild.UnnormalizedComplex, "delta_columns"),
    ("linalg.rank", linalg, "rank_of_columns"),
    ("linalg.solve", linalg, "solve"),
    ("ainfinity.complement_data", ainfinity, "complement_data"),
    ("ainfinity.gauge_act", ainfinity, "gauge_act"),
    ("ainfinity.gauge_compose", ainfinity, "gauge_compose"),
    ("ainfinity.gauge_inverse", ainfinity, "gauge_inverse"),
    ("ainfinity.normalize", ainfinity, "normalize"),
    ("poly.normal_form", poly.RelationSystem, "normal_form"),
    ("curves.rho", curves, "rho_monomial"),
    ("curves.rho", curves, "rho_embed"),
    ("curves.verify_basis", curves, "verify_basis"),
)


class Tracer:
    """Accumulates per-span calls, total and self time, and named counts."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._open = Counter()     # span -> calls of it now running
        self._stack = []           # [start, time of traced children]
        self._seen_bases = weakref.WeakKeyDictionary()
        self._installed = []

    def wrap(self, span, fn):
        count = {"hochschild.basis": self._count_cochains,
                 "hochschild.assemble": self._count_delta_nnz,
                 "hochschild.oracle_assemble": self._count_delta_nnz,
                 "linalg.rank": self._count_rank_columns,
                 "poly.normal_form": self._count_monomials}.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            self._open[span] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                self._stack.pop()
                self._open[span] -= 1
                if self._stack:
                    self._stack[-1][1] += dur
                if not self._open[span]:
                    self.total[span] += dur
                self.self_time[span] += dur - frame[1]
                self.calls[span] += 1
            if count is not None:
                count(fn, args, result)
            return result
        return traced

    # -- counts taken at the layer boundaries ---------------------------------

    def _count_cochains(self, fn, args, result):
        if fn.__name__ != "basis":
            return
        cx, s, t = args
        seen = self._seen_bases.setdefault(cx, set())
        if (s, t) not in seen:
            seen.add((s, t))
            self.counts["hochschild.cochains"] += len(result)

    def _count_delta_nnz(self, fn, args, result):
        self.counts["hochschild.delta_nnz"] += sum(len(col) for col in result)

    def _count_rank_columns(self, fn, args, result):
        self.counts["linalg.rank_columns"] += len(args[0])
        if self._open["curves.verify_basis"]:
            self.counts["curves.rank_columns"] += len(args[0])

    def _count_monomials(self, fn, args, result):
        # verify_basis reduces every monomial it checks exactly once.
        if self._open["curves.verify_basis"]:
            self.counts["curves.monomials"] += 1

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "curvealg" or name.startswith("curvealg.")]
        for span, owner, attr in TARGETS:
            original = getattr(owner, attr)
            traced = self.wrap(span, original)
            for o in modules if isinstance(owner, types.ModuleType) else [owner]:
                for name, value in list(vars(o).items()):
                    if value is original:
                        setattr(o, name, traced)
                        self._installed.append((o, name, original))

    def uninstall(self):
        for o, name, original in reversed(self._installed):
            setattr(o, name, original)
        self._installed.clear()

    def snapshot(self):
        """Current per-layer metrics (cumulative since install)."""
        out = {}
        for span in ("quiver.build_ew", "hochschild.basis", "hochschild.assemble",
                     "hochschild.oracle_assemble", "linalg.rank", "linalg.solve",
                     "ainfinity.complement_data", "poly.normal_form", "curves.rho",
                     "curves.verify_basis"):
            out[span + "_s"] = self.total[span]
        for span in ("ainfinity.gauge_act", "ainfinity.gauge_compose",
                     "ainfinity.gauge_inverse", "ainfinity.normalize"):
            out[span + "_s"] = self.total[span]
            out[span + "_self_s"] = self.self_time[span]
        out["hochschild.cochains"] = self.counts["hochschild.cochains"]
        out["hochschild.delta_nnz"] = self.counts["hochschild.delta_nnz"]
        out["linalg.rank_calls"] = self.calls["linalg.rank"]
        out["linalg.rank_columns"] = self.counts["linalg.rank_columns"]
        out["linalg.solve_calls"] = self.calls["linalg.solve"]
        out["poly.normal_form_calls"] = self.calls["poly.normal_form"]
        out["curves.rank_columns"] = self.counts["curves.rank_columns"]
        out["curves.monomials"] = self.counts["curves.monomials"]
        return out
