"""Per-layer tracing, installed from outside the program.

``install`` replaces the functions listed in ``TARGETS`` with timing
wrappers: class attributes for methods, and every ``confpoly`` module
global bound to the original function for free functions (so names that
were imported with ``from ... import``, such as ``substitute_duality`` in
``duality``, are patched where they are looked up).  Kernels make millions
of calls, so each call adds to per-name counters instead of recording a
span.  Self time is a call's duration minus the time spent in wrapped
calls made from inside it.

The snapshot is a flat dict of additive numbers, so snapshots taken in
several processes can be summed before ``finalize`` derives the ratios.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

PRIMES = (2, 3, 5, 7)
SUITES = ("recursions", "series", "duality", "pointcount", "euler")

# metric prefix, module, attribute (Class.method or function), split.
# split "parent": calls and self time also per calling wrapped function.
# split "prime": self time also per field size q (the first argument).
TARGETS = (
    ("ffield.FieldPoly.divmod", "ffield", "FieldPoly.__divmod__", "parent"),
    ("ffield.FieldPoly.gcd", "ffield", "FieldPoly.gcd", None),
    ("ffield.is_squarefree", "ffield", "is_squarefree", None),
    ("ffield.count_ordered_configs", "ffield", "count_ordered_configs", "prime"),
    ("ffield.count_squarefree_coprime", "ffield", "count_squarefree_coprime", "prime"),
    ("ffield.squarefree_disagreements", "ffield", "squarefree_disagreements", "prime"),
    ("ffield.oracle_check", "ffield", "oracle_check", None),
    ("ring.LaurentPoly.mul", "ring", "LaurentPoly.__mul__", None),
    ("ring.LaurentPoly.add", "ring", "LaurentPoly.__add__", None),
    ("ring.TruncSeries.mul", "ring", "TruncSeries.__mul__", None),
    ("ring.TruncSeries.pow", "ring", "TruncSeries.__pow__", None),
    ("ring.TruncSeries.inverse", "ring", "TruncSeries.inverse", None),
    ("ring.substitute_duality", "ring", "substitute_duality", None),
    ("virtual.virtual_unordered", "virtual", "virtual_unordered", None),
    ("virtual.virtual_ordered", "virtual", "virtual_ordered", None),
    ("virtual.virtual_unordered_series", "virtual", "virtual_unordered_series", None),
    ("virtual.getzler_series_raw", "virtual", "getzler_series_raw", None),
    ("poincare.betti_unordered", "poincare", "betti_unordered", None),
    ("poincare.poincare_ordered", "poincare", "poincare_ordered", None),
    ("poincare.unordered_series", "poincare", "unordered_series", None),
    ("poincare.napolitano_step", "poincare", "napolitano_step", None),
    ("duality.check_duality", "duality", "check_duality", None),
    ("duality.euler_consistency", "duality", "euler_consistency", None),
    ("cli.main", "cli", "main", None),
)
DIVMOD_PARENTS = ("gcd", "squarefree_disagreements")
MODULES = ("ffield", "ring", "virtual", "poincare", "duality", "verify")


def metric_names() -> list[str]:
    """Every per-layer metric ``finalize`` reports, in report order."""
    names = []
    for prefix, _, _, split in TARGETS:
        names += [f"{prefix}.calls", f"{prefix}.self_s"]
        if split == "parent":
            for p in DIVMOD_PARENTS:
                names += [f"{prefix}.calls.{p}", f"{prefix}.self_s.{p}"]
        elif split == "prime":
            names += [f"{prefix}.self_s.q{q}" for q in PRIMES]
    names += [
        "ffield.monic_polys.yielded",
        "ring.LaurentPoly.mul.term_products",
        "virtual.virtual_unordered.useful_ratio",
        "combinatorics.pyramidal.hits",
        "combinatorics.pyramidal.misses",
        "combinatorics.stirling_first_unsigned.misses",
    ]
    for s in SUITES:
        names += [f"verify.suite_{s}.s", f"verify.suite_{s}.checks"]
    for m in MODULES:
        names += [f"{m}.self_s"] if m == "verify" else [f"{m}.calls", f"{m}.self_s"]
    names.append("trace.overhead_ratio")
    return names


class Tracer:
    """Aggregated counters for the wrapped functions of one process."""

    def __init__(self):
        self.counts: dict[str, float] = defaultdict(float)
        # one frame per active wrapped call: [metric prefix, child time]
        self.stack: list[list] = [["", 0.0]]
        self._cache_funcs = ()

    def _timed(self, prefix, fn, split, extra=None):
        counts, stack, clock = self.counts, self.stack, time.perf_counter
        calls_key, self_key = f"{prefix}.calls", f"{prefix}.self_s"

        def wrapper(*args, **kwargs):
            frame = [prefix, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                own = dt - frame[1]
                counts[calls_key] += 1
                counts[self_key] += own
                if split == "parent":
                    label = parent[0].rpartition(".")[2]
                    counts[f"{calls_key}.{label}"] += 1
                    counts[f"{self_key}.{label}"] += own
                elif split == "prime":
                    counts[f"{self_key}.q{args[0]}"] += own
                if extra is not None:
                    extra(counts, args)

        return wrapper

    def _suite(self, prefix, fn):
        """Time a suite while its generator is consumed, one span per item."""
        counts, stack, clock = self.counts, self.stack, time.perf_counter

        def consume(inner):
            while True:
                frame = [prefix, 0.0]
                parent = stack[-1]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    parent[1] += dt
                    counts[f"{prefix}.s"] += dt
                    counts[f"{prefix}.self_s"] += dt - frame[1]
                counts[f"{prefix}.checks"] += 1
                yield item

        def wrapper(*args, **kwargs):
            return consume(fn(*args, **kwargs))

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every target in the already importable ``confpoly`` package."""
        mods = {
            name: importlib.import_module(f"confpoly.{name}")
            for name in ("ffield", "ring", "virtual", "poincare", "duality", "verify", "cli")
        }
        everywhere = [importlib.import_module("confpoly"), *mods.values()]

        def replace(owners, original, wrapper):
            hits = 0
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        hits += 1
            if not hits:
                raise RuntimeError(f"nothing to wrap for {original!r}")

        extras = {
            "ring.LaurentPoly.mul": _count_term_products,
            "virtual.virtual_unordered": _count_expanded,
        }
        for prefix, module, attr, split in TARGETS:
            cls_name, _, name = attr.rpartition(".")
            if cls_name:
                cls = getattr(mods[module], cls_name)
                owners, original = [cls], vars(cls)[name]
            else:
                owners, original = everywhere, getattr(mods[module], name)
            replace(owners, original, self._timed(prefix, original, split, extras.get(prefix)))
        for s in SUITES:
            original = getattr(mods["verify"], f"suite_{s}")
            replace(everywhere, original, self._suite(f"verify.suite_{s}", original))
        original = mods["ffield"].monic_polys
        replace(everywhere, original, self._counted("ffield.monic_polys.yielded", original))
        comb = importlib.import_module("confpoly.combinatorics")
        self._cache_funcs = (comb.pyramidal, comb.stirling_first_unsigned)

    def snapshot(self) -> dict[str, float]:
        """Additive raw counters, including the caches' statistics."""
        out = dict(self.counts)
        pyramidal, stirling = self._cache_funcs
        info = pyramidal.cache_info()
        out["combinatorics.pyramidal.hits"] = info.hits
        out["combinatorics.pyramidal.misses"] = info.misses
        out["combinatorics.stirling_first_unsigned.misses"] = stirling.cache_info().misses
        return out


def _count_term_products(counts, args):
    a, b = args
    nb = len(b.support()) if hasattr(b, "support") else 1
    counts["ring.LaurentPoly.mul.term_products"] += len(a.support()) * nb


def _count_expanded(counts, args):
    # virtual_unordered(k, n) expands n + 1 series coefficients to return one
    counts["virtual.virtual_unordered.expanded"] += args[1] + 1


def merge(snapshots) -> dict[str, float]:
    total: dict[str, float] = defaultdict(float)
    for snap in snapshots:
        for key, value in snap.items():
            total[key] += value
    return total


def finalize(raw: dict[str, float], overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics from merged raw counters, named as ``metric_names``."""
    out = {}
    for name in metric_names():
        out[name] = raw.get(name, 0)
    expanded = raw.get("virtual.virtual_unordered.expanded", 0)
    out["virtual.virtual_unordered.useful_ratio"] = (
        raw.get("virtual.virtual_unordered.calls", 0) / expanded if expanded else 0.0
    )
    for m in MODULES:
        if m == "verify":
            prefixes = [f"verify.suite_{s}" for s in SUITES]
        else:
            prefixes = [p for p, mod, _, _ in TARGETS if mod == m]
            out[f"{m}.calls"] = sum(raw.get(f"{p}.calls", 0) for p in prefixes)
        out[f"{m}.self_s"] = sum(raw.get(f"{p}.self_s", 0) for p in prefixes)
    out["trace.overhead_ratio"] = overhead_ratio
    return out
