"""The confpoly benchmark: end-to-end CLI runs and a traced per-layer run.

Run from the repository root, against ``src/`` with no install:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 1

A run repeats whole passes of its workload for about ``--seconds`` and
reports medians over passes.  Times are reported at the reference pace of
pace.py: the host's speed swings by up to 2x, and a sampler in the program's
process measures by how much.  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.  Every operation's output is checked; the
last stdout line is one JSON object per the BENCHMARK.json contract, and
the exit code is 1 if any check failed.  README.md says why each workload
exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import layers
import pace
from worker import PACE_MARK, TRACE_MARK

ROOT = Path(__file__).resolve().parent.parent
HERE = str(Path(__file__).resolve().parent)
WORKER = str(Path(HERE) / "worker.py")
PY = sys.executable

SETUP_SPAWNS = 6  # before the passes and after them
SETUP_BETWEEN = 2  # between rounds of passes, so the samples span the run
QUERY_REQUESTS = 240  # 24 per series family, 10 per table (space, kind, format)
K_MAX, N_MAX = 32, 64  # the CLI's limits

# suite arguments -> passed cells recorded at the defaults/limits used here
VERIFY_DEFAULT = ((("verify", "--suite", "all"), 1788),)
VERIFY_FORMULA = tuple(
    (("verify", suite, "--max-k", "16", "--max-n", "32"), cells)
    for suite, cells in (("series", 3519), ("duality", 1122), ("euler", 1122))
)

SERIES_FAMILIES = {
    "standard-unordered": ("unordered", "standard"),
    "standard-ordered": ("ordered", "standard"),
    "virtual-unordered": ("unordered", "virtual"),
    "virtual-unordered-raw": ("unordered", "virtual"),
    "virtual-ordered": ("ordered", "virtual"),
}
TABLE_FORMATS = ("csv", "json", "latex")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = child_env()


def setup_samples(count: int, warm: bool = False) -> list[float]:
    """Times from spawning an interpreter until confpoly.cli is imported, at
    the reference pace, which the child measures just after the import.

    With ``warm``, a first spawn only warms the bytecode cache and is not
    counted."""
    code = (
        "import confpoly.cli, time; t = time.perf_counter(); import sys; "
        "sys.path.insert(0, sys.argv[1]); import pace; print(t, pace.loop_seconds(9))"
    )
    samples = []
    for i in range(count + warm):
        t0 = time.perf_counter()
        done = subprocess.run(
            [PY, "-c", code, HERE], cwd=ROOT, env=ENV, capture_output=True, text=True
        )
        if done.returncode:
            sys.exit(f"perfbench: cannot import confpoly.cli:\n{done.stderr}")
        if i or not warm:
            imported, loop_s = map(float, done.stdout.split())
            samples.append((imported - t0) * pace.REFERENCE_S / loop_s)
    return samples


@dataclass
class Pass:
    latencies: list[float]  # seconds per operation; at the reference pace if untraced
    raw_s: float  # the operations' measured seconds, summed
    rss_mb: float
    failed: int
    slowdown: Optional[float]  # host pace over the pass; untraced passes only
    trace: Optional[dict[str, float]]

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_process(argv: list[str]) -> tuple[str, int, float, float, float]:
    """Output, exit code, start and end on ``perf_counter`` and peak RSS (MB)
    of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out.decode(), proc.returncode, t0, t1, usage.ru_maxrss / 1024


class VerifyWorkload:
    """One CLI process per verify command; a pass runs every command once."""

    def __init__(self, commands):
        self.commands = commands

    def describe(self) -> str:
        return f"processes/pass={len(self.commands)}"

    def run_pass(self, traced: bool, index: int) -> Pass:
        latencies, raw, slowdowns, rss, failed, snaps = [], 0.0, [], 0.0, 0, []
        for argv, cells in self.commands:
            cmd = [PY, WORKER, "cli", "--trace" if traced else "--pace", *argv]
            out, rc, t0, t1, peak = run_process(cmd)
            out, mark, rest = out.rpartition(TRACE_MARK if traced else PACE_MARK)
            if not mark:
                sys.exit(f"perfbench: no {'trace' if traced else 'pace'} from "
                         f"{' '.join(argv)}:\n{rest[-2000:]}")
            payload, _, after = rest.partition("\n")  # a traceback may follow
            out += after
            if traced:
                snaps.append(json.loads(payload))
                latencies.append(t1 - t0)
            else:
                samples = json.loads(payload)
                latencies.append(pace.at_reference_pace(samples, t0, t1))
                slowdowns.append(pace.slowdown(samples, t0, t1))
            raw += t1 - t0
            rss = max(rss, peak)
            if not verify_passed(out, rc, cells):
                failed += 1
                print(f"FAILED: {' '.join(argv)} (exit {rc})\n{out[-2000:]}", file=sys.stderr)
        return Pass(
            latencies, raw, rss, failed,
            None if traced else statistics.median(slowdowns),
            layers.merge(snaps) if traced else None,
        )


def verify_passed(out: str, rc: int, cells: int) -> bool:
    """Exit 0, ``result: PASS`` and exactly the recorded number of passed cells."""
    summary = re.search(r"^summary: \S+ passed=(\d+) failed=(\d+)$", out, re.M)
    return (
        rc == 0
        and re.search(r"^result: PASS$", out, re.M) is not None
        and summary is not None
        and int(summary[1]) == cells
        and int(summary[2]) == 0
    )


# -- query-mix: requests and their closed-form checks -------------------


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    space: str
    kind: str
    k: int
    n: int
    shape: str  # "series" or a table format


def _lattice(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """``count`` (K, N) pairs: a Latin hypercube on 0..K_MAX x 0..N_MAX.

    Pair i takes N from the i-th of ``count`` equal slices of 0..N_MAX and
    K from slice (a * i) mod count of 0..K_MAX, with ``a`` the multiplier
    coprime to ``count`` nearest to 0.618 * count, so the pairs fill the
    square evenly.  The seed picks each value inside its slice.  Each of
    K and N stays uniform over its range, and every seed covers the same
    slices, so runs with different seeds are comparable."""
    a = min(
        (m for m in range(1, count + 1) if math.gcd(m, count) == 1),
        key=lambda m: abs(m - 0.618 * count),
    )

    def pick(slice_: int, hi: int) -> int:
        lo = (hi + 1) * slice_ // count
        return rng.randrange(lo, max(lo + 1, (hi + 1) * (slice_ + 1) // count))

    return [(pick(a * i % count, K_MAX), pick(i, N_MAX)) for i in range(count)]


def query_stream(seed: int, index: int, size: int = QUERY_REQUESTS) -> list[Request]:
    """Stream ``index`` of ``seed``: half ``series`` requests spread evenly
    over the families, half ``table betti`` spread evenly over (space, kind,
    format), in seeded order."""
    rng = random.Random(f"{seed}:{index}")
    series = [
        ("series", space, kind, ("series", "--family", fam))
        for fam, (space, kind) in SERIES_FAMILIES.items()
    ]
    tables = [
        (fmt, space, kind, ("table", "betti", "--space", space, "--kind", kind, "--format", fmt))
        for space in ("unordered", "ordered")
        for kind in ("standard", "virtual")
        for fmt in TABLE_FORMATS
    ]
    requests = []
    for half in (series, tables):
        for shape, space, kind, head in half:
            size_flag = "--order" if shape == "series" else "--max-n"
            for k, n in _lattice(rng, size // 2 // len(half)):
                argv = (*head, "-k", str(k), size_flag, str(n))
                requests.append(Request(argv, space, kind, k, n, shape))
    rng.shuffle(requests)
    return requests


def value_at_one(space: str, kind: str, k: int, n: int) -> int:
    """The polynomial for (space, kind, k, n) at x = 1, by closed forms
    that share nothing with confpoly."""
    if space == "ordered":
        sign = 1 if kind == "standard" else -1
        return math.prod(1 + sign * (k + j) for j in range(n))
    if kind == "standard":
        return math.comb(n + k, n) + (math.comb(n + k - 2, n - 2) if n >= 2 else 0)
    # generalized binomial C(1 - k, n): the y^n coefficient of (1 + y)^(1 - k)
    return math.prod(1 - k - i for i in range(n)) // math.factorial(n)


_TERM = re.compile(r"([+-]?)(\d*)(x(?:\^\d+)?)?")


def poly_at_one(text: str) -> int:
    """Value at x = 1 of a rendered polynomial such as ``x^4-3x^2+2``."""
    if not text:
        raise ValueError("empty polynomial")
    total, pos = 0, 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not (m[2] or m[3]):
            raise ValueError(f"not a polynomial: {text!r}")
        total += (-1 if m[1] == "-" else 1) * (int(m[2]) if m[2] else 1)
        pos = m.end()
    return total


_LATEX_ROW = re.compile(r"^(\d+) & \$(.*)\$(?: \\\\)?$")


def answer_values(req: Request, out: str) -> list[int]:
    """The answer's polynomials at x = 1, for n = 0..N in order."""
    lines = out.splitlines()
    if req.shape == "series" or (req.shape == "csv" and req.kind == "virtual"):
        return [poly_at_one(line) for line in lines]
    if req.shape == "csv":
        return [sum(int(r) for r in line.split(",")) for line in lines]
    if req.shape == "json":
        values = []
        for n, entry in enumerate(json.loads(out)):
            value = poly_at_one(entry["poly"])
            parts = entry["ranks"] if req.kind == "standard" else entry["coeffs"]
            if (entry["k"], entry["n"]) != (req.k, n) or sum(map(int, parts)) != value:
                raise ValueError(f"inconsistent json entry {n}")
            values.append(value)
        return values
    rows = [_LATEX_ROW.match(line) for line in lines[3:-1]]
    if lines[:1] != [r"\begin{tabular}{r|l}"] or lines[-1:] != [r"\end{tabular}"]:
        raise ValueError("latex table frame missing")
    if not all(rows) or [int(r[1]) for r in rows] != list(range(len(rows))):
        raise ValueError("malformed latex rows")
    return [poly_at_one(r[2]) for r in rows]


def answer_ok(req: Request, reply: dict) -> bool:
    if reply.get("rc") != 0:
        return False
    try:
        got = answer_values(req, reply["out"])
    except (ValueError, KeyError, TypeError):
        return False
    return got == [value_at_one(req.space, req.kind, req.k, n) for n in range(req.n + 1)]


class QueryMix:
    """Closed loop, one client: each request waits for the previous reply.

    A pass sends a whole stream to a fresh worker process, so every pass
    starts with the program's caches as cold as a new CLI user's.  Each
    round of passes gets a stream of its own, so a run's medians cover
    several draws from the seed rather than one."""

    def __init__(self, seed: int):
        self.seed = seed

    def describe(self) -> str:
        return f"requests/pass={QUERY_REQUESTS} (one stream per round) closed loop, 1 client"

    def run_pass(self, traced: bool, index: int) -> Pass:
        requests = query_stream(self.seed, index)
        cmd = [PY, WORKER, "serve", "--trace" if traced else "--pace"]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        spans, failed = [], 0
        with proc.stdin, proc.stdout:
            for req in requests:
                t0 = time.perf_counter()
                proc.stdin.write(json.dumps(req.argv) + "\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
                spans.append((t0, time.perf_counter()))
                if not line:
                    sys.exit(f"perfbench: worker exited during {' '.join(req.argv)}")
                reply = json.loads(line)
                if not answer_ok(req, reply):
                    failed += 1
                    print(f"FAILED: {' '.join(req.argv)}\n{reply.get('error', '')}", file=sys.stderr)
            proc.stdin.write("null\n")
            proc.stdin.flush()
            final = json.loads(proc.stdout.readline())
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        raw = sum(t1 - t0 for t0, t1 in spans)
        if traced:
            return Pass([t1 - t0 for t0, t1 in spans], raw, usage.ru_maxrss / 1024, failed,
                        None, final["trace"])
        samples = final["pace"]
        latencies = [pace.at_reference_pace(samples, t0, t1) for t0, t1 in spans]
        slowdown = pace.slowdown(samples, spans[0][0], spans[-1][1])
        return Pass(latencies, raw, usage.ru_maxrss / 1024, failed, slowdown, None)


# -- measuring ----------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it, and its label.

    With 10 samples or fewer, the slowest sample."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], f"max of {count}"
    return ordered[count - 11], f"p{100 * (count - 10) / count:.1f} of {count}, 10 beyond"


def measure(
    workload, traced: bool, deadline: float, setup: list[float]
) -> tuple[list[Pass], list[Pass]]:
    """Whole passes (untraced, each followed by a traced one when tracing)
    until about ``deadline`` on the ``perf_counter`` clock; at least one of
    each.  Another round starts only if it should end no later than half a
    round after the deadline, so the run keeps to its time even when one
    pass takes a large share of it.  Between rounds, set-up samples are
    added to ``setup``."""
    plain, with_trace = [], []
    start = time.perf_counter()
    while True:
        plain.append(workload.run_pass(False, len(plain)))
        if traced:
            with_trace.append(workload.run_pass(True, len(with_trace)))
        now = time.perf_counter()
        per_round = (now - start) / len(plain)
        if now + per_round / 2 > deadline:
            return plain, with_trace
        setup.extend(setup_samples(SETUP_BETWEEN))


def median_of(passes: list[Pass], value) -> float:
    return statistics.median(value(p) for p in passes)


def run_workload(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> bool:
    workload = QueryMix(seed) if name == "query-mix" else VerifyWorkload(
        VERIFY_DEFAULT if name == "verify-default" else VERIFY_FORMULA
    )
    # set-up is sampled before, between and after the passes, to span the run;
    # the passes get the run's time less that of the second sampling
    start = time.perf_counter()
    setup = setup_samples(SETUP_SPAWNS, warm=True)
    reserve = time.perf_counter() - start
    plain, with_trace = measure(workload, traced, start + seconds - reserve, setup)
    setup_s = statistics.median(setup + setup_samples(SETUP_SPAWNS))
    everything = plain + with_trace
    attempted = sum(len(p.latencies) for p in everything)
    failed = sum(p.failed for p in everything)
    _, tail_label = tail(plain[0].latencies)
    print(f"workload={name} seed={seed} {workload.describe()} passes={len(plain)} "
          f"traced_passes={len(with_trace)} tail={tail_label}")
    print("pass wall_s at reference pace: " + " ".join(f"{p.wall_s:.3f}" for p in plain))
    print("pass wall_s as measured:       " + " ".join(f"{p.raw_s:.3f}" for p in plain))
    print("host slowdown:                 " + " ".join(f"{p.slowdown:.3f}" for p in plain))
    print(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.4f}")
    if traced:
        overhead = median_of(with_trace, lambda p: p.raw_s) / median_of(plain, lambda p: p.raw_s)
        per_pass = [layers.finalize(p.trace, overhead) for p in with_trace]
        values = {m: statistics.median(pp[m] for pp in per_pass) for m in layers.metric_names()}
        values["host.slowdown"] = median_of(plain, lambda p: p.slowdown)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": median_of(plain, lambda p: p.wall_s),
            "latency_p50_ms": 1000 * median_of(plain, lambda p: statistics.median(p.latencies)),
            "latency_tail_ms": 1000 * median_of(plain, lambda p: tail(p.latencies)[0]),
            "peak_rss_mb": median_of(plain, lambda p: p.rss_mb),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(values) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    for metric in units:
        print(f"  {metric} = {values[metric]:.6g} {units[metric]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    print(json.dumps(result), flush=True)
    return failed == 0


WORKLOADS = ("verify-default", "verify-formula", "query-mix")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True, help="seeds the query-mix stream")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "confpoly" / "cli.py").is_file() or not spec_path.is_file():
        sys.exit(f"perfbench: no confpoly sources or BENCHMARK.json under {ROOT}")
    spec = json.loads(spec_path.read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        ok = run_workload(name, args.seed, args.seconds, bool(args.trace), spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
