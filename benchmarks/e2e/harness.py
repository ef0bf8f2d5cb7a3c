"""Machinery shared by the six workloads of the end-to-end benchmark.

The metric tables live in ``BENCHMARK.json`` at the repository root and
are read from there, so the names, units and bounds the harness prints
are by construction the ones the contract file declares.

Vocabulary (see README.md): an *op* is one LB episode or one full app
run; a workload is a closed loop of N ops, each on a fresh seed derived
from ``--seed``. The untraced run measures the end-to-end metrics; the
traced run drives the same ops through harness-side span recorders and
yields the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Protocol

import numpy as np

from repro.core._kernels import HAVE_NUMBA
from repro.core.metrics import imbalance
from repro.util.parallel import effective_cpu_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END: dict[str, dict[str, Any]] = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER: dict[str, dict[str, Any]] = {m["name"]: m for m in CONTRACT["per_layer"]}

#: An op that raises or runs past this many seconds counts as failed and
#: as missing every timing.
OP_TIMEOUT_S = 60.0

#: Ops of the traced run: each is driven once untraced and once traced on
#: the same inputs, so the traced driver is checked against the program
#: and the difference of the two walls is the tracing overhead.
TRACED_OPS = 2

#: Quality metrics: pure functions of the seed, so the self-check
#: requires them to repeat exactly between its two sets.
EXACT = ("phase_speedup_x", "migrated_frac", "final_imbalance", "failed_frac")


# -- statistics --------------------------------------------------------------


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (float(q1), float(q2), float(q3))


# -- spans -------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: ``{name, start, end, parent, op}``.

    ``parent`` is the index of the enclosing span (None at the root), so
    a layer's self time is its span minus its direct children.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.op: int | str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
        """Call ``fn`` inside a span; returns (result, seconds)."""
        with self.span(name) as record:
            result = fn(*args, **kwargs)
        return result, record["end"] - record["start"]

    def total(self, name: str, op: int | str | None) -> float:
        """Summed duration of the op's spans called ``name``."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["op"] == op
        )

    def self_time(self, name: str, op: int | str | None) -> float:
        """Summed duration of those spans minus their direct children."""
        total = 0.0
        for index, s in enumerate(self.spans):
            if s["name"] != name or s["op"] != op:
                continue
            children = sum(
                c["end"] - c["start"] for c in self.spans if c["parent"] == index
            )
            total += s["end"] - s["start"] - children
        return total


class TimedProxy:
    """Stands in for one of the program's collaborators and records a
    span around each named method; everything else passes through."""

    def __init__(self, target: Any, tracer: Tracer, spans: dict[str, str]) -> None:
        self._target = target
        self._tracer = tracer
        self._spans = spans

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._target, name)
        span_name = self._spans.get(name)
        if span_name is None:
            return attr

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self._tracer.span(span_name):
                return attr(*args, **kwargs)

        return traced


def micro_us(fn: Callable[[], Any], calls: int, repeats: int = 5) -> float:
    """Median microseconds per call of ``fn`` over ``repeats`` batches."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return median(samples)


# -- the reference kernel ----------------------------------------------------

#: Seconds the reference kernel takes on the reference box when the box
#: is quiet (the fastest tenth of 150 calls there).
REFERENCE_S = 0.37


class ReferenceKernel:
    """A fixed piece of work whose wall says how fast the box is right now.

    The pipeline's box is a shared microVM whose speed swings by tens of
    percent for minutes at a time (one identical ``phase_4k`` op took
    1.25-2.6 s over ten minutes, CPU time tracking wall), so a raw wall
    compares two moments of the machine more than two versions of the
    program. The kernel runs before every op; the run's timings are
    divided by ``median(kernel walls) / REFERENCE_S`` and so read as
    seconds of the quiet reference box. Half of it is interpreter-bound
    (list and float arithmetic, like the Fenwick loops), half
    memory-bound (bitmap merges, gathers, a sort, a bincount), because
    the program is both. It belongs to the benchmark and is frozen: a
    change to the program cannot move it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.bits = rng.integers(0, 256, size=(2048, 512), dtype=np.uint8)
        self.index = rng.integers(0, 2048, size=4096)
        self.values = rng.random(200_000)

    def __call__(self) -> float:
        start = time.perf_counter()
        tree, total = [0.0] * 4096, 0.0
        for i in range(400_000):
            slot = (i * 2654435761) & 4095
            tree[slot] += 0.5
            total += tree[slot] * 1e-3
        for _ in range(14):
            merged = self.bits[self.index] | self.bits[self.index[::-1]]
            counts = merged.sum(axis=1, dtype=np.float64)
            np.argsort(self.values, kind="stable")
            np.bincount(self.index, weights=counts, minlength=2048)
        return time.perf_counter() - start


# -- ops ---------------------------------------------------------------------


@dataclass
class Outcome:
    """What one op returned, in the terms the end-to-end metrics need."""

    wall_s: float  #: the timed region: exactly the program's public call
    final_imbalance: float
    migrated_frac: float
    speedup_x: float
    rank_iters: int  #: n_ranks x (inform+transfer iterations executed)
    #: What a second drive of the same inputs must reproduce exactly:
    #: per-iteration imbalances, or the app's modelled ``t_total``.
    signature: tuple[float, ...]
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)  #: traced ops only
    extra: dict[str, Any] = field(default_factory=dict)  #: state for microbench


class Workload(Protocol):
    name: str
    #: Wall seconds one op costs on the reference box, its untimed
    #: oracle/twin included; ``--seconds`` divided by this is N.
    nominal_op_s: float
    #: Fingerprint rows: sizes, resolved knowledge backend, ...
    meta: dict[str, Any]

    def prepare(self, seed: int) -> dict[str, Any]:
        """Generate one op's inputs (and run its oracle/twin); untimed."""

    def run(self, inputs: dict[str, Any], tracer: Tracer | None = None) -> Outcome:
        """Run and check one op; with a tracer, through the traced driver."""

    def microbench(self, inputs: dict[str, Any], outcome: Outcome, tracer: Tracer) -> dict[str, float]:
        """Per-call layer timings on the state of a finished traced op."""


def check_assignment(
    task_loads: np.ndarray,
    before: np.ndarray,
    after: np.ndarray,
    n_ranks: int,
) -> tuple[list[str], float, float]:
    """The checks every assignment-returning op must pass.

    Returns (failures, I_initial, I_final), the imbalances recomputed
    from the assignments themselves, not taken from the program.
    """
    failures: list[str] = []
    after = np.asarray(after)
    if after.shape != before.shape:
        return [f"task count changed: {before.shape} -> {after.shape}"], 0.0, 0.0
    if after.size and (after.min() < 0 or after.max() >= n_ranks):
        return ["assignment outside [0, n_ranks)"], 0.0, 0.0
    loads_before = np.bincount(before, weights=task_loads, minlength=n_ranks)
    loads_after = np.bincount(after, weights=task_loads, minlength=n_ranks)
    total = float(loads_before.sum())
    if abs(float(loads_after.sum()) - total) > 1e-9 * max(total, 1.0):
        failures.append("total load not conserved")
    initial, final = imbalance(loads_before), imbalance(loads_after)
    if final > initial:
        failures.append(f"imbalance rose: {initial} -> {final}")
    return failures, initial, final


def check_unmutated(label: str, snapshot: Any, current: Any) -> list[str]:
    """An op must not write to the inputs it was handed."""
    if isinstance(snapshot, np.ndarray):
        same = np.array_equal(snapshot, current)
    else:
        same = snapshot == current
    return [] if same else [f"input {label} was mutated"]


def speedup(initial_imbalance: float, final_imbalance: float) -> float:
    """Phase time is set by the heaviest rank: t ~ l_ave * (1 + I)."""
    return (1.0 + initial_imbalance) / (1.0 + final_imbalance)


def migrated(before: np.ndarray, after: np.ndarray) -> float:
    return float(np.count_nonzero(np.asarray(before) != np.asarray(after))) / max(len(before), 1)


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` (0 is the warm-up) of the run seeded ``seed``."""
    return (int(seed) % 2**31) * 1009 + index


def n_ops(workload: Workload, seconds: float) -> int:
    """N is fixed by ``--seconds`` at the nominal rate, not by the clock,
    so the same seed measures the same ops on every machine and commit."""
    return max(2, int(seconds / workload.nominal_op_s))


@contextmanager
def op_deadline(seconds: float) -> Iterator[None]:
    def on_alarm(signum: int, frame: Any) -> None:
        raise TimeoutError(f"op exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class OpRecord:
    untimed_s: float  #: generation + oracle/twin + state construction
    outcome: Outcome | None
    failures: list[str]


def drive_op(
    workload: Workload,
    seed: int,
    tracer: Tracer | None = None,
    inputs: dict[str, Any] | None = None,
) -> OpRecord:
    """Prepare (unless handed inputs), run and check one op; an
    exception or a timeout fails it."""
    start = time.perf_counter()
    try:
        with op_deadline(OP_TIMEOUT_S):
            if inputs is None:
                inputs = workload.prepare(seed)
            outcome = workload.run(inputs, tracer)
    except Exception as exc:  # boundary: the loop must go on and report
        return OpRecord(time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"])
    untimed = time.perf_counter() - start - outcome.wall_s
    return OpRecord(untimed, outcome, list(outcome.failures))


# -- the two runs ------------------------------------------------------------


def run_untraced(workload: Workload, seed: int, seconds: float, import_s: float) -> dict[str, Any]:
    """The end-to-end run: warm-up, then N timed ops, tracing off."""
    kernel = ReferenceKernel()
    warmup = drive_op(workload, op_seed(seed, 0))
    ops: list[OpRecord] = []
    reference: list[float] = []
    started = time.perf_counter()
    for index in range(1, n_ops(workload, seconds) + 1):
        # A box far slower than the reference one stops early rather
        # than overrun the driver's cap; ``attempted`` says so.
        if len(ops) >= 2 and time.perf_counter() - started > 2.0 * seconds:
            break
        reference.append(kernel())
        ops.append(drive_op(workload, op_seed(seed, index)))

    good = [op.outcome for op in ops if op.outcome is not None and not op.failures]
    # Timings as measured, then in seconds of the quiet reference box.
    slowdown = median(reference) / REFERENCE_S
    samples: dict[str, list[float]] = {
        "episode_wall_s": [o.wall_s / slowdown for o in good],
        "rank_iters_per_s": [o.rank_iters / o.wall_s * slowdown for o in good],
        "final_imbalance": [o.final_imbalance for o in good],
        "phase_speedup_x": [o.speedup_x for o in good],
        "migrated_frac": [o.migrated_frac for o in good],
    }
    # What timing noise remains is one-sided, so timings are medians.
    # The quality metrics are pure functions of the seed; their only
    # spread is between seeds, which the mean averages out best.
    values = {
        name: (statistics.fmean(vals) if name in EXACT else median(vals))
        for name, vals in samples.items()
        if vals
    }
    if good:
        values["episode_wall_raw_s"] = values["episode_wall_s"] * slowdown
    values["machine_slowdown_x"] = slowdown
    # Set-up is paid once per process (import, warm-up op) plus once per
    # op (generation, oracle/twin); the per-op part is sampled N+1 times.
    warm_wall = warmup.outcome.wall_s if warmup.outcome is not None else 0.0
    untimed = median([op.untimed_s for op in [warmup, *ops]])
    values["setup_s"] = (import_s + untimed + warm_wall) / slowdown
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["failed_frac"] = (len(ops) - len(good)) / len(ops)
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "failures": [f for op in [warmup, *ops] for f in op.failures],
        "samples": len(good),
        "values": values,
        "quartiles": {name: quartiles(vals) for name, vals in samples.items() if vals},
        "op_walls_raw_s": [o.wall_s for o in good],
        "reference_walls_s": reference,
    }


def run_traced(workload: Workload, seed: int) -> dict[str, Any]:
    """The per-layer run: each op once untraced, once through the spans,
    on the same inputs, so the traced driver is checked against the
    program and the difference of the walls is the tracing overhead."""
    tracer = Tracer()
    drive_op(workload, op_seed(seed, 0))  # warm-up, as in the untraced run
    failures: list[str] = []
    failed = 0
    plain_walls: list[float] = []
    traced: list[Outcome] = []
    inputs = None
    for index in range(1, TRACED_OPS + 1):
        try:
            inputs = workload.prepare(op_seed(seed, index))
        except Exception as exc:  # boundary: report, do not abort the run
            failures.append(f"prepare {index}: {type(exc).__name__}: {exc}")
            failed += 1
            continue
        plain = drive_op(workload, op_seed(seed, index), inputs=inputs)
        tracer.op = index
        spanned = drive_op(workload, op_seed(seed, index), tracer, inputs)
        op_failures = plain.failures + spanned.failures
        if plain.outcome is not None and spanned.outcome is not None:
            plain_walls.append(plain.outcome.wall_s)
            traced.append(spanned.outcome)
            if spanned.outcome.signature != plain.outcome.signature:
                op_failures.append(f"traced op {index} did not reproduce the untraced op")
        failures += op_failures
        failed += bool(op_failures)

    layers: dict[str, float] = {}
    if traced:
        for name in traced[0].layers:
            layers[name] = median([o.layers[name] for o in traced])
        tracer.op = "micro"
        layers.update(workload.microbench(inputs, traced[-1], tracer))
        base = median(plain_walls)
        layers["obs.trace_overhead_frac"] = (median([o.wall_s for o in traced]) - base) / base
    unknown = sorted(set(layers) - set(PER_LAYER))
    if unknown:
        raise KeyError(f"layer metrics not declared in BENCHMARK.json: {unknown}")

    RESULTS.mkdir(exist_ok=True)
    trace = {"workload": workload.name, "seed": seed, "spans": tracer.spans}
    (RESULTS / f"trace_{workload.name}.json").write_text(json.dumps(trace) + "\n", encoding="utf-8")
    return {
        "attempted": TRACED_OPS,
        "failed": failed,
        "failures": failures,
        "samples": len(traced),
        "values": layers,
        "quartiles": {},
    }


def contract_metrics(
    values: dict[str, float], declared: dict[str, dict[str, Any]], default: float | None
) -> dict[str, Any]:
    """The ``metrics`` object of the contract's result line: exactly the
    declared names, ``default`` where the run measured none."""
    return {
        name: {"value": values.get(name, default), "unit": spec["unit"]}
        for name, spec in declared.items()
    }


# -- fingerprint -------------------------------------------------------------


def fingerprint(seed: int) -> dict[str, Any]:
    """Where a row came from; rows with different fingerprints are not comparable."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "commit": commit or "unknown",
        "effective_cpu_count": effective_cpu_count(),
        "numba": HAVE_NUMBA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "seed": seed,
        "argv": sys.argv[1:],
    }
