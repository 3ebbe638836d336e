"""In-memory span tracer and the statistics helpers of the benchmark.

The tracer wraps the public entry points of each ``diqkd`` layer under the
name its caller looks it up by (for example ``diqkd.protocol.outcomes_from_uniforms``
is what ``run_protocol`` calls), so nothing under ``src/`` changes.  Every
call records a span (name, start, end, parent); spans of one protocol run or
one CLI job share a group id.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    group: int  # shared by every span under one root span


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._groups = 0

    def wrap(self, fn, name: str, hook=None):
        """Return ``fn`` recording a span per call; ``hook(tracer, args, result)`` counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack:
                parent = self._stack[-1]
                group = self.spans[parent].group
            else:
                parent = -1
                self._groups += 1
                group = self._groups
            span = Span(name, time.perf_counter(), 0.0, parent, group)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self_times(self.spans)) if s.name == name)


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    # Rounded first so that, say, 99.9% of 10000 is rank 9990 and not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``th percentile."""
    return n - _rank(n, q)


def highest_reportable(n: int):
    """Highest of p99.9, p99, p90 and p50 with at least ten of ``n`` samples above it, or None."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if samples_beyond(n, q) >= 10:
            return q
    return None


# --- layer entry points -------------------------------------------------------


def _fft_size(h) -> int:
    # Padded length of the full convolution in hashing._gf2_toeplitz_apply.
    full = len(h.diagonals) + h.in_len - 1
    return 1 << (full - 1).bit_length()


def _on_apply(tr, args, result):
    h, x = args
    tr.counts["hashing.apply.in_bits"] += len(x)
    tr.counts["hashing.fft_points"] += _fft_size(h)


def _on_outcomes(tr, args, result):
    pmfs, uniforms = args
    tr.counts["run_array_bytes"] += pmfs.nbytes + uniforms.nbytes + result.nbytes


def _on_run(tr, args, result):
    params = args[0]
    tr.counts["protocol.runs"] += 1
    tr.counts["protocol.completed"] += result.abort is None
    tr.counts["protocol.pulses"] += params.pulse_pairs
    run_bytes = tr.counts.pop("run_array_bytes", 0) + sum(
        v.nbytes for v in vars(result).values() if hasattr(v, "nbytes")
    )
    tr.counts["protocol.array_bytes"] = max(tr.counts["protocol.array_bytes"], run_bytes)


def _on_to_json(tr, args, result):
    tr.counts["protocol.to_json.bytes"] += len(result)


def _on_feasibility(tr, args, result):
    tr.counts["squash.dykstra_iterations"] += result.iterations
    tr.counts[f"squash.nogo_{result.status}"] += 1


def _on_write(tr, args, result):
    tr.counts["cli.out_bytes"] += os.path.getsize(args[0])


def layer_targets():
    """(owner, attribute, span name, hook) for every traced entry point.

    The owner is the module or class through which the caller looks the
    function up, so the wrapper sits exactly at the layer boundary.
    """
    from diqkd import chsh, cli, linalg, protocol, squash
    from diqkd.hashing import ToeplitzHash

    return [
        (protocol, "run_protocol", "protocol.run_protocol", _on_run),
        (protocol, "outcomes_from_uniforms", "protocol.outcomes_from_uniforms", _on_outcomes),
        (protocol, "joint_outcome_pmf", "protocol.joint_outcome_pmf", None),
        (protocol.Transcript, "to_json", "protocol.to_json", _on_to_json),
        (protocol, "povm_noise_experiment", "protocol.povm_noise_experiment", None),
        (ToeplitzHash, "apply", "hashing.apply", _on_apply),
        (ToeplitzHash, "sample", "hashing.sample", None),
        (protocol, "finite_key_length", "rates.finite_key_length", None),
        (cli, "finite_key_length", "rates.finite_key_length", None),
        (cli, "main", "cli.main", None),
        (cli, "_write_json", "cli.write", _on_write),
        (cli, "_write_csv", "cli.write", _on_write),
        (cli, "squash_channel", "squash.squash_channel", None),
        (cli, "verify_squash_conditions", "squash.verify_squash_conditions", None),
        (cli, "single_party_squash_feasibility", "squash.single_party_squash_feasibility", _on_feasibility),
        (squash, "chsh_measurement", "chsh.chsh_measurement", None),
        (protocol, "chsh_measurement", "chsh.chsh_measurement", None),
        (cli, "chsh_measurement", "chsh.chsh_measurement", None),
        (squash, "min_eigenvalue", "linalg.min_eigenvalue", None),
        (chsh, "min_eigenvalue", "linalg.min_eigenvalue", None),
        (linalg, "min_eigenvalue", "linalg.min_eigenvalue", None),
        (squash, "adjoint_apply", "linalg.adjoint_apply", None),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore the originals."""
    saved = []
    try:
        for owner, attr, name, hook in layer_targets():
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, hook)))
            else:
                setattr(owner, attr, tracer.wrap(raw, name, hook))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


TIMED = [
    "protocol.outcomes_from_uniforms",
    "protocol.to_json",
    "protocol.povm_noise_experiment",
    "hashing.apply",
    "hashing.sample",
    "rates.finite_key_length",
    "squash.squash_channel",
    "squash.verify_squash_conditions",
    "squash.single_party_squash_feasibility",
    "chsh.chsh_measurement",
    "linalg.min_eigenvalue",
    "linalg.adjoint_apply",
    "cli.write",
]
CALLED = [
    "protocol.joint_outcome_pmf",
    "hashing.apply",
    "rates.finite_key_length",
    "squash.verify_squash_conditions",
    "chsh.chsh_measurement",
    "linalg.min_eigenvalue",
    "linalg.adjoint_apply",
]
COUNTED = [
    "protocol.to_json.bytes",
    "protocol.pulses",
    "protocol.array_bytes",
    "hashing.apply.in_bits",
    "hashing.fft_points",
    "squash.dykstra_iterations",
    "squash.nogo_feasible",
    "squash.nogo_infeasible",
    "squash.nogo_inconclusive",
    "cli.out_bytes",
]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced pass: times in s, the rest exact counts."""
    out = {"protocol.run_protocol.self_s": tracer.self_total("protocol.run_protocol")}
    out.update({f"{name}.s": tracer.total(name) for name in TIMED})
    out.update({f"{name}.calls": tracer.calls(name) for name in CALLED})
    out.update({name: tracer.counts[name] for name in COUNTED})
    runs = tracer.counts["protocol.runs"]
    out["protocol.completed_frac"] = tracer.counts["protocol.completed"] / runs if runs else 0.0
    return out
