"""Spans and counters recorded around the calls into each sqcka module.

The tracer wraps public entry points from outside the package: every
module of ``sqcka`` that holds a reference to a traced function (its
defining module, and any module that bound it with ``from .x import f``)
gets the wrapper, so calls are seen whichever name the caller looks up.
Classes are traced through their ``__init__``.

Each span records its name, start, end and the index of its parent span.
Spans stay in memory until :meth:`Tracer.write_spans`; a span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import defaultdict

#: (defining module, attribute, span name).  Several attributes may share a
#: span name; their self times then add up under that name.
SPANS = (
    ("sqcka._kernels", "apply_matrix", "kernels.apply_matrix"),
    ("sqcka._kernels", "axis_probabilities", "kernels.axis_probabilities"),
    ("sqcka.qmath", "StateVector", "qmath.StateVector"),
    ("sqcka.qmath", "apply_on_subsystems", "qmath.apply_on_subsystems"),
    ("sqcka.qmath", "subsystem_probabilities", "qmath.subsystem_probabilities"),
    ("sqcka.qmath", "tensor", "qmath.tensor"),
    ("sqcka.qmath", "conditional_entropy", "qmath.conditional_entropy"),
    ("sqcka.attacks", "validate_gram", "attacks.validate_gram"),
    ("sqcka.attacks", "depolarizing_attack", "attacks.depolarizing_attack"),
    ("sqcka.attacks", "load_attack_file", "attacks.load_attack_file"),
    ("sqcka.protocol", "expand_theta_schedule", "protocol.expand_theta_schedule"),
    ("sqcka.protocol", "RoundSampler", "protocol.RoundSampler"),
    ("sqcka.protocol", "run_session", "protocol.run_session"),
    ("sqcka.protocol", "run_round_exact", "protocol.run_round_exact"),
    ("sqcka.protocol", "round_statistics", "protocol.round_statistics"),
    ("sqcka.estimation", "estimate_p_ghz", "estimation.estimators"),
    ("sqcka.estimation", "estimate_branch_norms", "estimation.estimators"),
    ("sqcka.estimation", "estimate_re_overlap", "estimation.estimators"),
    ("sqcka.estimation", "estimate_channel_conditionals", "estimation.estimators"),
    ("sqcka.estimation", "bob_disagreement_rates", "estimation.estimators"),
    ("sqcka.estimation", "hoeffding_radius", "estimation.estimators"),
    ("sqcka.estimation", "tally_to_text", "estimation.tally_to_text"),
    ("sqcka.keyrate", "pairing_maximize", "keyrate.pairing_maximize"),
    ("sqcka.keyrate", "exact_entropy_oracle", "keyrate.exact_entropy_oracle"),
    ("sqcka.keyrate", "depolarizing_keyrate", "keyrate.depolarizing_keyrate"),
    ("sqcka.cli", "find_rate_crossing", "cli.find_rate_crossing"),
    ("sqcka.cli", "main", "cli.command"),
)

#: Private functions that are counted but get no span, so that their time
#: stays in the caller's self time.
COUNTED = (
    ("sqcka.keyrate", "_plan_value"),
    ("sqcka.keyrate", "_two_opt"),
)

#: Per-layer metrics, in report order: (name, unit, better).
METRICS = (
    ("kernels.apply_matrix.calls", "count", "lower"),
    ("kernels.apply_matrix.self_s", "s", "lower"),
    ("kernels.apply_matrix.bytes", "B-computed", "lower"),
    ("kernels.axis_probabilities.calls", "count", "lower"),
    ("kernels.axis_probabilities.self_s", "s", "lower"),
    ("kernels.axis_probabilities.bytes", "B-computed", "lower"),
    ("qmath.StateVector.calls", "count", "lower"),
    ("qmath.StateVector.self_s", "s", "lower"),
    ("qmath.apply_on_subsystems.self_s", "s", "lower"),
    ("qmath.subsystem_probabilities.self_s", "s", "lower"),
    ("qmath.tensor.self_s", "s", "lower"),
    ("qmath.conditional_entropy.self_s", "s", "lower"),
    ("attacks.validate_gram.calls", "count", "lower"),
    ("attacks.validate_gram.self_s", "s", "lower"),
    ("attacks.depolarizing_attack.self_s", "s", "lower"),
    ("attacks.gram_bytes", "B-computed", "lower"),
    ("protocol.expand_theta_schedule.self_s", "s", "lower"),
    ("protocol.RoundSampler.self_s", "s", "lower"),
    ("protocol.run_session.self_s", "s", "lower"),
    ("protocol.run_round_exact.calls", "count", "lower"),
    ("protocol.run_round_exact.self_s", "s", "lower"),
    ("protocol.round_statistics.calls", "count", "lower"),
    ("protocol.round_statistics.self_s", "s", "lower"),
    ("protocol.rounds.ghz", "count", "lower"),
    ("protocol.rounds.ztest", "count", "lower"),
    ("protocol.rounds.sift_disclosed", "count", "lower"),
    ("protocol.rounds.sift_key", "count", "higher"),
    ("estimation.estimators.self_s", "s", "lower"),
    ("estimation.tally_to_text.self_s", "s", "lower"),
    ("keyrate.pairing_maximize.calls", "count", "lower"),
    ("keyrate.pairing_maximize.self_s", "s", "lower"),
    ("keyrate.plan_evals", "count", "lower"),
    ("keyrate.pairing_budget_hits", "count", "lower"),
    ("keyrate.exact_entropy_oracle.calls", "count", "lower"),
    ("keyrate.exact_entropy_oracle.self_s", "s", "lower"),
    ("keyrate.depolarizing_keyrate.calls", "count", "lower"),
    ("keyrate.depolarizing_keyrate.self_s", "s", "lower"),
    ("cli.find_rate_crossing.self_s", "s", "lower"),
    ("cli.command.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _kernel_bytes(name, args):
    """Computed bytes: complex amplitudes read and written, matrix read."""
    amps = args[0]
    if name == "kernels.apply_matrix":
        return 2 * 16 * amps.size + 16 * args[3].size
    out = math.prod(args[1][ax] for ax in args[2])
    return 16 * amps.size + 8 * out


class Tracer:
    """Records spans and counters while installed on the sqcka modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if name.startswith("kernels."):
                counters[name + ".bytes"] += _kernel_bytes(name, args)
            elif name == "attacks.validate_gram":
                counters["attacks.gram_bytes"] += 8 * (2 * args[1] * args[1]) ** 2
            elif name == "protocol.run_session":
                tallies = result.tallies
                counters["protocol.rounds.ghz"] += tallies.ghz_total
                counters["protocol.rounds.ztest"] += int(tallies.z_ctrl_counts.sum())
                counters["protocol.rounds.sift_disclosed"] += tallies.sift_total
                counters["protocol.rounds.sift_key"] += int(result.raw_key_alice.size)
            return result

        return traced

    def _count(self, attr, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if attr == "_plan_value":
                counters["keyrate.plan_evals"] += 1
            elif result[2] >= args[3]:  # _two_opt ran out of its budget
                counters["keyrate.pairing_budget_hits"] += 1
            return result

        return counted

    # -- installation --------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "sqcka" and not mod_name.startswith("sqcka."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, replacement)

    def install(self) -> None:
        for mod_name, attr, name in SPANS:
            original = getattr(sys.modules[mod_name], attr)
            if isinstance(original, type):
                init = original.__init__
                self._patches.append((original, "__init__", init))
                original.__init__ = self._wrap(name, init)
            else:
                self._patch_everywhere(original, self._wrap(name, original))
        for mod_name, attr in COUNTED:
            original = getattr(sys.modules[mod_name], attr)
            self._patch_everywhere(original, self._count(attr, original))

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._patches):
            setattr(obj, key, value)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position to pass to :meth:`layer_values` after a traced pass."""
        return len(self.spans), dict(self.counters)

    def layer_values(self, start: tuple[int, dict[str, int]]) -> dict[str, float]:
        """Per-layer values of the spans and counts recorded since ``start``."""
        first, counts_before = start
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= first:
                child[rec[3] - first] += rec[2] - rec[1]
        out: dict[str, float] = defaultdict(float)
        for rec, inner in zip(spans, child):
            out[rec[0] + ".self_s"] += rec[2] - rec[1] - inner
            out[rec[0] + ".calls"] += 1
        for key, value in self.counters.items():
            out[key] = value - counts_before.get(key, 0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent}\n")


def median_layer_values(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of each per-layer value (0 when absent)."""
    return {name: float(statistics.median(p.get(name, 0.0) for p in per_pass))
            for name, _, _ in METRICS if name != "trace.overhead_s"}
