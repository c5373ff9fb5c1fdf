"""Imperfection ablation: the Table-2-style accuracy cost per source.

The paper argues MopEye's RTT accuracy survives the measurement
pipeline because the timing brackets exactly the socket call; this
module quantifies what each *clock* imperfection costs on top of that.
It reruns one scenario under four imperfection variants --

* ``none``          -- the imperfect-clock events stripped out,
* ``quantisation``  -- timestamp reads snapped to the quantum grid,
* ``jitter``        -- seeded scheduling jitter added to each read,
* ``both``          -- quantisation and jitter composed,

and reports the mean absolute RTT error of each variant against the
``none`` baseline, per record kind.  The imperfect clock distorts only
*recorded values* (:mod:`repro.middlebox.imperfect` wraps the cost
model's ``quantize_nano``, never the simulator schedule), so every
variant produces the same record stream event for event and the error
is a clean pairwise join -- no matching heuristics.

Everything is string-seeded, so the ablation output is byte-stable
across runs, workers, and ``PYTHONHASHSEED``; the determinism test
asserts exactly that.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.faults.plan import FaultEvent, FaultKind
from repro.faults.scenarios import Scenario, get_scenario

#: The ablation's variant names, in report order.
VARIANTS = ("none", "quantisation", "jitter", "both")

#: Record kinds the error report covers (the two RTT kinds the
#: divergence rule compares).
ABLATED_KINDS = ("TCP", "APP_RTT")


def _clock_params(scenario: Scenario) -> Dict[str, float]:
    """The quantum/jitter magnitudes of the scenario's clock events
    (the first noisy-clock event wins; presets carry exactly one)."""
    for event in scenario.events:
        if event.kind == FaultKind.NOISY_CLOCK:
            return {
                "quantum_ms": float(event.params.get("quantum_ms", 0.0)),
                "jitter_ms": float(event.params.get("jitter_ms", 0.0)),
            }
    return {"quantum_ms": 0.0, "jitter_ms": 0.0}


def imperfection_variants(scenario: Scenario,
                          quantum_ms: Optional[float] = None,
                          jitter_ms: Optional[float] = None
                          ) -> Dict[str, Scenario]:
    """Four copies of ``scenario`` differing only in their noisy-clock
    events.  Magnitudes default to the scenario's own event params
    (``noisy_clock`` carries a quantum; jitter defaults to 1 ms when
    the scenario declares none, so the jitter variants measure
    something)."""
    base = _clock_params(scenario)
    quantum = base["quantum_ms"] if quantum_ms is None else quantum_ms
    jitter = jitter_ms if jitter_ms is not None \
        else (base["jitter_ms"] or 1.0)
    others = tuple(e for e in scenario.events
                   if e.kind != FaultKind.NOISY_CLOCK)

    def with_clock(name: str, q: float, j: float) -> Scenario:
        events = others
        if q > 0 or j > 0:
            events = others + (FaultEvent(
                "e-ablate-clock", FaultKind.NOISY_CLOCK, 0.0, 0.0,
                scope={},
                params={"quantum_ms": q, "jitter_ms": j}),)
        return dataclasses.replace(
            scenario, name="%s@%s" % (scenario.name, name),
            events=events)

    return {
        "none": with_clock("none", 0.0, 0.0),
        "quantisation": with_clock("quantisation", quantum, 0.0),
        "jitter": with_clock("jitter", 0.0, jitter),
        "both": with_clock("both", quantum, jitter),
    }


def _rtts_by_kind(result) -> Dict[str, List[Tuple[float, float]]]:
    """``{kind: [(timestamp, rtt)]}`` for successful RTT records, in
    shard order (the pairwise-join axis)."""
    out: Dict[str, List[Tuple[float, float]]] = {
        kind: [] for kind in ABLATED_KINDS}
    for record in result.iter_records():
        if record.failure is None and record.kind in out:
            out[record.kind].append((record.timestamp_ms,
                                     record.rtt_ms))
    return out


def run_imperfection_ablation(scenario="noisy_clock", seed: int = 0,
                              quantum_ms: Optional[float] = None,
                              jitter_ms: Optional[float] = None
                              ) -> Dict[str, object]:
    """Run all four variants and report per-source accuracy deltas.

    Returns a JSON-ready dict: per-variant record censuses plus
    ``deltas[variant][kind]`` = mean absolute RTT error (ms) against
    the imperfection-free baseline, with ``max_abs_ms`` alongside.
    Raises if a variant's record stream stops aligning with the
    baseline -- that would mean the clock hook leaked into scheduling.
    """
    # Imported lazily: repro.faults.chaos imports this package.
    from repro.faults.chaos import ChaosRunner
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    variants = imperfection_variants(scenario, quantum_ms=quantum_ms,
                                     jitter_ms=jitter_ms)
    streams: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    report: Dict[str, object] = {
        "scenario": scenario.name, "seed": seed,
        "variants": {}, "deltas": {}}
    # The variants' shards are read here and nowhere else.
    with tempfile.TemporaryDirectory(prefix="mopeye-ablation-") as root:
        for name in VARIANTS:
            result = ChaosRunner(variants[name], seed=seed, workers=1,
                                 shard_dir=os.path.join(root, name)).run()
            streams[name] = _rtts_by_kind(result)
            report["variants"][name] = {
                "records": result.records,
                "digest": result.digest(),
                "samples": {kind: len(streams[name][kind])
                            for kind in ABLATED_KINDS},
            }
    base = streams["none"]
    for name in VARIANTS:
        deltas: Dict[str, Dict[str, float]] = {}
        for kind in ABLATED_KINDS:
            ref, var = base[kind], streams[name][kind]
            if len(ref) != len(var):
                raise RuntimeError(
                    "variant %r changed the %s record stream "
                    "(%d vs %d samples): the imperfect clock must "
                    "distort values, never scheduling"
                    % (name, kind, len(var), len(ref)))
            errors = [abs(v[1] - r[1]) for r, v in zip(ref, var)]
            deltas[kind] = {
                "mean_abs_ms": (sum(errors) / len(errors)
                                if errors else 0.0),
                "max_abs_ms": max(errors) if errors else 0.0,
                "samples": len(errors),
            }
        report["deltas"][name] = deltas
    return report


__all__ = ["ABLATED_KINDS", "VARIANTS", "imperfection_variants",
           "run_imperfection_ablation"]
