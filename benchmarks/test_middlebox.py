"""Middlebox subsystem benchmark: the transparent-proxy closed loop,
the per-imperfection accuracy ablation, and the ingest cost of the
app-layer RTT records.

Three measurements, one JSON artefact (``BENCH_middlebox.json``):

* the ``transparent_proxy`` chaos scenario end to end at 1 and 2
  workers -- recall/precision of the shared divergence rule,
  byte-identical dataset and recovered-rollup digests across worker
  counts, and the online finding localising the proxied operator;
* the ``noisy_clock`` imperfection ablation -- mean/max absolute RTT
  error per source (quantisation, jitter, both) against the
  imperfection-free baseline, Table-2 style;
* an in-process ingest A/B -- the same number of records through
  ``RollupStore.add_all`` with legacy kinds only versus a stream
  where a quarter are ``APP_RTT`` records.  The ratio is recorded,
  not asserted (one run reads 0.55-1.45 on the same code); that the
  dual-RTT view puts no work on the legacy kinds is a count in tier-1
  (``tests/test_backend.py::TestAddWorkPerKind``).

Quick local run::

    PYTHONPATH=src python -m pytest benchmarks/test_middlebox.py
"""

import json
import os
import time
from collections import Counter

SEED = 3
INGEST_RECORDS = int(os.environ.get("MOPEYE_MIDDLEBOX_BENCH_RECORDS",
                                    "60000"))


def _ingest_records(app_rtt_share):
    """A synthetic stream of ``INGEST_RECORDS`` records where every
    ``1/app_rtt_share``-th record is an app-layer RTT sample (0 ->
    legacy kinds only).  Same count either way, so rates compare
    directly."""
    from repro.core.records import MeasurementKind, MeasurementRecord

    day = 24 * 3600 * 1000.0
    records = []
    for i in range(INGEST_RECORDS):
        if app_rtt_share and i % app_rtt_share == 0:
            kind = MeasurementKind.APP_RTT
        elif i % 7 == 0:
            kind = MeasurementKind.DNS
        else:
            kind = MeasurementKind.TCP
        records.append(MeasurementRecord(
            kind=kind, rtt_ms=0.5 + (i % 900) * 1.7,
            timestamp_ms=(i % 40) * day,
            app_package="com.app.%d" % (i % 20),
            domain="d%d.example" % (i % 11),
            network_type="LTE" if i % 3 else "WIFI",
            operator="Op%d" % (i % 5),
            device_id="dev-%d" % (i % 8)))
    return records


def _rate(records):
    from repro.backend.rollups import RollupStore

    store = RollupStore()
    start = time.perf_counter()
    store.add_all(records)
    wall = time.perf_counter() - start
    return len(records) / wall, wall, store


def test_middlebox_closed_loop_and_ingest_cost(tmp_path, benchmark):
    from benchmarks._common import RESULTS_DIR, save_result
    from repro.analysis import format_table
    from repro.backend.detector import ProxyDivergenceRule
    from repro.core.records import MeasurementKind
    from repro.faults import ChaosRunner, verify_scenario
    from repro.faults.plan import FaultKind
    from repro.middlebox import run_imperfection_ablation

    box = {}

    def run():
        for workers in (1, 2):
            start = time.perf_counter()
            result = ChaosRunner(
                "transparent_proxy", seed=SEED, workers=workers,
                shard_dir=str(tmp_path / ("w%d" % workers))).run()
            box[workers] = (result, time.perf_counter() - start)
        box["ablation"] = run_imperfection_ablation("noisy_clock",
                                                    seed=0)

    benchmark.pedantic(run, rounds=1, iterations=1)
    serial, serial_wall = box[1]
    pooled, pooled_wall = box[2]
    report = verify_scenario(serial)
    kinds = Counter(r.kind for r in serial.iter_records())
    recall = report.recall_for(FaultKind.TRANSPARENT_PROXY)
    # The online rule over the recovered rollups -- the same verdict
    # function verify_scenario used offline.
    findings = [f.to_dict() for f in
                ProxyDivergenceRule().evaluate(serial.rollups, 1.0)]
    ablation = box["ablation"]

    legacy_rate, legacy_wall, _store = _rate(_ingest_records(0))
    widened_rate, widened_wall, widened = _rate(_ingest_records(4))
    ratio = widened_rate / legacy_rate

    quant = ablation["deltas"]["quantisation"]["TCP"]
    text = format_table(
        ["Measure", "Value"],
        [["records", serial.records],
         ["recall(transparent_proxy)", "%.2f" % recall],
         ["precision", "%.2f" % report.precision],
         ["APP_RTT records", kinds[MeasurementKind.APP_RTT]],
         ["proxy findings", len(findings)],
         ["quantisation err (ms)", "%.2f mean / %.2f max"
          % (quant["mean_abs_ms"], quant["max_abs_ms"])],
         ["wall 1w / 2w (s)", "%.1f / %.1f"
          % (serial_wall, pooled_wall)],
         ["legacy ingest (rec/s)", "%.0f" % legacy_rate],
         ["widened ingest (rec/s)", "%.0f" % widened_rate],
         ["widened/legacy", "%.3f" % ratio]],
        title="Middlebox: transparent_proxy seed=%d, %d-record "
              "ingest A/B." % (SEED, INGEST_RECORDS))
    save_result("middlebox", text)

    payload = {
        "benchmark": "middlebox",
        "seed": SEED,
        "records": serial.records,
        "record_kinds": {kind: kinds[kind] for kind in sorted(kinds)},
        "recall_transparent_proxy": recall,
        "precision": report.precision,
        "proxy_findings": findings,
        "imperfection_ablation": ablation,
        "dataset_digest": serial.digest(),
        "rollup_digest": serial.rollup_digest(),
        "digest_matches_across_workers":
            pooled.digest() == serial.digest()
            and pooled.rollup_digest() == serial.rollup_digest(),
        "walls_s": {"workers_1": round(serial_wall, 3),
                    "workers_2": round(pooled_wall, 3)},
        "ingest": {
            "records": INGEST_RECORDS,
            "legacy_records_per_s": round(legacy_rate, 1),
            "widened_records_per_s": round(widened_rate, 1),
            "widened_over_legacy": round(ratio, 3),
            "legacy_wall_s": round(legacy_wall, 3),
            "widened_wall_s": round(widened_wall, 3),
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_middlebox.json"),
              "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # The closed loop: the proxy detected with no noise, and the
    # online rule localising exactly the proxied operator.
    assert recall == 1.0
    assert report.precision == 1.0
    assert [f["subject"] for f in findings] == ["Ferrite Wifi"]
    # Worker count cannot change a byte, dataset or recovered rollups.
    assert payload["digest_matches_across_workers"]
    # The dual-RTT view flows end to end.
    assert kinds[MeasurementKind.APP_RTT] > 0
    # Each imperfection source costs accuracy; the clean variant none.
    assert ablation["deltas"]["none"]["TCP"]["mean_abs_ms"] == 0.0
    for variant in ("quantisation", "jitter", "both"):
        assert ablation["deltas"][variant]["TCP"]["mean_abs_ms"] > 0.0
    # The app table really aggregated APP_RTT rows.
    assert any(key[2] == MeasurementKind.APP_RTT
               for key in widened.tables["app"])
