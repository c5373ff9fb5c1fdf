"""Modality subsystem benchmark: the coexistence closed loop plus the
ingest cost of the widened rollup schema.

Two measurements, one JSON artefact (``BENCH_modalities.json``):

* the ``coexistence`` chaos scenario end to end at 1 and 2 workers --
  recall/precision of the shared coexistence rule, byte-identical
  dataset and recovered-rollup digests across worker counts, and the
  per-kind record census (throughput/energy/AoI must all be present);
* an in-process ingest A/B -- the same number of records through
  ``RollupStore.add_all`` with legacy kinds only versus a stream where
  a quarter are modality records.  The ratio is recorded, not
  asserted (one run reads 0.55-1.45 on the same code); that widening
  puts no work on the legacy kinds is a count in tier-1
  (``tests/test_backend.py::TestAddWorkPerKind``).

Quick local run::

    PYTHONPATH=src python -m pytest benchmarks/test_modalities.py
"""

import json
import os
import time
from collections import Counter

SEED = 3
INGEST_RECORDS = int(os.environ.get("MOPEYE_MODALITY_BENCH_RECORDS",
                                    "60000"))


def _ingest_records(modality_share):
    """A synthetic stream of ``INGEST_RECORDS`` records where every
    ``1/modality_share``-th record is a modality sample (0 -> legacy
    kinds only).  Same count either way, so rates compare directly."""
    from repro.core.records import MeasurementKind, MeasurementRecord

    day = 24 * 3600 * 1000.0
    records = []
    for i in range(INGEST_RECORDS):
        if modality_share and i % modality_share == 0:
            kind = MeasurementKind.MODALITIES[(i // modality_share) % 4]
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


def test_modalities_closed_loop_and_ingest_cost(tmp_path, benchmark):
    from benchmarks._common import RESULTS_DIR, save_result
    from repro.analysis import format_table, rules
    from repro.backend.detector import CoexistenceRule
    from repro.faults import ChaosRunner, verify_scenario

    box = {}

    def run():
        for workers in (1, 2):
            start = time.perf_counter()
            result = ChaosRunner(
                "coexistence", seed=SEED, workers=workers,
                shard_dir=str(tmp_path / ("w%d" % workers))).run()
            box[workers] = (result, time.perf_counter() - start)

    benchmark.pedantic(run, rounds=1, iterations=1)
    serial, serial_wall = box[1]
    pooled, pooled_wall = box[2]
    report = verify_scenario(serial)
    kinds = Counter(r.kind for r in serial.iter_records())
    # The online rule over the recovered rollups -- the same verdict
    # function verify_scenario used offline.
    coex = [f.to_dict()
            for f in CoexistenceRule().evaluate(serial.rollups, 1.0)]

    legacy_rate, legacy_wall, _store = _rate(_ingest_records(0))
    widened_rate, widened_wall, widened = _rate(_ingest_records(4))
    ratio = widened_rate / legacy_rate

    text = format_table(
        ["Measure", "Value"],
        [["records", serial.records],
         ["recall(coex_bulk)", "%.2f" % report.recall_for("coex_bulk")],
         ["precision", "%.2f" % report.precision],
         ["TPUT_UP / TPUT_DOWN", "%d / %d"
          % (kinds["TPUT_UP"], kinds["TPUT_DOWN"])],
         ["ENERGY / AOI", "%d / %d"
          % (kinds["ENERGY"], kinds["AOI"])],
         ["wall 1w / 2w (s)", "%.1f / %.1f"
          % (serial_wall, pooled_wall)],
         ["legacy ingest (rec/s)", "%.0f" % legacy_rate],
         ["widened ingest (rec/s)", "%.0f" % widened_rate],
         ["widened/legacy", "%.3f" % ratio]],
        title="Modalities: coexistence seed=%d, %d-record ingest A/B."
              % (SEED, INGEST_RECORDS))
    save_result("modalities", text)

    payload = {
        "benchmark": "modalities",
        "seed": SEED,
        "records": serial.records,
        "record_kinds": {kind: kinds[kind] for kind in sorted(kinds)},
        "recall_coex_bulk": report.recall_for("coex_bulk"),
        "precision": report.precision,
        "coexistence_findings": coex,
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
    with open(os.path.join(RESULTS_DIR, "BENCH_modalities.json"),
              "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # The closed loop: every injected coexistence fault detected, no
    # noise, and the bulk app identified by the shared rule.
    assert report.recall_for("coex_bulk") == 1.0
    assert report.precision >= 0.9
    assert coex and all(
        f["summary"]["bulk_package"] == rules.COEX_BULK_PACKAGE
        for f in coex)
    # Worker count cannot change a byte, dataset or recovered rollups.
    assert payload["digest_matches_across_workers"]
    # Every modality kind flows through the scenario.
    for kind in ("TPUT_UP", "TPUT_DOWN", "ENERGY", "AOI"):
        assert kinds[kind] > 0, kind
    # The widened store really aggregated the modality records.
    assert all(widened.tables[t] for t in
               ("app_throughput", "app_energy", "aoi"))
