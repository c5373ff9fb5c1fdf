"""Smoke test of the pipeline benchmark.  Not part of tier-1 (whose
``testpaths`` is ``tests``); run it explicitly::

    python -m pytest benchmarks/pipeline/test_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _metric_rows(stdout: str, workloads):
    """``(workload, metric, unit)`` for every metric row printed."""
    rows = []
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] in workloads:
            try:
                float(fields[2])
            except ValueError:
                continue
            rows.append((fields[0], fields[1], fields[3]))
    return rows


def test_smoke_prints_every_listed_metric_once():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "pipeline benchmark: ok" in done.stdout
    listed = {metric["name"]: metric["unit"]
              for metric in spec["end_to_end"] + spec["per_layer"]}
    workloads = [workload["name"] for workload in spec["workloads"]]
    rows = _metric_rows(done.stdout, workloads)
    for workload in workloads:
        printed = [(name, unit) for owner, name, unit in rows
                   if owner == workload]
        assert sorted(printed) == sorted(listed.items()), workload
