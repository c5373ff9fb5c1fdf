"""Structural rules: shapes the code was simplified away from stay gone.
Each rule's regex must match no line under its paths (from the root)."""

import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")

RULES = {
    # The array transport and the hand-kept table literals that
    # backend/rollups.py's TABLE_SPECS replaced.
    "table-specs": (
        r"shardmerge|MODALITY_UNITS"
        r"|(MODALITY|SUBJECT_MAJOR|WINDOWED)_TABLES = \(",
        ("src", "tools")),
    # One device world and no JSON state file.
    "one-device-world": (
        r"from_snapshot|RollupStore\.load|run_cluster_device_world"
        r"|serve .*--state",
        ("src", "tools", "docs", "README.md")),
    # One histogram, the rollups' MergeHist: no second sketch family.
    "one-histogram": (
        r"P2Quantile|ReservoirSample|StreamingCDF|StreamingGroups",
        ("src", "tools", "docs")),
    # One analysis per figure: no streaming copy beside the exact one.
    "no-stream-analyses": (r"def \w+_stream\(", ("src/repro/analysis",)),
    # One row per fault kind (faults/specs.py's FAULT_SPECS): the
    # injector and the verifier loop over the rows and name no kind.
    "fault-specs": (r"\.kind\s*(==|!=|in\b)|FaultKind\.[A-Z]",
                    ("src/repro/faults/injector.py",
                     "src/repro/faults/verify.py")),
    # CI runs tier-1 and nothing a contributor does not: every step is
    # pip, pytest or the link check, one command on one line -- no
    # heredoc, no tool script, no `cmp` of two runs.
    "ci-is-pytest": (
        r"^\s*(-\s+)?run:(?!\s*(PYTHONPATH=src )?python -m "
        r"(pip install|pytest)[\w .,/=-]*$"
        r"|\s*python tools/check_markdown_links\.py[\w .,/-]*$)",
        (".github/workflows",)),
}


def _files(path):
    full = os.path.join(ROOT, path)
    if os.path.isfile(full):
        yield full
        return
    for folder, dirs, names in os.walk(full):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(names):
            yield os.path.join(folder, name)


@pytest.mark.parametrize("rule", sorted(RULES))
def test_no_line_matches(rule):
    pattern, paths = RULES[rule]
    regex = re.compile(pattern)
    hits = []
    for path in paths:
        for name in _files(path):
            with open(name, encoding="utf-8", errors="replace") as handle:
                for number, line in enumerate(handle, 1):
                    if regex.search(line):
                        hits.append("%s:%d: %s" % (
                            os.path.relpath(name, ROOT), number,
                            line.strip()))
    assert not hits, "\n".join(hits)
