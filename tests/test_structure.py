"""Structural rules: shapes the code was simplified away from stay gone.
Each rule's regex must match no line under its paths (from the root);
no module imports a name it never uses."""

import ast
import os
import re

import pytest

import repro.store
from tests.test_store_formats import FORMAT_SPECS

ROOT = os.path.join(os.path.dirname(__file__), "..")

RULES = {
    # The array transport and the hand-kept table literals that
    # backend/rollups.py's TABLE_SPECS replaced.
    "table-specs": (
        r"shardmerge|MODALITY_UNITS"
        r"|(MODALITY|SUBJECT_MAJOR|WINDOWED)_TABLES = \(",
        ("src", "tools")),
    # One device world (faults/chaos.py's run_device_world, which the
    # fleet validation runs too), no relay-stats view beside the
    # registry, and no JSON state file.
    "one-device-world": (
        r"from_snapshot|RollupStore\.load|run_cluster_device_world"
        r"|serve .*--state"
        r"|FleetRunner|FleetSpec|default_fleet|RelayStats",
        ("src", "tools", "docs", "README.md")),
    # The crowd package synthesises records; it builds no phone and no
    # network of its own.
    "crowd-builds-no-world": (
        r"MopEyeService|AndroidDevice|from repro\.phone"
        r"|from repro\.network import",
        ("src/repro/crowd",)),
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
    # One passive-open TCP endpoint: the proxy's client half is an
    # AppServer and overrides its hooks, never the TCP code itself;
    # the middlebox package's second copies stay deleted.
    "one-tcp-endpoint": (
        r"def (receive|_accept|_refuse|_retransmit_syn_ack"
        r"|_process_segment|_transmit)\(",
        ("src/repro/middlebox",)),
    "one-tcp-endpoint:names": (
        r"DnsInterceptor|MiddleboxStats|ImperfectStats|dns_intercepted",
        ("src", "docs", "README.md")),
    # Record lines are parsed one at a time (core/persist.py's
    # decode_record_lines): the array-join parse stays deleted.
    "one-line-one-parse": (r'_each_braced|",\\n"\.join', ("src",)),
    # Every ingest path hands RollupStore.add_all a batch: no record
    # reaches the memtable or the pipeline's rollups one at a time.
    "one-routing-loop": (r"(memtable|rollups)\.add\(",
                         ("src/repro/backend/ingest.py",
                          "src/repro/store")),
    # One diagnosis, over the rollups the system serves
    # (backend/detector.py): no record-list copy of the case studies
    # or the per-subject verdicts, and no second slowness threshold
    # beside analysis/rules.py's SLOW_FACTOR.
    "one-diagnosis": (
        r"repro\.analysis\.(diagnosis|casestudies)|whatsapp_analysis"
        r"|jio_analysis|slow_factor",
        ("src", "tools", "docs", "README.md", "DESIGN.md", "examples",
         "benchmarks")),
    # One WAL envelope kind, the uploaded batch's: a bulk load is
    # committed by a checkpoint, so no bulk envelope, no group-commit
    # thresholds and no bulk serialiser come back to the store.
    "one-envelope-kind": (
        r'_BULK_HEADER|GROUP_COMMIT_|encode_chunks|"bulk"'
        r"|append_entries|bulk_seq",
        ("src/repro/store",)),
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


def test_one_segment_opening_site():
    """Outside ``store/segments.py`` a segment file is opened at one
    site: the engine's reader of a live segment
    (``StoreEngine._reader``), which recovery, compaction, retention
    and every view then share -- a view pins it, it opens nothing."""
    sites = []
    for name in _files("src/repro"):
        relative = os.path.relpath(name, ROOT).replace(os.sep, "/")
        if not name.endswith(".py") or \
                relative == "src/repro/store/segments.py":
            continue
        with open(name, encoding="utf-8") as handle:
            sites.extend("%s:%d" % (relative, number)
                         for number, line in enumerate(handle, 1)
                         if "SegmentReader(" in line)
    assert [site.partition(":")[0] for site in sites] \
        == ["src/repro/store/engine.py"], sites


def test_two_store_containers():
    """A store file format starts with a module-level ``MAGIC``, and
    two modules define one: the segment (``store/segments.py``; a
    checkpoint is a segment file) and the WAL (``store/wal.py``).
    Another container beside them is a new format to read, gate and
    quarantine."""
    magic = re.compile(r"^[A-Z_]*MAGIC\s*[:=]")
    defining = set()
    for name in _files("src/repro/store"):
        if not name.endswith(".py"):
            continue
        with open(name, encoding="utf-8") as handle:
            if any(magic.match(line) for line in handle):
                defining.add(os.path.relpath(name, ROOT).replace(os.sep,
                                                                 "/"))
    assert sorted(defining) == ["src/repro/store/segments.py",
                                "src/repro/store/wal.py"]
    # Each has a row of the one oracle of the store's formats: its
    # reader is there.
    readers = set()
    for spec in FORMAT_SPECS:
        target = repro.store
        for part in spec.reader.split("."):
            target = getattr(target, part)
        readers.add("src/%s.py" % target.__module__.replace(".", "/"))
    assert defining <= readers


def test_one_durable_seam():
    """Under ``src/repro/store`` only ``store/durable.py`` fsyncs,
    renames, removes or truncates a file or makes a directory: the
    durability policy (what is synced after what) is written once."""
    syscall = re.compile(r"os\.(fsync|replace|rename|remove|unlink"
                         r"|makedirs|mkdir)\b|(?<!durable)\.truncate\(")
    hits = []
    for name in _files("src/repro/store"):
        relative = os.path.relpath(name, ROOT).replace(os.sep, "/")
        if not name.endswith(".py") or \
                relative == "src/repro/store/durable.py":
            continue
        with open(name, encoding="utf-8") as handle:
            hits.extend("%s:%d: %s" % (relative, number, line.strip())
                        for number, line in enumerate(handle, 1)
                        if syscall.search(line))
    assert not hits, "\n".join(hits)


def _names_read(tree):
    """Every name ``tree`` reads, counting names inside string
    constants that parse as expressions (quoted annotations,
    ``__all__`` entries)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(name.id for name in ast.walk(inner)
                        if isinstance(name, ast.Name))
    return read


def test_every_top_level_import_is_used():
    """No module under ``src/repro`` imports at its top level a name
    it never uses.  A package ``__init__`` imports to re-export, and
    is exempt."""
    unused = []
    for name in _files("src/repro"):
        if not name.endswith(".py") or \
                os.path.basename(name) == "__init__.py":
            continue
        with open(name, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        read = _names_read(tree)
        for statement in tree.body:
            if not isinstance(statement, (ast.Import, ast.ImportFrom)) \
                    or getattr(statement, "module", None) == "__future__":
                continue
            for alias in statement.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append("%s:%d: %s" % (
                        os.path.relpath(name, ROOT), statement.lineno,
                        bound))
    assert not unused, "\n".join(unused)
