"""What the docs pages say about names in code, read one way.

``first_column`` is the helper every ``tests/test_*_docs.py`` enforcer
diffs a page's tables against a code-side set with (both directions);
``backticked_flags`` / ``parser_flags`` do the same for a subcommand's
flags.  The checks of this module are the tables that list the rollup
tables themselves: every page that does must say exactly what
``repro.backend.rollups.TABLE_SPECS`` says -- name, key parts, feeding
kinds, grid and unit, stored order -- so a spec row and its four doc
rows cannot drift apart.  The fault kinds' table says what
``repro.faults.specs.FAULT_SPECS`` says the same way, and the store's
formats table what ``tests/test_store_formats.py``'s ``FORMAT_SPECS``
says."""

import os
import re

import pytest

from repro.backend.rollups import TABLE_SPECS
from repro.faults.specs import FAULT_SPECS
from repro.store.segments import stored_order
from tests import test_store_formats as formats

ROOT = os.path.join(os.path.dirname(__file__), "..")


def doc_text(name):
    with open(os.path.join(ROOT, "docs", name)) as handle:
        return handle.read()


def first_column(doc, pattern):
    """First-column backticked names in the table rows of ``doc``:
    ``| `name` | ...``."""
    return [match.group(1) for match in (
        re.match(r"\|\s*`(%s)`\s*\|" % pattern, line)
        for line in doc_text(doc).splitlines()) if match]


def backticked_flags(doc):
    """Every backticked ``--flag`` anywhere in the page."""
    return set(re.findall(r"`(--[a-z-]+)`", doc_text(doc)))


def parser_flags(command):
    """Flags of one subparser, read from the CLI source."""
    with open(os.path.join(ROOT, "src", "repro", "__main__.py")) as handle:
        source = handle.read()
    start = source.index('sub.add_parser("%s"' % command)
    end = source.index("sub.add_parser(", start + 1)
    return set(re.findall(r'add_argument\("(--[a-z-]+)"',
                          source[start:end]))


def section(doc, heading):
    """The page from ``heading`` to the next heading of its level."""
    body = doc_text(doc).split(heading + "\n", 1)[1]
    level = len(heading.split(" ", 1)[0])
    return re.split(r"^#{1,%d} " % level, body, 1, re.M)[0]


# -- the tables of tables ---------------------------------------------------

def _parts(cell):
    return re.findall(r"[a-z_]+", cell)


#: Column header -> (what the cell says, what the spec says).
FACTS = {
    "key": (_parts, lambda spec: list(spec.key)),
    "fed by": (lambda cell: re.findall(r"`([A-Z_]+)`", cell),
               lambda spec: list(spec.kinds)),
    "grid, unit": (str.strip,
                   lambda spec: "%s, %s" % (spec.grid, spec.unit)),
    "stored": (_parts,
               lambda spec: list(stored_order(spec.name, spec.key))),
}

LOG_GRID = [spec for spec in TABLE_SPECS if spec.grid == "log"]


@pytest.mark.parametrize("doc, heading, specs, columns", [
    ("BACKEND.md", "## Windowed rollups", TABLE_SPECS,
     ["key", "fed by", "grid, unit"]),
    ("MODALITIES.md", "## Rollup tables", LOG_GRID,
     ["key", "fed by", "grid, unit"]),
    ("STORAGE.md", "### Segment format", TABLE_SPECS,
     ["key", "stored"]),
], ids=["backend", "modalities", "storage"])
def test_a_table_of_tables_says_what_the_spec_says(doc, heading, specs,
                                                   columns):
    rows = [line for line in section(doc, heading).splitlines()
            if line.startswith("|")]
    header = [cell.strip() for cell in rows[0].strip("|").split("|")]
    assert header[0] == "table" and set(columns) <= set(header)
    documented = {}
    for line in rows:
        cells = line.strip().strip("|").split("|")
        name = re.fullmatch(r"\s*`([a-z_]+)`\s*", cells[0])
        if name:
            documented[name.group(1)] = dict(zip(header, cells))
    # Both directions, and in the spec's order.
    assert list(documented) == [spec.name for spec in specs]
    for spec in specs:
        for column in columns:
            says, wants = FACTS[column]
            assert says(documented[spec.name][column]) == wants(spec), \
                "%s: %s, column %r" % (doc, spec.name, column)


def test_query_name_flag_lists_every_table():
    (row,) = [line for line in section("QUERY.md", "## Flags").splitlines()
              if line.startswith("| `--name`")]
    assert re.findall(r"`([a-z_]+)`", row.split("|")[3]) == \
        [spec.name for spec in TABLE_SPECS]



def test_the_fault_kind_table_says_what_the_spec_says():
    heading = "### 1. Plans (`repro.faults.plan`, `repro.faults.scenarios`)"
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section("FAULTS.md", heading).splitlines()
            if line.startswith("|")]
    scope = rows[0].index("scope")
    # Both directions and in the rows' order; a scope of None is "—".
    documented = [(re.fullmatch(r"`([a-z_]+)`", cells[0]).group(1),
                   re.fullmatch(r"`([a-z ]+)`|—", cells[scope]).group(1))
                  for cells in rows[2:]]
    assert documented == [(spec.kind, spec.scope) for spec in FAULT_SPECS]


#: How the formats table says each outcome and effect of a row.
SAYS = {formats.AS_WRITTEN: "as written", formats.PREFIX: "last valid frame",
        formats.AS_FOUND: "as found", formats.CUT_BACK: "cut back",
        formats.QUARANTINE: "`quarantine/`"}


def test_the_formats_table_says_what_the_spec_says():
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section("STORAGE.md", "## Formats").splitlines()
            if line.startswith("|")]
    header = rows[0]
    # Both directions and in the rows' order.
    assert [cells[0].split(" `")[0].split(" (")[0] for cells in rows[2:]] \
        == [spec.form for spec in formats.FORMAT_SPECS]
    for cells, spec in zip(rows[2:], formats.FORMAT_SPECS):
        cell = dict(zip(header, cells))
        assert "`%s`" % spec.reader in cell["the one reader"], spec.form
        for column, cls in (("unsupported", "schema"), ("corrupt", "flip"),
                            ("torn", "torn")):
            outcome, effect = spec.owes[cls]
            says = ["unchecked"] if isinstance(outcome, formats.Unchecked) \
                else [SAYS.get(outcome) or "`%s`" % outcome.__name__,
                      SAYS[effect]]
            for word in says:
                assert word in cell[column], (spec.form, column, word)
