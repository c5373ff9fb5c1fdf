"""docs/QUERY.md must document exactly the query surface -- both
directions: every view the code exposes has a row, every documented
view and CLI flag still exists, and the promised sections are there."""

from repro.serve import VIEWS

from tests.test_docs import (backticked_flags, doc_text, first_column,
                             parser_flags)

DOC = "QUERY.md"

REQUIRED_SECTIONS = [
    "## Views",
    "## Flags",
    "## Result schemas",
    "## Pruning semantics",
    "## Block cache",
    "## Snapshot reads",
]


def _documented_views():
    return set(first_column(DOC, "[a-z]+"))


class TestViewCoverage:
    def test_every_view_is_documented(self):
        missing = set(VIEWS) - _documented_views()
        assert not missing, "undocumented views: %s" % sorted(missing)

    def test_every_documented_view_exists(self):
        stale = _documented_views() - set(VIEWS)
        assert not stale, \
            "documented but gone from VIEWS: %s" % sorted(stale)


class TestFlagCoverage:
    def test_parser_flags_are_sane(self):
        flags = parser_flags("query")
        assert "--top" in flags and "--cache-mb" in flags

    def test_every_flag_is_documented(self):
        missing = parser_flags("query") - backticked_flags(DOC)
        assert not missing, "undocumented flags: %s" % sorted(missing)

    def test_every_documented_flag_exists(self):
        stale = backticked_flags(DOC) - parser_flags("query")
        assert not stale, \
            "documented but gone from the parser: %s" % sorted(stale)


class TestSections:
    def test_promised_sections_exist(self):
        text = doc_text(DOC)
        missing = [heading for heading in REQUIRED_SECTIONS
                   if heading not in text]
        assert not missing, "missing sections: %s" % missing
