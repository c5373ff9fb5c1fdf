"""docs/MODALITIES.md must document exactly the modality kinds and
rollup tables -- both directions -- and every name it cites must
still exist in code."""

from repro.analysis import rules
from repro.backend import rollups as rollups_mod
from repro.backend.detector import CoexistenceRule
from repro.backend.rollups import TABLE_SPECS
from repro.core.records import MeasurementKind
from repro.faults.plan import FaultKind
from repro.faults.scenarios import SCENARIOS

from tests.test_docs import doc_text, first_column

DOC = "MODALITIES.md"

#: The tables on the log grid: what this page's table inventory lists.
LOG_TABLES = {spec.name for spec in TABLE_SPECS if spec.grid == "log"}


def _doc_text():
    return doc_text(DOC)


def _documented(pattern):
    return set(first_column(DOC, pattern))


class TestKindInventory:
    def test_every_modality_kind_is_documented(self):
        documented = _documented(r"[A-Z][A-Z_]+")
        missing = set(MeasurementKind.MODALITIES) - documented
        assert not missing, "undocumented kinds: %s" % sorted(missing)

    def test_every_documented_kind_exists(self):
        documented = _documented(r"[A-Z][A-Z_]+")
        stale = documented - set(MeasurementKind.MODALITIES)
        assert not stale, \
            "documented but gone from MODALITIES: %s" % sorted(stale)


class TestTableInventory:
    def test_every_modality_table_is_documented(self):
        documented = _documented(r"[a-z][a-z_]*")
        missing = LOG_TABLES - documented
        assert not missing, "undocumented tables: %s" % sorted(missing)

    def test_every_documented_table_exists(self):
        documented = _documented(r"[a-z][a-z_]*")
        stale = documented - LOG_TABLES
        assert not stale, \
            "documented but not a log-grid table: %s" % sorted(stale)


class TestCitedNames:
    """Every constant, scenario, fault kind and rule this page cites
    must exist with the documented value."""

    def test_log_grid_constants(self):
        text = _doc_text()
        assert ("`LOG_BINS_PER_DECADE` = %d"
                % rollups_mod.LOG_BINS_PER_DECADE) in text
        assert "`LOG_BIN_FLOOR` = 1e-3" in text
        assert rollups_mod.LOG_BIN_FLOOR == 1e-3

    def test_coexistence_scenario_and_fault_kind(self):
        text = _doc_text()
        assert "`coexistence`" in text
        assert "coexistence" in SCENARIOS
        assert SCENARIOS["coexistence"].modalities
        assert "`%s`" % FaultKind.COEX_BULK in text
        assert FaultKind.COEX_BULK in FaultKind.ALL

    def test_shared_rule_names(self):
        text = _doc_text()
        assert "coexistence_verdict" in text
        assert callable(rules.coexistence_verdict)
        assert "`%s`" % CoexistenceRule.name in text
        assert "`%s`" % rules.COEX_BULK_PACKAGE in text
