"""docs/CLUSTER.md must document exactly the cluster surface -- both
directions: every cluster scenario and CLI flag has a row, every
documented name still exists, and the promised sections are there."""

from repro.faults import SCENARIOS

from tests.test_docs import (backticked_flags, doc_text, first_column,
                             parser_flags)

DOC = "CLUSTER.md"

REQUIRED_SECTIONS = [
    "## The ring",
    "## Nodes",
    "## The coordinator",
    "## The global merge and the digest invariant",
    "## Scenarios",
    "## Flags",
    "## Metrics",
]


def _documented_scenarios():
    return set(first_column(DOC, "[a-z_]+"))


def _cluster_scenarios():
    return {name for name, scenario in SCENARIOS.items()
            if scenario.cluster_nodes}


class TestScenarioCoverage:
    def test_there_are_cluster_scenarios(self):
        assert len(_cluster_scenarios()) >= 3

    def test_every_cluster_scenario_is_documented(self):
        missing = _cluster_scenarios() - _documented_scenarios()
        assert not missing, \
            "undocumented scenarios: %s" % sorted(missing)

    def test_every_documented_scenario_exists(self):
        documented = {name for name in _documented_scenarios()
                      if name.startswith(("collector", "network",
                                          "rebalance"))}
        stale = documented - _cluster_scenarios()
        assert not stale, \
            "documented but gone from SCENARIOS: %s" % sorted(stale)


class TestFlagCoverage:
    def test_parser_flags_are_sane(self):
        flags = parser_flags("cluster")
        assert "--nodes" in flags and "--scenario" in flags

    def test_every_flag_is_documented(self):
        missing = parser_flags("cluster") - backticked_flags(DOC)
        assert not missing, "undocumented flags: %s" % sorted(missing)

    def test_every_documented_flag_exists(self):
        stale = backticked_flags(DOC) - parser_flags("cluster")
        assert not stale, \
            "documented but gone from the parser: %s" % sorted(stale)


class TestSections:
    def test_promised_sections_exist(self):
        text = doc_text(DOC)
        missing = [heading for heading in REQUIRED_SECTIONS
                   if heading not in text]
        assert not missing, "missing sections: %s" % missing
