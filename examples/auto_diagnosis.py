#!/usr/bin/env python3
"""Automated diagnosis sweep: find the Whatsapps and Jios in a dataset.

Synthesises a campaign, folds it into the rollups a collector would
serve, then runs the diagnosis that systematises the paper's
case-study recipes (section 4.2.2): for every sufficiently-measured
app and operator it asks "slow relative to peers?", and if so,
localises the problem to the app's servers, the ISP's core network,
or the access network.

Run:  python examples/auto_diagnosis.py [scale]
"""

import sys

from repro.analysis import format_table
from repro.backend import RollupStore, diagnose_all
from repro.crowd import Campaign, CampaignConfig


def main(scale: float = 0.02) -> None:
    print("synthesising campaign at scale %g ..." % scale)
    rollups = RollupStore()
    rollups.add_all(Campaign(config=CampaignConfig(scale=scale,
                                                   seed=2016)).run())

    findings = diagnose_all(rollups, min_samples=max(100, int(2000
                                                              * scale)),
                            top=15)
    rows = [[f.kind, f.subject, f.verdict,
             f.median_ms, f.baseline_ms,
             "%.1fx" % f.slowdown if f.slowdown else "-"]
            for f in findings]
    print(format_table(
        ["Kind", "Subject", "Verdict", "Median (ms)", "Peers (ms)",
         "Slowdown"],
        rows, title="Diagnosis findings (worst first):"))
    print()
    for finding in findings[:5]:
        print("%s %s:" % (finding.kind, finding.subject))
        for line in finding.evidence:
            print("   - " + line)

    named = {f.subject for f in findings}
    print()
    print("expected case-study subjects found:",
          "Jio 4G" in named and "com.whatsapp" in named)


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.02)
