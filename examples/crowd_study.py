#!/usr/bin/env python3
"""The full section 4.2 crowdsourcing study, reproduced in one run.

Synthesises the measurement campaign (2,351 devices, 6,266 apps, 114
countries -- scaled down by default so it finishes in seconds), then
runs the entire analysis pipeline: dataset statistics, Figures 6-11,
Tables 5-6 and both case studies.

Run:  python examples/crowd_study.py [scale]
      (scale defaults to 0.02; the paper's full size is 1.0)
"""

import sys

from repro.analysis import (
    country_distribution,
    format_table,
    isp_dns_table,
    measurements_per_app,
    measurements_per_user,
    representative_app_table,
    rules,
)
from repro.analysis.coverage import dataset_statistics
from repro.analysis.dnsperf import dns_medians
from repro.analysis.perapp import (
    raw_rtt_medians,
    representative_packages_table_spec,
)
from repro.backend import (ChatDomainDegradationRule, RollupStore,
                           isp_summary)
from repro.crowd import Campaign, CampaignConfig


def main(scale: float = 0.02) -> None:
    print("synthesising campaign at scale %g ..." % scale)
    campaign = Campaign(config=CampaignConfig(scale=scale, seed=2016))
    store = campaign.run()

    stats = dataset_statistics(store)
    print("\n== Dataset (section 4.2.1; paper: 5,252,758 records, "
          "2,351 devices, 6,266 apps, 114 countries) ==")
    for key, value in stats.items():
        print("  %-12s %d" % (key, value))

    print("\n== Figure 6: measurements per user / app ==")
    print("  users:", measurements_per_user(store, scale=scale))
    print("  apps: ", measurements_per_app(store, scale=scale))

    print("\n== Figure 7: top-10 countries ==")
    for country, count in country_distribution(store, top=10):
        print("  %-12s %d" % (country, count))

    print("\n== Figure 9: raw RTT medians (paper: all 65 / WiFi 58 / "
          "cellular 84 / LTE 76) ==")
    for name, value in raw_rtt_medians(store).items():
        print("  %-9s %.1f ms" % (name, value))

    print("\n== Table 5: representative apps ==")
    rows = representative_app_table(
        store, representative_packages_table_spec())
    print(format_table(
        ["Category", "App", "#RTT", "Median (ms)"],
        [[r["category"], r["app"], r["count"], r["median_ms"]]
         for r in rows]))

    print("\n== Figure 10: DNS medians (paper: all 42 / WiFi 33 / "
          "4G 56 / 3G 105 / 2G 755) ==")
    for name, value in dns_medians(store).items():
        print("  %-9s %.1f ms" % (name, value))

    print("\n== Table 6: LTE operators' DNS ==")
    print(format_table(
        ["ISP", "Country", "#RTT", "Median (ms)"],
        [[r["isp"], r["country"], r["count"], r["median_ms"]]
         for r in isp_dns_table(store)]))

    # The case studies read the rollups a collector would serve.
    rollups = RollupStore()
    rollups.add_all(store)

    print("\n== Case 1: Whatsapp ==")
    whatsapp = ChatDomainDegradationRule().summarise(
        rollups, rules.WHATSAPP_SUFFIX, scale)
    print("  chat-domain median %.0f ms (paper 261), CDN median "
          "%.0f ms, app median %.0f ms (paper 133)"
          % (whatsapp["chat_median_ms"], whatsapp["cdn_median_ms"],
             whatsapp["app_median_ms"]))

    print("\n== Case 2: Jio ==")
    jio = isp_summary(rollups, "Jio 4G", scale, min_domain_count=50)
    print("  app median %.0f ms (paper 281) vs DNS median %.0f ms "
          "(paper 59); %d/%d domains faster on non-Jio LTE by "
          "%.0f ms on average (paper 63/71 by 138 ms)"
          % (jio["app_median_ms"], jio["dns_median_ms"],
             jio["domains_faster_elsewhere"],
             jio["comparable_domains"], jio["mean_gap_ms"]))


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.02)
