"""Case study 1: *.whatsapp.net domains do not perform well.

Paper: 334 whatsapp.net domains; median RTT over the 331 SoftLayer
(chat) domains is ~261 ms while the three Facebook-CDN media domains
stay below 100 ms; among the 20 most-accessed networks only two see
chat-domain medians below 100 ms.

Measured on the rollups a collector would serve for the crowd dataset:
every median is a rollup's lower median, within one 0.25 ms bin of the
exact one.
"""

from repro.analysis import format_table, rules
from repro.backend.detector import ChatDomainDegradationRule


def test_case1_whatsapp(crowd_rollups, bench_scale, benchmark):
    from benchmarks._common import save_result
    result = benchmark(ChatDomainDegradationRule().summarise,
                       crowd_rollups, rules.WHATSAPP_SUFFIX, bench_scale)

    rows = [
        ["whatsapp.net domains observed", result["total_domains"],
         334],
        ["chat (SoftLayer) domains", result["chat_domains"], 331],
        ["chat-domain median (ms)", result["chat_median_ms"], 261],
        ["media (CDN) median (ms)", result["cdn_median_ms"], "<100"],
        ["app overall median (ms)", result["app_median_ms"], 133],
        ["chat domains with median >200ms",
         result["chat_domains_over_200ms"],
         "331-3=328 of those observed"],
    ]
    text = format_table(["Metric", "Measured", "Paper"], rows,
                        title="Case 1: Whatsapp server domains.")
    bands = result["network_bands"]
    text += "\n\nper-network chat-domain medians (top networks): " + \
        "  ".join("%s:%d" % (band, count)
                  for band, count in sorted(bands.items()))
    text += "\n(paper: 2 networks <100ms, 6 in 100-200, 8 in " \
        "200-300, 4 over 300)"
    save_result("case1_whatsapp", text)

    assert result["total_domains"] > 200
    assert result["chat_median_ms"] > 200
    assert result["cdn_median_ms"] < 100
    assert 100 < result["app_median_ms"] < 220
    most = result["chat_domain_count_with_median"]
    assert result["chat_domains_over_200ms"] / most > 0.75
    # Most top networks see chat medians above 200 ms.
    slow = bands.get("200-300ms", 0) + bands.get(">300ms", 0)
    fast = bands.get("<100ms", 0)
    assert slow > fast
