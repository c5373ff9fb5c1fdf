"""Case study 2: Jio, India's largest 4G ISP.

Paper: Jio's app-traffic median RTT is 281 ms over 76,717 measurements
while its DNS median is only 59 ms (root cause in the LTE core
network); of 115 analysed domains only 19 have medians below 100 ms and
67 exceed 200 ms; 63 of 71 comparable domains are on average 138 ms
faster on non-Jio LTE networks.

Measured on the rollups a collector would serve for the crowd dataset:
every median is a rollup's lower median, within one 0.25 ms bin of the
exact one.
"""

from repro.analysis import format_table
from repro.backend.detector import isp_summary


def test_case2_jio(crowd_rollups, bench_scale, benchmark):
    from benchmarks._common import save_result
    result = benchmark(isp_summary, crowd_rollups, "Jio 4G", bench_scale,
                       100)

    rows = [
        ["app RTT median (ms)", result["app_median_ms"], 281],
        ["DNS median (ms)", result["dns_median_ms"], 59],
        ["domains analysed (>=100 samples)",
         result["domains_analysed"], 115],
        ["domains with median <100ms",
         result["domain_bands"]["<100ms"], 19],
        ["domains with median >200ms",
         result["domain_bands"][">200ms"], 67],
        ["domains with median >300ms",
         result["domain_bands"][">300ms"], 57],
        ["comparable domains on non-Jio LTE",
         result["comparable_domains"], 71],
        ["... faster on non-Jio LTE",
         result["domains_faster_elsewhere"], 63],
        ["mean Jio minus non-Jio gap (ms)", result["mean_gap_ms"],
         138],
    ]
    text = format_table(["Metric", "Measured", "Paper"], rows,
                        title="Case 2: Jio 4G.")
    save_result("case2_jio", text)

    # The case's signature: slow app path, fast local DNS.
    assert result["app_median_ms"] > 3 * result["dns_median_ms"]
    assert 180 < result["app_median_ms"] < 400
    assert result["dns_median_ms"] < 100
    assert result["domains_analysed"] > 20
    bands = result["domain_bands"]
    assert bands[">200ms"] > bands["<100ms"]
    # Nearly every comparable domain is faster off Jio, by a lot.
    assert result["domains_faster_elsewhere"] >= \
        0.8 * result["comparable_domains"]
    assert result["mean_gap_ms"] > 80
