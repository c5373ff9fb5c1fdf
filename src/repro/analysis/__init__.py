"""Analysis pipeline: regenerates every evaluation table and figure.

Each figure function consumes a
:class:`~repro.core.records.MeasurementStore` -- whether it came from
the live relay or the synthetic campaign -- and returns plain data
structures (dicts/lists) that the benchmark harness renders in the
paper's table/figure formats.  A dataset too large to hold is read in
one pass instead: :func:`dataset_statistics` over any record iterable,
with :func:`fold_rtts` folding the RTTs on the way into the rollups'
own histogram (``repro.backend.rollups.MergeHist``), from which
:func:`folded_rtt_medians` and :func:`folded_dns_medians` read the
headline medians to within one bin of exact.
"""

from repro.analysis.stats import cdf, fraction_below, median, percentile
from repro.analysis.coverage import (
    bucket_counts,
    country_distribution,
    dataset_statistics,
    location_scatter,
    measurements_per_app,
    measurements_per_user,
)
from repro.analysis.perapp import (
    app_rtt_cdfs,
    fold_rtts,
    folded_rtt_medians,
    per_app_median_cdf,
    representative_app_table,
)
from repro.analysis.dnsperf import (
    dns_cdfs_by_network,
    dns_cdfs_by_technology,
    folded_dns_medians,
    isp_dns_cdfs,
    isp_dns_table,
)
from repro.analysis.casestudies import jio_analysis, whatsapp_analysis
from repro.analysis.diagnosis import (
    Finding,
    Verdict,
    diagnose_all,
    diagnose_app,
    diagnose_operator,
)
from repro.analysis.asciiplot import (
    render_bars,
    render_cdf,
    render_histogram,
    render_map,
)
from repro.analysis.obsreport import (
    load_trace,
    render_metrics,
    render_time_budget,
    time_budget,
)
from repro.analysis.report import format_table
from repro.analysis.timeseries import (
    coverage_gaps,
    temporal_stability,
    weekly_medians,
    weekly_volumes,
)
from repro.analysis.validation import (
    compare_stores,
    ks_distance,
    median_ratio,
    seed_stability,
)

__all__ = [
    "Finding",
    "Verdict",
    "app_rtt_cdfs",
    "dataset_statistics",
    "fold_rtts",
    "folded_dns_medians",
    "folded_rtt_medians",
    "diagnose_all",
    "diagnose_app",
    "diagnose_operator",
    "render_bars",
    "render_cdf",
    "render_histogram",
    "render_map",
    "bucket_counts",
    "cdf",
    "compare_stores",
    "country_distribution",
    "coverage_gaps",
    "ks_distance",
    "median_ratio",
    "seed_stability",
    "temporal_stability",
    "weekly_medians",
    "weekly_volumes",
    "dns_cdfs_by_network",
    "dns_cdfs_by_technology",
    "format_table",
    "fraction_below",
    "isp_dns_cdfs",
    "isp_dns_table",
    "jio_analysis",
    "load_trace",
    "location_scatter",
    "measurements_per_app",
    "measurements_per_user",
    "median",
    "per_app_median_cdf",
    "percentile",
    "render_metrics",
    "render_time_budget",
    "representative_app_table",
    "time_budget",
    "whatsapp_analysis",
]
