"""Synthetic crowdsourcing campaign (section 4.2 substitute).

The paper's dataset came from 2,351 phones in the wild over ten months.
Without Google Play, this package synthesises a dataset with the same
schema and the same statistical structure: a device population matching
the paper's country/model distributions, an ISP catalog whose DNS and
path models are calibrated to Table 6 / Figures 10-11, an app catalog
calibrated to Table 5 (including Whatsapp's domain split and Jio's core
network problem), and a campaign driver that emits
:class:`~repro.core.records.MeasurementRecord` streams the analysis
pipeline consumes unchanged.
"""

from repro.crowd.isps import (
    CELLULAR_ISPS,
    IspProfile,
    WIFI_PROFILE_BY_COUNTRY,
    isp_by_name,
    isps_for_country,
)
from repro.crowd.appcatalog import (
    AppCatalog,
    AppProfile,
    DomainProfile,
    build_catalog,
)
from repro.crowd.population import (
    COUNTRY_USERS,
    CrowdDevice,
    Population,
)
from repro.crowd.campaign import (
    Campaign,
    CampaignConfig,
    device_stream_rng,
    stable_ip_for_domain,
)
from repro.crowd.sharding import (
    ShardedCampaign,
    ShardedRunResult,
    ShardResult,
    ShardSpec,
    plan_shards,
)

__all__ = [
    "AppCatalog",
    "AppProfile",
    "Campaign",
    "CampaignConfig",
    "CELLULAR_ISPS",
    "COUNTRY_USERS",
    "CrowdDevice",
    "DomainProfile",
    "IspProfile",
    "Population",
    "ShardSpec",
    "ShardResult",
    "ShardedCampaign",
    "ShardedRunResult",
    "WIFI_PROFILE_BY_COUNTRY",
    "build_catalog",
    "device_stream_rng",
    "isp_by_name",
    "isps_for_country",
    "plan_shards",
    "stable_ip_for_domain",
]
