"""Million-victim campaign simulator.

Samples heterogeneous victim populations (browser layout × cookie
alphabet × reconnect cadence × injection budget), groups victims that
share a keystream regime so RC4 generation is paid once per group (one
capture source per group, one plaintext per victim), and reduces each
campaign to per-cell success-rate and time-to-first-recovery surfaces.
"""

from .campaign import (
    HTTPS_AXES,
    TKIP_AXES,
    CampaignResult,
    Group,
    VictimOutcome,
    plan_https_groups,
    plan_tkip_groups,
    run_https_campaign,
    run_tkip_campaign,
    split_population,
)
from .population import (
    DEFAULT_BROWSERS,
    DEFAULT_BUDGETS,
    DEFAULT_CHARSETS,
    DEFAULT_RECONNECT_REGIMES,
    Population,
    VictimSpec,
)

__all__ = [
    "DEFAULT_BROWSERS",
    "DEFAULT_BUDGETS",
    "DEFAULT_CHARSETS",
    "DEFAULT_RECONNECT_REGIMES",
    "HTTPS_AXES",
    "TKIP_AXES",
    "CampaignResult",
    "Group",
    "Population",
    "VictimOutcome",
    "VictimSpec",
    "plan_https_groups",
    "plan_tkip_groups",
    "run_https_campaign",
    "run_tkip_campaign",
    "split_population",
]
