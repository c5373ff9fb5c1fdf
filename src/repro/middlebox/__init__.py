"""Middlebox simulation: transparent proxies and measurement
imperfections (docs/MIDDLEBOX.md).

The network is allowed to lie here the way real networks lie: a
split-connection proxy answers SYNs at middlebox RTT
(:class:`TransparentProxy`, whose client half is an
:class:`~repro.network.servers.AppServer`), and an imperfect device
clock distorts the recorded timestamps (:class:`ImperfectClock`).
Their counters are the ``mbox.*`` and ``imperfect.*`` catalog metrics,
read with ``obs.value(name)``.  Detection lives in
:mod:`repro.analysis.rules` / :mod:`repro.backend.detector`; the chaos
scenarios ``transparent_proxy`` and ``noisy_clock`` close the loop
against the ground-truth ledger.
"""

from repro.middlebox.ablation import (
    imperfection_variants,
    run_imperfection_ablation,
)
from repro.middlebox.imperfect import (
    ImperfectClock,
    install_imperfect_clock,
)
from repro.middlebox.proxy import (
    DEFAULT_INTERCEPT_PORTS,
    TransparentProxy,
)

__all__ = [
    "DEFAULT_INTERCEPT_PORTS",
    "ImperfectClock",
    "TransparentProxy",
    "imperfection_variants",
    "install_imperfect_clock",
    "run_imperfection_ablation",
]
