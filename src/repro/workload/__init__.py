"""Workload generation: the Locust substitute.

The paper drives each experiment with emulated users sending requests
under a Poisson process with a 1 RPS mean arrival rate per user (Section
5.3), over constant, diurnal, and request-mix-varying scenarios.  This
package provides open-loop load patterns with per-request-type mixes.
"""

from repro.workload.patterns import (
    LoadPattern,
    ConstantLoad,
    StepLoad,
    DiurnalLoad,
)
from repro.workload.generator import Workload, RequestMix
from repro.workload.mixes import SOCIAL_MIXES, social_mix, hotel_mix, media_mix

__all__ = [
    "LoadPattern",
    "ConstantLoad",
    "StepLoad",
    "DiurnalLoad",
    "Workload",
    "RequestMix",
    "SOCIAL_MIXES",
    "social_mix",
    "hotel_mix",
    "media_mix",
]
