"""Domain application logic built on Qanaat's public API.

Three workflows matching the paper's motivating applications (§1):
supply chain management (:mod:`repro.apps.supplychain`), healthcare
(:mod:`repro.apps.healthcare`), and multi-platform crowdworking
(:mod:`repro.apps.crowdwork`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "crowdwork": ("CrowdworkContract", "WORK_CAP", "build_crowdwork_network"),
        "healthcare": ("HealthcareContract", "build_healthcare_network"),
        "supplychain": ("SupplyChainContract",),
    },
)
