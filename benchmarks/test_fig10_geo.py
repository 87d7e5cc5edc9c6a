"""Figure 10: scalability across spatial domains.

Clusters are spread over the paper's four AWS regions (TY/SU/VA/CA RTT
matrix, §5.4; ``topology.wan`` selects the model in
``repro.scenarios.build``).  Expected shape: WAN round-trips dominate latency; the
flattened protocols suffer most for cross-enterprise traffic; the
privacy-firewall overhead shrinks relative to WAN latency.
"""

import pytest

from repro.workload.generator import WorkloadMix

SYSTEMS = ["Flt-C", "Crd-C", "Flt-B", "Crd-B", "Crd-B(PF)"]


@pytest.mark.parametrize("system", SYSTEMS)
def test_fig10a_isce_wan(bench_point, system):
    bench_point(
        system,
        WorkloadMix(cross=0.10, cross_type="isce"),
        wan=True,
    )


@pytest.mark.parametrize("system", ["Flt-C", "Crd-B"])
def test_fig10b_csie_wan(bench_point, system):
    bench_point(
        system,
        WorkloadMix(cross=0.10, cross_type="csie"),
        wan=True,
    )


@pytest.mark.parametrize("system", ["Crd-B", "Flt-B"])
def test_fig10c_csce_wan(bench_point, system):
    bench_point(
        system,
        WorkloadMix(cross=0.10, cross_type="csce"),
        wan=True,
    )
