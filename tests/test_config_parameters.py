"""Unit and property tests for repro.config.parameters."""

import pytest
from hypothesis import given, strategies as st

from repro.config import (
    ParameterError,
    SimulationParameters,
    params_for_period,
)


class TestValidation:
    def test_defaults_valid(self):
        p = SimulationParameters()
        assert p.nex_xi == 16
        assert p.nproc_total == 6

    def test_nex_multiple_of_2nproc(self):
        with pytest.raises(ParameterError):
            SimulationParameters(nex_xi=10, nproc_xi=4)

    def test_valid_multi_slice(self):
        p = SimulationParameters(nex_xi=16, nproc_xi=2)
        assert p.nproc_total == 24
        assert p.nex_per_slice == 8

    def test_bad_kernel_variant(self):
        with pytest.raises(ParameterError):
            SimulationParameters(kernel_variant="cuda")

    def test_bad_station_mode(self):
        with pytest.raises(ParameterError):
            SimulationParameters(station_location="triangulated")

    def test_bad_courant(self):
        with pytest.raises(ParameterError):
            SimulationParameters(courant=0.0)
        with pytest.raises(ParameterError):
            SimulationParameters(courant=1.5)

    def test_negative_layers(self):
        with pytest.raises(ParameterError):
            SimulationParameters(ner_outer_core=0)

    def test_frozen(self):
        p = SimulationParameters()
        with pytest.raises(Exception):
            p.nex_xi = 32  # type: ignore[misc]

    def test_with_updates_revalidates(self):
        p = SimulationParameters(nex_xi=16, nproc_xi=2)
        q = p.with_updates(nex_xi=32)
        assert q.nex_xi == 32 and q.nproc_xi == 2
        with pytest.raises(ParameterError):
            p.with_updates(nex_xi=10)


class TestDerived:
    def test_paper_62k_configuration(self):
        # 62K cores ~ 6 * 102^2 = 62,424 slices; Ranger has 62,976 cores.
        p = SimulationParameters(nex_xi=4896, nproc_xi=102)
        assert p.nproc_total == 62424
        assert p.nex_per_slice == 48

    def test_shortest_period(self):
        p = SimulationParameters(nex_xi=2176)
        assert p.shortest_period_s == pytest.approx(2.0)

    def test_roundtrip_dict(self):
        p = SimulationParameters(nex_xi=32, nproc_xi=2, attenuation=True)
        q = SimulationParameters.from_dict(p.to_dict())
        assert p == q

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ParameterError):
            SimulationParameters.from_dict({"NAX_XI": 16})


class TestParamsForPeriod:
    def test_achieved_period_not_longer(self):
        p = params_for_period(2.0, nproc_xi=4)
        assert p.shortest_period_s <= 2.0
        assert p.nex_xi % 8 == 0

    @given(
        period=st.floats(min_value=1.0, max_value=100.0),
        nproc=st.integers(min_value=1, max_value=16),
    )
    def test_property_always_valid(self, period, nproc):
        p = params_for_period(period, nproc_xi=nproc)
        # Composition rule always satisfied and target period achieved.
        assert p.nex_xi % (2 * nproc) == 0
        assert p.shortest_period_s <= period + 1e-9


@given(
    nex=st.integers(min_value=1, max_value=200),
    nproc=st.integers(min_value=1, max_value=20),
)
def test_property_constructor_accepts_iff_rule_holds(nex, nproc):
    nex2 = nex * 2 * nproc  # always satisfies the rule
    p = SimulationParameters(nex_xi=nex2, nproc_xi=nproc)
    assert p.nex_per_slice * nproc == p.nex_xi
