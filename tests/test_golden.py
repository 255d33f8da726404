import numpy as np
import pytest

from bruhatdiag.golden import (
    GOLDEN_TOL,
    cpn_closed_form,
    hp1_closed_form,
    rp_even_closed_form,
    rp_odd_closed_form,
    run_suite,
    suite_names,
    so6u3_closed_form,
)


class TestClosedForms:
    def test_cpn_zero_input(self):
        assert np.abs(cpn_closed_form(np.zeros(3)) - 1.0).max() == 0.0

    def test_cpn_sphere_entry(self):
        d = cpn_closed_form([np.sqrt(1 / 3)])
        assert d[0] == pytest.approx(0.5)
        assert d[1] == pytest.approx(2.0)

    def test_hp1_zero_input(self):
        assert np.abs(hp1_closed_form(0.0, 0.0) - 1.0).max() == 0.0

    def test_so6u3_entries_pair_up(self):
        d = so6u3_closed_form(0.2 + 0.1j, -0.3j, 0.1)
        for k in range(3):
            assert d[k] * d[5 - k] == pytest.approx(1.0)

    def test_rp_even_product_one(self):
        d = rp_even_closed_form([0.4, 0.2 - 0.1j])
        assert np.prod(d) == pytest.approx(1.0)

    def test_rp_odd_middle_phases(self):
        s = 0.7
        d = rp_odd_closed_form([0.1, 0.2], s)
        mid = (1 - 1j * s) / (1 + 1j * s)
        assert d[2] == pytest.approx(mid)
        assert d[3] == pytest.approx(1 / mid)


class TestSuites:
    def test_names(self):
        assert set(suite_names()) == {
            "cpn", "so6u3", "hp1", "rp_even", "rp_odd", "rp6", "rp5"}

    @pytest.mark.parametrize("name", sorted(
        {"cpn", "so6u3", "hp1", "rp_even", "rp_odd", "rp6", "rp5"}))
    def test_each_suite_passes(self, name):
        result = run_suite(name, draws=50, seed=0)
        assert result.ok, (name, result.violations["max_deviation"])

    def test_each_suite_is_judged_at_its_own_tolerance(self):
        assert run_suite("cpn", draws=5).tolerance == 1e-10
        assert run_suite("hp1", draws=5).tolerance == GOLDEN_TOL
        with pytest.raises(TypeError):
            run_suite("cpn", draws=5, tol=1e-9)

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown golden suite"):
            run_suite("nope")

    def test_run_all_deterministic(self):
        a = [run_suite(name, draws=10, seed=4).violations["max_deviation"]
             for name in suite_names()]
        b = [run_suite(name, draws=10, seed=4).violations["max_deviation"]
             for name in suite_names()]
        assert a == b
