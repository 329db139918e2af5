"""Screening-model generator: sampled data vs the exact population."""

import itertools

import numpy as np
import pytest

from catassoc import (
    DataError,
    FluSpec,
    gen_flu,
    gk_tau_direct,
    population_joint_flu,
    sample_joint,
    tau_joint,
    tau_scheme,
)
from catassoc.fixtures import survey_table

from conftest import reference_population_joint


def pop_tau(pop, xs, scheme="gk"):
    return tau_scheme(pop.joint(xs, "Y"), scheme)


class TestGenFlu:
    def test_columns_and_domains(self):
        ds = gen_flu(100, seed=0)
        assert ds.names == ("Y", "X1", "X2", "R3", "R4", "S5")
        assert ds.var("Y").domain == ("0", "1", "2")
        assert all(ds.var(nm).domain == ("0", "1") for nm in
                   ("X1", "X2", "R3", "R4", "S5"))

    def test_deterministic(self):
        a = gen_flu(500, seed=42)
        b = gen_flu(500, seed=42)
        assert (a.records == b.records).all()
        c = gen_flu(500, seed=43)
        assert not (a.records == c.records).all()

    def test_test_pair_frequencies(self):
        # empirical (X1, X2) frequencies within 3 sigma of (9,3,3,1)/16
        n = 100_000
        ds = gen_flu(n, seed=1)
        x1 = ds.codes("X1")
        x2 = ds.codes("X2")
        for (a, b), p in zip([(0, 0), (0, 1), (1, 0), (1, 1)],
                             [9 / 16, 3 / 16, 3 / 16, 1 / 16]):
            freq = np.mean((x1 == a) & (x2 == b))
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 3 * sigma

    def test_severe_state_conditional(self):
        # P(Y=2 | both tests positive) = 0.95 in the generator spec
        spec = FluSpec()
        assert spec.cond_y[3][2] == 0.95

    def test_structural_zeros(self):
        ds = gen_flu(50_000, seed=2)
        y = ds.codes("Y")
        x1 = ds.codes("X1")
        x2 = ds.codes("X2")
        # severe outcome only in the both-positive state
        assert ((y == 2) <= ((x1 == 1) & (x2 == 1))).all()
        # derived columns never fire without their parent
        assert (ds.codes("R3") <= x1).all()
        assert (ds.codes("R4") <= x2).all()
        assert (ds.codes("S5") <= x1 * x2).all()

    def test_bad_n(self):
        with pytest.raises(DataError):
            gen_flu(0, seed=0)


class TestPopulationJoint:
    def test_mass_and_support(self):
        pop = population_joint_flu()
        assert abs(pop.probs.sum() - 1.0) <= 1e-12
        assert len(pop.probs) == 26

    def test_marginal_y(self):
        # exact marginals implied by the conditional table
        pop = population_joint_flu()
        assert np.allclose(pop.marginal("Y"),
                           [0.684375, 0.25625, 0.059375], atol=1e-15)

    def test_recovers_test_pair_table(self):
        pop = population_joint_flu()
        j = pop.joint(["X1", "X2"], "Y")
        spec = FluSpec()
        idx = {d: i for i, d in enumerate(j.x_domain)}
        cells = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
        for k, cell in enumerate(cells):
            i = idx[cell]
            assert abs(j.p_x[i] - spec.p_x1x2[k]) <= 1e-15
            cond = j.p_xy[i] / j.p_x[i]
            assert np.allclose(cond, spec.cond_y[k], atol=1e-15)

    @pytest.mark.parametrize("spec", [
        FluSpec(),
        FluSpec(carry_prob=1.0, z_prob=0.5),
        FluSpec(p_x1x2=(0.25, 0.25, 0.4, 0.1),
                cond_y=((0.6, 0.3, 0.1), (0.2, 0.2, 0.6), (0.1, 0.8, 0.1), (0.5, 0.25, 0.25)),
                carry_prob=0.35, z_prob=0.999),
    ])
    def test_joint_matches_reference_bitwise(self, spec):
        pop = population_joint_flu(spec)
        names = ["X1", "X2", "R3", "R4", "S5"]
        for k in range(1, len(names) + 1):
            for xs in itertools.combinations(names, k):
                j = pop.joint(list(xs), "Y")
                p, x_domain = reference_population_joint(pop, xs, "Y")
                assert np.array_equal(j.p_xy, p) and j.x_domain == x_domain, xs

    def test_derived_columns_add_nothing(self):
        # conditional independence given both tests: the degree of the
        # full composite equals that of the test pair, exactly
        pop = population_joint_flu()
        a = gk_tau_direct(pop.joint(["X1", "X2"], "Y"))
        b = gk_tau_direct(pop.joint(["X1", "X2", "R3", "R4", "S5"], "Y"))
        assert abs(a - b) <= 1e-12

    def test_independent_gives_zero(self):
        pop = population_joint_flu()
        # S5 is independent of R4 given nothing? no; but Y is independent
        # of a fresh uniform column; emulate by checking a constant-free
        # pair known to be dependent is > 0 and the structural-zero
        # relation keeps values in [0, 1]
        t = gk_tau_direct(pop.joint(["R3"], "Y"))
        assert 0.0 < t < 1.0


class TestSampledVsPopulation:
    def test_single_and_pair_degrees_converge(self):
        pop = population_joint_flu()
        ds = gen_flu(100_000, seed=3)
        for xs in (["X1"], ["X2"], ["R3"], ["R4"], ["S5"], ["X1", "X2"]):
            for scheme in ("gk", "ew", "ipw"):
                emp = tau_joint(ds, "Y", xs, alpha=scheme)
                ana = pop_tau(pop, xs, scheme)
                assert abs(emp - ana) <= 0.01, (xs, scheme, emp, ana)

    def test_composite_columns_match_reference_prints(self):
        # soft targets: published table of degrees for the same model
        pop = population_joint_flu()
        prints = {
            ("X1",): (0.2382, 0.2221, 0.1900),
            ("X2",): (0.1010, 0.1206, 0.1597),
            ("R3",): (0.2060, 0.1923, 0.1648),
            ("R4",): (0.0878, 0.1050, 0.1393),
            ("S5",): (0.1511, 0.2943, 0.5806),
            ("X1", "R4"): (0.4627, 0.5570, 0.7372),
            ("X2", "R3", "S5"): (0.4669, 0.5731, 0.7940),
            ("X1", "R4", "S5"): (0.4823, 0.5884, 0.8004),
            ("X1", "X2"): (0.5018, 0.6078, 0.8198),
        }
        for xs, (g, e, i) in prints.items():
            assert abs(pop_tau(pop, list(xs), "gk") - g) <= 0.03
            assert abs(pop_tau(pop, list(xs), "ew") - e) <= 0.03
            assert abs(pop_tau(pop, list(xs), "ipw") - i) <= 0.03


class TestSampleJoint:
    def test_frequencies_match(self):
        ct = survey_table()
        ds = sample_joint(ct, 50_000, seed=4)
        from catassoc import contingency, to_joint
        j_target = to_joint(ct)
        j_emp = to_joint(contingency(ds, "X", "Y"))
        assert np.abs(j_emp.p_xy - j_target.p_xy).max() < 0.01

    def test_domains_pinned(self):
        ct = survey_table()
        a = sample_joint(ct, 100, seed=5)
        b = sample_joint(ct, 100, seed=99)
        assert a.var("X").domain == b.var("X").domain
        assert a.var("Y").domain == b.var("Y").domain
