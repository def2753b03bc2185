"""Comparison-function algebra: constructors, inversion, factorization, specs."""

import math

import numpy as np
import pytest

from ipss_lab.comparison_functions import (
    KLBound,
    MonotoneFn,
    apply_inverse,
    compose,
    identity_fn,
    inverse_fn,
    klbound_from_spec,
    klbound_to_spec,
    make_power_fn,
    make_table_fn,
    monotone_from_spec,
    monotone_to_spec,
    scale_fn,
    sontag_factorize_exponential,
)
from ipss_lab.errors import ParameterError, RangeError


class TestPowerFunctions:
    def test_identity(self):
        assert make_power_fn(1, 1).eval(3.0) == 3.0

    def test_square(self):
        assert make_power_fn(1, 2).eval(2.0) == 4.0

    def test_scaled_root(self):
        assert make_power_fn(2, 0.5).eval(9.0) == pytest.approx(6.0, abs=1e-12)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ParameterError):
            make_power_fn(0.0, 1.0)
        with pytest.raises(ParameterError):
            make_power_fn(1.0, -2.0)

    def test_derivative_matches_finite_differences(self):
        f = make_power_fn(1.7, 1.3)
        for s in np.geomspace(1e-3, 100.0, 40):
            h = 1e-6 * max(s, 1.0)
            fd = (f.eval(s + h) - f.eval(s - h)) / (2 * h)
            assert fd == pytest.approx(f.derivative(s), rel=1e-4)


class TestCompose:
    def test_inverse_pair_is_identity_on_grid(self):
        c = compose(make_power_fn(1, 2), make_power_fn(1, 0.5))
        for s in np.geomspace(1e-6, 1e6, 50):
            assert c.eval(s) == pytest.approx(s, rel=1e-12)

    def test_linear_chain(self):
        assert compose(make_power_fn(2, 1), make_power_fn(3, 1)).eval(1.0) == 6.0

    def test_square_after_double(self):
        assert compose(make_power_fn(1, 2), make_power_fn(2, 1)).eval(3.0) == 36.0

    def test_power_factors_collapse_with_spec(self):
        c = compose(make_power_fn(2.0, 1.5), make_power_fn(0.5, 0.7))
        assert c.spec == {"kind": "power", "c": 2.0 * 0.5 ** 1.5, "p": 1.5 * 0.7}
        assert compose(make_power_fn(2.0, 1.5), inverse_fn(make_power_fn(1, 2))).spec is None

    def test_tag_rules(self):
        kinf = make_power_fn(1, 1)
        k = MonotoneFn(eval=lambda s: float(s) / (1 + float(s)), class_tag="K")
        assert compose(kinf, kinf).class_tag == "Kinf"
        assert compose(kinf, k).class_tag == "K"

    def test_associativity_on_grid(self):
        f = make_power_fn(2.0, 1.5)
        g = make_power_fn(0.5, 0.7)
        h = make_power_fn(3.0, 1.1)
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        for s in np.geomspace(1e-4, 1e4, 60):
            assert left.eval(s) == pytest.approx(right.eval(s), rel=1e-12)


class TestInvert:
    """Inversion through the analytic inverse a function carries."""

    @staticmethod
    def bounded(tag):
        return MonotoneFn(eval=lambda s: float(s) / (1 + float(s)), class_tag=tag)

    def test_square_root(self):
        assert apply_inverse(make_power_fn(1, 2), 4.0) == 2.0

    def test_identity_case(self):
        assert apply_inverse(identity_fn(), 7.5) == 7.5

    def test_scaled_root(self):
        assert apply_inverse(make_power_fn(2, 0.5), 6.0) == pytest.approx(9.0, rel=1e-15)

    def test_zero_is_exact(self):
        table = make_table_fn([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 2.0])
        for f in (make_power_fn(1, 3), table, compose(table, make_power_fn(2, 0.5)),
                  scale_fn(table, 3.0)):
            assert apply_inverse(f, 0.0) == 0.0

    def test_bounded_k_function_without_inverse_rejected(self):
        with pytest.raises(ParameterError, match="carries no inverse"):
            apply_inverse(self.bounded("K"), 0.5)

    def test_kinf_tag_alone_gives_no_inverse(self):
        """The tag promises unboundedness, but only ``inverse`` is ever used."""
        with pytest.raises(ParameterError, match="carries no inverse"):
            apply_inverse(self.bounded("Kinf"), 0.5)
        with pytest.raises(ParameterError, match="carries no inverse"):
            inverse_fn(self.bounded("Kinf"))

    def test_p_tag_without_inverse_rejected(self):
        f = MonotoneFn(eval=lambda s: float(s) ** 2 / (1 + float(s)), class_tag="P")
        with pytest.raises(ParameterError, match="carries no inverse"):
            apply_inverse(f, 1.0)
        with pytest.raises(ParameterError, match="carries no inverse"):
            apply_inverse(compose(make_power_fn(1, 2), f), 1.0)

    def test_round_trip_random_power_family(self, rng):
        """f(f^{-1}(y)) = y within 1e-12 relative over the power family."""
        for _ in range(50):
            f = make_power_fn(float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.2, 4.0)))
            for y in np.geomspace(1e-6, 1e6, 13):
                assert f.eval(apply_inverse(f, float(y))) == pytest.approx(y, rel=1e-12)

    def test_array_inverse_equals_scalar_calls(self):
        table = make_table_fn([0.0, 1.0, 2.0, 4.0], [0.0, 0.5, 2.0, 3.0])
        y = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 25)])
        for f in (make_power_fn(1.7, 0.6), table, scale_fn(table, 2.5),
                  compose(table, make_power_fn(2, 0.5))):
            out = apply_inverse(f, y)
            assert out.shape == y.shape
            assert np.array_equal(out, [apply_inverse(f, float(v)) for v in y])

    def test_table_inverse_continues_the_end_slope(self):
        f = make_table_fn([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
        assert apply_inverse(f, 2.0) == pytest.approx(1.5)
        assert apply_inverse(f, 5.0) == pytest.approx(3.0)
        assert f.eval(apply_inverse(f, 1e6)) == pytest.approx(1e6, rel=1e-12)

    def test_composition_inverts_inner_after_outer(self):
        outer = make_table_fn([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
        inner = make_power_fn(2.0, 0.5)
        c = compose(outer, inner)
        for s in np.geomspace(1e-4, 1e4, 30):
            assert apply_inverse(c, c.eval(s)) == pytest.approx(s, rel=1e-10)
        assert apply_inverse(c, 2.0) == pytest.approx(0.25)

    def test_scaled_table_round_trip(self):
        f = scale_fn(make_table_fn([0.0, 1.0, 2.0], [0.0, 2.0, 3.0]), 4.0)
        for s in (0.25, 1.0, 1.5, 7.0):
            assert apply_inverse(f, f.eval(s)) == pytest.approx(s, rel=1e-12)

    def test_inverse_of_the_inverse_is_the_function(self):
        f = make_table_fn([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
        inv = inverse_fn(f)
        assert inv.class_tag == f.class_tag
        again = inverse_fn(inv)
        for s in (0.0, 0.5, 1.0, 1.75, 10.0):
            assert again.eval(s) == f.eval(s)


@pytest.mark.parametrize("f", [
    pytest.param(make_power_fn(1.7, 0.6), id="power"),
    pytest.param(make_table_fn([0.0, 1.0, 2.0, 4.0], [0.0, 0.5, 2.0, 3.0]), id="table"),
    pytest.param(scale_fn(make_table_fn([0.0, 1.0, 2.0, 4.0], [0.0, 0.5, 2.0, 3.0]), 2.5),
                 id="scaled_table"),
    pytest.param(compose(make_table_fn([0.0, 1.0, 2.0], [0.0, 2.0, 3.0]), make_power_fn(2.0, 0.5)),
                 id="table_after_power"),
    pytest.param(inverse_fn(make_table_fn([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])), id="inverse_table"),
    pytest.param(compose(*sontag_factorize_exponential(2.0, 0.5)), id="sontag_factors"),
])
def test_constructors_build_kinf_functions(f):
    """Each constructor keeps the Kinf tag, vanishes at 0 and rises strictly on a sampled grid."""
    s = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 40)])
    vals = np.array([f.eval(float(v)) for v in s])
    assert f.class_tag == "Kinf"
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] > 10.0 * vals[len(s) // 2]


class TestSontagFactorization:
    def test_half_rate_identity(self):
        """theta2^{-1}(K s e^{-lam t}) == theta1(s) e^{-t} pointwise."""
        t1, t2 = sontag_factorize_exponential(1.0, 0.5)
        s, t = 3.0, 1.0
        lhs = apply_inverse(t2, 1.0 * s * math.exp(-0.5 * t))
        assert lhs == pytest.approx(t1.eval(s) * math.exp(-t), rel=1e-12)
        assert lhs == pytest.approx(9.0 * math.exp(-1.0), rel=1e-12)

    def test_unit_factorization(self):
        t1, t2 = sontag_factorize_exponential(1.0, 1.0)
        for s in (0.3, 1.0, 5.0):
            assert t1.eval(s) == pytest.approx(s)
            assert t2.eval(s) == pytest.approx(s)

    def test_scaled_unit_rate(self):
        t1, t2 = sontag_factorize_exponential(2.0, 1.0)
        s, t = 4.0, 0.7
        assert apply_inverse(t2, 2.0 * s * math.exp(-t)) == pytest.approx(
            s * math.exp(-t), rel=1e-12)

    def test_residual_on_grid(self):
        """Defining inequality holds with equality on a 20x20 grid."""
        t1, t2 = sontag_factorize_exponential(3.0, 0.8)
        for s in np.geomspace(1e-3, 1e3, 20):
            for t in np.linspace(0.0, 10.0, 20):
                lhs = apply_inverse(t2, 3.0 * s * math.exp(-0.8 * t))
                rhs = t1.eval(s) * math.exp(-t)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_contracting_bound_rejected(self):
        with pytest.raises(ParameterError):
            sontag_factorize_exponential(0.5, 1.0)


class TestTablesAndSpecs:
    def test_table_interpolation_and_extension(self):
        f = make_table_fn([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
        assert f.eval(0.5) == pytest.approx(1.0)
        assert f.eval(3.0) == pytest.approx(4.0)  # continued end slope

    def test_table_inverse_with_flat_run_picks_right_edge(self):
        f = make_table_fn([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 2.0])
        assert apply_inverse(f, 0.0) == 0.0
        assert apply_inverse(f, 0.5) == pytest.approx(1.5)
        assert apply_inverse(f, 1.0) == pytest.approx(2.0)

    def test_table_inverse_keeps_the_rise_before_an_interior_flat_run(self):
        f = make_table_fn([0.0, 1.0, 2.0, 3.0], [0.0, 1.25, 1.25, 1.5])
        assert apply_inverse(f, 1.0) == pytest.approx(0.8, rel=1e-15)
        assert apply_inverse(f, 1.25) == 2.0  # the flat level, at its right edge
        assert apply_inverse(f, 1.3) == pytest.approx(2.2, rel=1e-15)

    def test_table_with_flat_last_segment_has_no_inverse(self):
        """There is no numeric fallback: a table inverts only through its own inverse."""
        f = make_table_fn([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        with pytest.raises(ParameterError, match="last segment rises"):
            apply_inverse(f, 0.5)
        with pytest.raises(ParameterError, match="last segment rises"):
            inverse_fn(f)

    @pytest.mark.parametrize("xs,ys", [
        ([0.0, 1.0, 2.0], [0.0, math.nan, 1.0]),
        ([0.0, math.nan, 2.0], [0.0, 1.0, 2.0]),
        ([0.0, 1.0, 2.0], [0.0, 1.0, math.inf]),
    ])
    def test_nonfinite_table_rejected(self, xs, ys):
        with pytest.raises(ParameterError, match="finite"):
            make_table_fn(xs, ys)
        with pytest.raises(ParameterError, match="finite"):
            monotone_from_spec({"kind": "table", "xs": xs, "ys": ys})

    def test_power_spec_round_trip(self):
        f = make_power_fn(2.5, 1.5)
        g = monotone_from_spec(monotone_to_spec(f))
        for s in np.geomspace(1e-3, 1e3, 20):
            assert g.eval(s) == f.eval(s)

    def test_sampled_spec_round_trip(self):
        f = MonotoneFn(eval=lambda s: float(s) + math.sin(float(s)) * 0.1 * float(s),
                       class_tag="Kinf")
        spec = monotone_to_spec(f, sample_grid=np.geomspace(1e-3, 10, 50))
        g = monotone_from_spec(spec)
        for x in spec["xs"]:
            assert g.eval(x) == pytest.approx(f.eval(x), rel=1e-12)

    def test_class_tag_survives_the_spec(self):
        """A bounded class-K function used to reload as Kinf, sampled or as a table."""
        bounded = MonotoneFn(eval=lambda s: s / (1.0 + s), class_tag="K")
        sampled = monotone_to_spec(bounded, sample_grid=np.linspace(0.0, 5.0, 11))
        table = monotone_to_spec(make_table_fn([0.0, 1.0, 2.0], [0.0, 1.0, 1.5], "K"))
        assert monotone_from_spec(sampled).class_tag == monotone_from_spec(table).class_tag == "K"
        assert "class_tag" not in monotone_to_spec(make_table_fn([0.0, 1.0], [0.0, 1.0]))

    def test_scale_fn(self):
        f = scale_fn(make_power_fn(1, 2), 3.0)
        assert f.eval(2.0) == pytest.approx(12.0)
        assert apply_inverse(f, 12.0) == pytest.approx(2.0)
        assert f.spec == {"kind": "power", "c": 3.0, "p": 2.0}

    def test_scale_fn_without_spec_keeps_the_wrapper(self):
        f = scale_fn(inverse_fn(make_power_fn(1, 2)), 2.0)
        assert f.spec is None
        assert f.eval(9.0) == pytest.approx(6.0)

    def test_inverse_fn_wrapper(self):
        inv = inverse_fn(make_power_fn(1, 2))
        assert inv.eval(9.0) == pytest.approx(3.0)


class TestKLBound:
    def test_exponential_eval(self):
        b = KLBound(kind="exponential", K=2.0, lam=0.5)
        assert b.eval(3.0, 0.0) == pytest.approx(6.0)
        assert b.eval(3.0, 2.0) == pytest.approx(6.0 * math.exp(-1.0))

    def test_exponential_requires_k_at_least_one(self):
        with pytest.raises(ParameterError):
            KLBound(kind="exponential", K=0.9, lam=1.0)

    def test_general_bound_class_checks(self):
        b = KLBound(kind="general", eval2=lambda s, t: s / (1.0 + t))
        s = np.geomspace(1e-3, 1e3, 20)
        for t in (0.0, 1.0, 10.0):
            assert np.all(np.diff([b.eval(float(v), t) for v in s]) > 0)
        vals = [b.eval(1.0, t) for t in np.linspace(0, 50, 30)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_exponential_spec_round_trip(self):
        b = KLBound(kind="exponential", K=1.5, lam=0.7)
        b2 = klbound_from_spec(klbound_to_spec(b))
        assert b2.eval(2.0, 3.0) == b.eval(2.0, 3.0)

    def test_table2d_round_trip_on_nodes(self):
        b = KLBound(kind="general", eval2=lambda s, t: 2.0 * s * np.exp(-t))
        s_grid = np.geomspace(0.1, 10, 12)
        t_grid = np.linspace(0.0, 5.0, 15)
        b2 = klbound_from_spec(klbound_to_spec(b, s_grid=s_grid, t_grid=t_grid))
        for s in s_grid:
            for t in t_grid:
                assert b2.eval(float(s), float(t)) == pytest.approx(
                    b.eval(float(s), float(t)), rel=1e-12)

    def test_table2d_reproduces_bilinear_samples_between_nodes(self, rng):
        def f(s, t):
            return 0.5 + 1.25 * s - 0.75 * t + 0.375 * s * t

        s_grid = [0.0, 0.3, 1.0, 2.5, 6.0]
        t_grid = [0.0, 0.5, 2.0, 5.0]
        b = klbound_from_spec({"kind": "table2d", "s": s_grid, "t": t_grid,
                               "values": [[f(s, t) for t in t_grid] for s in s_grid]})
        s, t = rng.uniform(0.0, 6.0, 200), rng.uniform(0.0, 5.0, 200)
        np.testing.assert_allclose(b.eval(s, t), f(s, t), rtol=1e-12, atol=1e-12)
        assert b.eval(float(s[0]), float(t[0])) == pytest.approx(f(s[0], t[0]), rel=1e-12)

    def test_table2d_refuses_s_beyond_grid_and_clamps_t(self):
        """Clamping s would understate the bound; clamping t overstates it."""
        b = klbound_from_spec({"kind": "table2d", "s": [0.0, 1.0, 2.0], "t": [0.0, 1.0],
                               "values": [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]]})
        with pytest.raises(RangeError, match=r"s=2.5 beyond its s grid \[0, 2\]"):
            b.eval(2.5, 0.0)
        with pytest.raises(RangeError):
            b.eval(np.array([1.0, 3.0]), 0.0)
        assert b.eval(2.0, 0.0) == 2.0
        assert b.eval(2.0, 7.0) == b.eval(2.0, 1.0) == 1.0
