"""Spectral classification, Jacobian structure, and region scanning."""

from __future__ import annotations

import json
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbfsir import (
    Classification,
    Constant,
    ModelParams,
    Rank1Local,
    ScalarScaled,
    classify_equilibrium,
    dominant_eigen,
    jacobian_at_equilibrium,
    preset,
    region_to_json,
    region_to_svg,
    scan_region,
)
from nbfsir import stability
from nbfsir.errors import NumericalError, UsageError
from nbfsir.interaction import ExpressionFunction, ExpressionMatrix

from conftest import lam_2x2


class TestDominantEigen:
    def test_matches_closed_form_on_random_2x2(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            a = rng.uniform(0.0, 3.0, size=(2, 2))
            x = rng.uniform(0.0, 1.0, size=2)
            m = np.diag(x) @ a
            assert dominant_eigen(m).value == pytest.approx(
                lam_2x2(a, x), abs=1e-9)

    def test_symmetric_uniform_mixing(self):
        # diag(0.5, 0.5) @ (1.5 * ones) has dominant root 1.5 and a
        # uniform left direction
        m = np.diag([0.5, 0.5]) @ (1.5 * np.ones((2, 2)))
        eig = dominant_eigen(m)
        assert eig.value == pytest.approx(1.5, abs=1e-12)
        assert eig.irreducible
        assert eig.left_vector == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_asymmetric_example(self):
        m = np.diag([0.5, 0.5]) @ np.array([[3.0, 2.0], [1.0, 2.0]])
        eig = dominant_eigen(m)
        assert eig.value == pytest.approx(2.0, abs=1e-10)
        assert eig.left_vector == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_zero_matrix(self):
        eig = dominant_eigen(np.zeros((3, 3)))
        assert eig.value == pytest.approx(0.0, abs=1e-12)
        assert not eig.irreducible
        assert eig.left_vector is None

    def test_reducible_matrix_has_no_perron_vector(self):
        eig = dominant_eigen(np.array([[2.0, 1.0], [0.0, 1.0]]))
        assert eig.value == pytest.approx(2.0, abs=1e-10)
        assert not eig.irreducible
        assert eig.left_vector is None

    def test_left_vector_is_a_left_eigenvector(self):
        rng = np.random.default_rng(9)
        m = rng.uniform(0.1, 2.0, size=(4, 4))
        eig = dominant_eigen(m)
        assert eig.left_vector is not None
        assert eig.left_vector.sum() == pytest.approx(1.0, abs=1e-12)
        residual = eig.left_vector @ m - eig.value * eig.left_vector
        assert np.max(np.abs(residual)) < 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(UsageError, match="square"):
            dominant_eigen(np.ones((2, 3)))

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(UsageError, match="nonempty"):
            dominant_eigen(np.zeros((0, 0)))

    def test_rejects_negative_entries(self):
        with pytest.raises(UsageError, match="nonnegative"):
            dominant_eigen(np.array([[1.0, -0.5], [0.0, 1.0]]))

    def test_nilpotent_matrix_has_exact_zero_root(self):
        # every eigenvalue is 0; a reducible pattern has no Perron vector
        eig = dominant_eigen(np.array([[0.0, 0.75], [0.0, 0.0]]))
        assert eig.value == 0.0
        assert eig.left_vector is None

    def test_periodic_irreducible_pattern(self):
        # a 4-cycle has eigenvalues 2 * (1, i, -1, -i): four of equal
        # modulus, of which only the Perron root has the largest real part
        eig = dominant_eigen(2.0 * np.roll(np.eye(4), 1, axis=1))
        assert eig.value == pytest.approx(2.0, abs=1e-12)
        assert eig.irreducible
        assert eig.left_vector == pytest.approx([0.25] * 4, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entries_raise(self, bad):
        with pytest.raises(NumericalError, match="non-finite"):
            dominant_eigen(np.array([[1.0, bad], [0.5, 1.0]]))

    def test_single_and_batched_queries_agree(self):
        # scan_region evaluates the grid as one stack; classify_equilibrium
        # solves one matrix at a time
        rng = np.random.default_rng(7)
        params = ModelParams(
            gamma=1.0, interaction=Constant(rng.uniform(0.05, 3.0, size=(2, 2))))
        scan = scan_region(params, resolution=11)
        for i, x1 in enumerate(scan.axis):
            for j, x2 in enumerate(scan.axis):
                single = classify_equilibrium(params, (x1, x2)).lambda_max
                assert scan.lambda_grid[i, j] == pytest.approx(single, abs=1e-12)

    def test_transient_rayleigh_plateau_does_not_stop_the_iteration(self):
        # For this matrix the first two Rayleigh quotients of a power
        # iteration shifted by 1 + max row sum are exactly equal (both
        # 3.2) while the iterate is far from the eigenvector, so an
        # iterative solver stopping on quotient agreement would report
        # 1.0 instead of the true root 0.98097.
        m = np.diag([0.4, 0.16]) @ np.array([[1.0, 2.0], [3.0, 2.0]])
        expected = max(np.linalg.eigvals(m).real)
        got = dominant_eigen(m).value
        assert got == pytest.approx(expected, abs=1e-9)
        assert abs(got - 1.0) > 1e-3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_monotone_in_the_entries(self, seed):
        """Growing any entry never shrinks the dominant eigenvalue."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        c = rng.uniform(0.1, 3.0, size=(n, n))
        b = c * rng.uniform(0.1, 1.0, size=(n, n))
        assert dominant_eigen(b).value <= dominant_eigen(c).value + 1e-12


def _ulps_from(got: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """|got - expected| in units of the last place of expected."""
    return np.abs(got - expected) / np.spacing(np.abs(expected))


class TestTwoByTwoClosedForm:
    """_perron_roots solves a stack of 2x2 matrices by formula, not LAPACK."""

    @staticmethod
    def _stacks():
        rng = np.random.default_rng(41)
        random = rng.uniform(0.0, 3.0, size=(20_000, 2, 2))
        diagonal = random * np.eye(2)
        upper = random.copy()
        upper[:, 1, 0] = 0.0
        lower = random.copy()
        lower[:, 0, 1] = 0.0
        # entries down to -1e-9 pass the interaction checks, so bc < 0,
        # with real (g > sqrt|bc|) and complex pairs alike
        negative = random.copy()
        negative[:, 0, 1] = -rng.uniform(0.0, 1e-9, size=len(random))
        negative[::2, 1, 1] = negative[::2, 0, 0]
        return {"random": random, "diagonal": diagonal, "upper": upper,
                "lower": lower, "negative": negative}

    @pytest.mark.parametrize(
        "kind", ["random", "diagonal", "upper", "lower", "negative"])
    def test_matches_lapack_within_four_ulps(self, kind):
        mats = self._stacks()[kind]
        expected = np.linalg.eigvals(mats).real.max(axis=-1)
        got = stability._perron_roots(mats)
        assert _ulps_from(got, expected).max() <= 4.0

    def test_all_zero_matrices_have_root_zero(self):
        roots = stability._perron_roots(np.zeros((5, 2, 2)))
        assert np.array_equal(roots, np.zeros(5))

    def test_complex_pair_gives_the_shared_real_part(self):
        # eigenvalues 1 +- 1e-9 i: a complex pair, so the root is 1
        m = np.array([[1.0, -1e-9], [1e-9, 1.0]])
        assert stability._perron_roots(m) == 1.0
        assert max(np.linalg.eigvals(m).real) == 1.0

    def test_wide_magnitudes_match_a_fifty_digit_oracle(self):
        # LAPACK returns 0 for the first matrix, whose root is 1
        rng = np.random.default_rng(43)
        mats = np.concatenate([
            np.array([[[1e-300, 1e300], [1e-300, 1e-300]],
                      [[1e300, 1e-300], [1e300, 1e-300]],
                      [[1e-300, 0.0], [0.0, 1e-300]]]),
            10.0 ** rng.uniform(-300.0, 300.0, size=(2000, 2, 2))])
        with localcontext() as ctx:
            ctx.prec = 50
            expected = []
            for (a, b), (c, d) in mats:
                a, b, c, d = map(Decimal, (a, b, c, d))
                half = (a - d) / 2
                expected.append(float((a + d) / 2 + (half * half + b * c).sqrt()))
        expected = np.array(expected)
        got = stability._perron_roots(mats)
        assert got[0] == 1.0
        assert _ulps_from(got, expected).max() <= 4.0

    def test_left_vector_is_the_positive_left_eigenvector(self):
        rng = np.random.default_rng(47)
        for _ in range(500):
            m = rng.uniform(0.0, 3.0, size=(2, 2))
            m[0, 1] += 0.05
            m[1, 0] += 0.05
            eig = dominant_eigen(m)
            v = eig.left_vector
            assert eig.irreducible and (v > 0).all()
            assert v.sum() == pytest.approx(1.0, abs=1e-15)
            assert np.abs(v @ m - eig.value * v).max() <= 1e-14 * eig.value
            vals, vecs = np.linalg.eig(m.T)
            ref = np.abs(vecs[:, np.argmax(vals.real)])
            assert v == pytest.approx(ref / ref.sum(), abs=1e-13)

    def test_left_vector_of_a_nearly_scalar_matrix(self):
        # lambda - a rounds to 0 here, yet the left vector is (sqrt c,
        # sqrt b) normalised
        eig = dominant_eigen(np.array([[1.0, 4e-20], [1e-20, 1.0]]))
        assert eig.left_vector == pytest.approx([1.0 / 3.0, 2.0 / 3.0],
                                                rel=1e-15)


class TestLapackCalls:
    @pytest.fixture
    def lapack_calls(self, monkeypatch):
        calls = []
        for name in ("eigvals", "eig"):
            real = getattr(np.linalg, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        return calls

    @pytest.mark.parametrize("name", ["example2a", "example2b", "example2c",
                                      "example2d", "example3", "example4"])
    def test_region_scans_make_none(self, lapack_calls, name):
        scan_region(preset(name).params(), resolution=41)
        assert lapack_calls == []

    def test_two_node_classification_makes_none(self, lapack_calls):
        report = classify_equilibrium(preset("example3").params(), [0.3, 0.7])
        assert report.irreducible
        assert lapack_calls == []

    def test_larger_matrices_take_one_call(self, lapack_calls):
        m = np.random.default_rng(53).uniform(0.1, 2.0, size=(3, 3))
        assert dominant_eigen(m).irreducible
        assert lapack_calls == ["eig"]


class TestClassifyEquilibrium:
    def test_rising_caution_model_interior_point(self):
        # lambda at x = (0.3, 0.3) is sum x_i (1 + x_i) = 0.78 < 1
        report = classify_equilibrium(preset("example3").params(),
                                      np.array([0.3, 0.3]))
        assert report.lambda_max == pytest.approx(0.78, abs=1e-9)
        assert report.classification is Classification.STABLE
        assert report.irreducible
        assert report.perron_vector.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fatigue_model_full_susceptibility(self):
        # lambda at x = (1, 1) is sum x_i (2 - x_i) = 2 > 1
        report = classify_equilibrium(preset("example4").params(),
                                      np.array([1.0, 1.0]))
        assert report.lambda_max == pytest.approx(2.0, abs=1e-9)
        assert report.classification is Classification.UNSTABLE

    def test_empty_population_is_stable(self):
        report = classify_equilibrium(preset("example2a").params(),
                                      np.zeros(2))
        assert report.lambda_max == pytest.approx(0.0, abs=1e-12)
        assert report.classification is Classification.STABLE
        assert report.perron_vector is None

    def test_marginal_band(self):
        params = ModelParams(gamma=1.0, interaction=Constant(np.ones((2, 2))))
        # lambda = x1 + x2 exactly 1 on the diagonal
        report = classify_equilibrium(params, np.array([0.5, 0.5]))
        assert report.classification is Classification.MARGINAL
        wide = classify_equilibrium(params, np.array([0.5, 0.45]),
                                    marginal_band=0.1)
        assert wide.classification is Classification.MARGINAL

    def test_input_validation(self):
        params = preset("example2a").params()
        with pytest.raises(UsageError, match="shape"):
            classify_equilibrium(params, np.array([0.5]))
        with pytest.raises(UsageError, match=r"\[0,1\]"):
            classify_equilibrium(params, np.array([0.5, 1.2]))
        with pytest.raises(UsageError, match="marginal_band"):
            classify_equilibrium(params, np.array([0.5, 0.5]),
                                 marginal_band=-1.0)

    @pytest.mark.parametrize("x_star", [[np.nan, 0.2], [0.2, np.inf]])
    def test_non_finite_point_is_a_usage_error(self, x_star):
        # NaN fails every comparison, so it used to pass the [0,1] check
        # and end in NumericalError from the eigenvalue layer
        params = preset("example2a").params()
        with pytest.raises(UsageError, match=r"x_star must lie in \[0,1\]"):
            classify_equilibrium(params, x_star)
        with pytest.raises(UsageError, match=r"x_star must lie in \[0,1\]"):
            jacobian_at_equilibrium(params, x_star)


def _leverrier_char_poly(m: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients by the Faddeev recursion.

    Returns [1, c1, ..., cn] with p(s) = s^n + c1 s^(n-1) + ... + cn,
    an eigenvalue route fully independent of iterative eigensolvers.
    """
    n = m.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    work = np.zeros_like(m)
    for k in range(1, n + 1):
        work = m @ work + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(m @ work) / k
    return coeffs


class TestJacobian:
    def test_uniform_mixing_blocks_are_exact(self):
        params = preset("example2a").params()
        x_star = np.array([0.2, 0.3])
        jac = jacobian_at_equilibrium(params, x_star)
        m = np.diag(x_star) @ (1.5 * np.ones((2, 2)))
        expected = np.zeros((4, 4))
        expected[:2, 2:] = -m
        expected[2:, 2:] = m - np.eye(2)
        assert np.allclose(jac, expected, rtol=0, atol=1e-14)

    def test_rejects_what_classification_rejects(self):
        params = preset("example2a").params()
        for x_star in ([1.5, 0.2], [0.5], [[0.5, 0.5]]):
            with pytest.raises(UsageError):
                classify_equilibrium(params, x_star)
            with pytest.raises(UsageError):
                jacobian_at_equilibrium(params, x_star)

    def test_matches_finite_differences(self):
        spec = Rank1Local(
            tuple(ExpressionFunction("1 + u") for _ in range(2)),
            tuple(ExpressionFunction("1 / (1 + 1.5*u)") for _ in range(2)))
        params = ModelParams(gamma=0.8, interaction=spec)
        x_star = np.array([0.4, 0.7])
        jac = jacobian_at_equilibrium(params, x_star)

        from nbfsir import vector_field

        def flow(u: np.ndarray) -> np.ndarray:
            dx, dy = vector_field(params, u[:2], u[2:], check=False)
            return np.concatenate([dx, dy])

        u0 = np.concatenate([x_star, np.zeros(2)])
        h = 1e-6
        fd = np.empty((4, 4))
        for j in range(4):
            up, um = u0.copy(), u0.copy()
            up[j] += h
            um[j] -= h
            fd[:, j] = (flow(up) - flow(um)) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-6

    def test_spectrum_splits_into_zeros_and_shifted_block(self):
        rng = np.random.default_rng(77)
        for n in (2, 3):
            a = rng.uniform(0.2, 2.0, size=(n, n))
            x_star = rng.uniform(0.1, 0.9, size=n)
            gamma = 1.3
            params = ModelParams(gamma=gamma, interaction=Constant(a))
            jac = jacobian_at_equilibrium(params, x_star)
            # char poly of the 2n x 2n Jacobian, found independently of
            # any iterative eigensolver
            coeffs = _leverrier_char_poly(jac)
            # the n-fold zero eigenvalue appears as n vanishing trailing
            # coefficients (s^n divides the polynomial); splitting it off
            # before root-finding avoids the e^(1/n) cluster blow-up of
            # polishing a multiple root
            assert np.max(np.abs(coeffs[n + 1:])) < 1e-12
            quotient_roots = np.roots(coeffs[: n + 1])
            m = np.diag(x_star) @ a
            expected = np.linalg.eigvals(m - gamma * np.eye(n))
            got = np.sort_complex(quotient_roots)
            want = np.sort_complex(expected)
            assert np.max(np.abs(got - want)) < 1e-8


class TestScanRegion:
    def test_requires_two_nodes(self):
        params = ModelParams(gamma=1.0, interaction=Constant(np.eye(3)))
        with pytest.raises(UsageError, match="two-node"):
            scan_region(params)

    def test_requires_minimum_resolution(self):
        with pytest.raises(UsageError, match=">= 11"):
            scan_region(preset("example2a").params(), resolution=10)

    def test_rejects_bad_weights(self):
        params = preset("example2a").params()
        for weights in ([1.0], [1.0, -0.5], [0.0, 0.0], [np.nan, 1.0]):
            with pytest.raises(UsageError, match="weights"):
                scan_region(params, resolution=21, weights=weights)

    def test_uniform_mixing_boundary_is_the_straight_segment(self):
        scan = scan_region(preset("example2a").params(), resolution=51)
        pts = scan.boundary_points
        assert len(pts) >= 40
        residuals = [abs(p[0] + p[1] - 2.0 / 3.0) for p in pts]
        assert max(residuals) < 1e-6

    def test_classes_match_closed_form(self):
        cfg = preset("example2c")
        scan = scan_region(cfg.params(), resolution=21)
        a = cfg.interaction.matrix
        for i in (3, 10, 17):
            for j in (2, 9, 20):
                x = np.array([scan.axis[i], scan.axis[j]])
                lam = lam_2x2(a, x)
                assert scan.lambda_grid[i, j] == pytest.approx(lam, abs=1e-9)
                expected = (Classification.UNSTABLE if lam > 1.0 + 1e-9 else
                            Classification.STABLE if lam < 1.0 - 1e-9 else
                            Classification.MARGINAL)
                assert scan.classes[i, j] is expected

    def test_asymmetric_optimum_is_a_corner(self):
        scan = scan_region(preset("example2b").params(), resolution=101)
        assert scan.x_star_set.shape == (1, 2)
        assert scan.x_star_set[0] == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_weighted_objective_moves_the_optimum(self):
        # on the boundary x1 + 2 x2 = 1, weighting the second node
        # relocates the argmax from (1, 0) to (0, 1/2)
        scan = scan_region(preset("example2b").params(), resolution=101,
                           weights=[0.1, 0.9])
        assert scan.x_star_set[0] == pytest.approx([0.0, 0.5], abs=1e-6)

    def test_all_stable_scan_reports_full_susceptibility(self):
        params = ModelParams(gamma=5.0,
                             interaction=Constant(np.full((2, 2), 0.5)))
        scan = scan_region(params, resolution=21)
        assert scan.boundary == ()
        assert np.array_equal(scan.x_star_set, [[1.0, 1.0]])
        assert all(c is Classification.STABLE for c in scan.classes.ravel())

    def test_a_scan_below_gamma_everywhere_reports_full_susceptibility(self):
        # lambda = 0 < gamma = 1e-12 at every node, within the marginal
        # band, so no node is STABLE
        params = ModelParams(gamma=1e-12, interaction=Constant(np.zeros((2, 2))))
        scan = scan_region(params, resolution=11)
        assert scan.boundary == ()
        assert np.array_equal(scan.x_star_set, [[1.0, 1.0]])
        assert all(c is Classification.MARGINAL for c in scan.classes.ravel())

    def test_a_level_set_near_a_tiny_gamma_is_traced(self):
        # lambda = 1e-10 (x1 + x2) rises above gamma = 1e-12 past the line
        # x1 + x2 = 0.01, inside the first cell; every node is within 1e-9
        # of gamma, but the band is boundary_tol * gamma = 1e-21
        params = ModelParams(gamma=1e-12, interaction=Constant(np.full((2, 2), 1e-10)))
        scan = scan_region(params, resolution=11)
        points = scan.boundary_points
        assert len(points) >= 2
        assert np.abs(points.sum(axis=1) - 0.01).max() <= 1e-12
        # the uniform mean is flat along the line, so both wall points tie
        for wall in ([0.01, 0.0], [0.0, 0.01]):
            assert np.abs(scan.x_star_set - wall).max(axis=1).min() <= 1e-12
        # a band as wide as gamma or wider covers every node: no crossing,
        # and no boundary point can be ranked
        scan = scan_region(params, resolution=11, boundary_tol=1e3)
        assert scan.boundary == ()
        assert scan.x_star_set.shape == (0, 2)

    def test_saddle_cell_is_decided_by_its_centre(self, monkeypatch):
        # lambda is not monotone here, and cell (2, 2) at resolution 21 has
        # alternating corner signs; its centre value joins the two corners
        # below gamma, so the level set stays two separate polylines
        params = ModelParams(gamma=0.053222, interaction=ExpressionMatrix(
            [["2*(x2-0.5)^2", "0.1"], ["0.1", "2*(x1-0.5)^2"]]))
        axis = np.linspace(0.0, 1.0, 21)
        centre = [0.5 * (axis[2] + axis[3])] * 2
        calls = []
        lambda_at = stability._lambda_at

        def spy(params, pts):
            calls.append(np.asarray(pts).copy())
            return lambda_at(params, pts)

        monkeypatch.setattr(stability, "_lambda_at", spy)
        scan = scan_region(params, resolution=21)
        monkeypatch.undo()
        assert sum(len(p) == 1 and np.array_equal(p[0], centre)
                   for p in calls) == 1
        assert len(scan.boundary) == 2
        pts = scan.boundary_points
        assert np.abs(lambda_at(params, pts) - params.gamma).max() <= 1e-9
        for line in scan.boundary:
            for p, q in zip(line[:-1], line[1:]):
                lo, hi = np.minimum(p, q), np.maximum(p, q)
                # some cell [axis[i], axis[i+1]] x [axis[j], axis[j+1]]
                # holds both points
                for c in range(2):
                    assert ((axis[:-1] <= lo[c] + 1e-12)
                            & (hi[c] <= axis[1:] + 1e-12)).any()
        first, second = scan.boundary
        assert not set(map(tuple, first)) & set(map(tuple, second))

    @pytest.mark.parametrize("gamma, joins", [
        (0.505, {("bottom", "left"), ("top", "right")}),
        (0.495, {("bottom", "right"), ("top", "left")})])
    def test_saddle_cell_joins_the_sides_around_its_odd_corners(self, gamma, joins):
        # lambda = x1 exp(20 (x1 - 0.5)(x2 - 0.6)) has a saddle at (0.5, 0.5),
        # where it is 0.5; at resolution 12 that is the centre of cell
        # (5, 5), whose corners alternate about either gamma.  Each branch
        # of the level set cuts off the pair of corners whose sign differs
        # from the centre's: for gamma above 0.5 the bottom-left and
        # top-right ones, for gamma below it the other two
        params = ModelParams(gamma=gamma, interaction=ExpressionMatrix(
            [["exp(20*(x1-0.5)*(x2-0.6))", "0"], ["0", "0"]]))
        scan = scan_region(params, resolution=12)
        lo, hi = scan.axis[5], scan.axis[6]

        def side(p):  # the side of cell (5, 5) that p lies inside, if any
            if lo < p[0] < hi:
                return {lo: "bottom", hi: "top"}.get(p[1])
            if lo < p[1] < hi:
                return {lo: "left", hi: "right"}.get(p[0])
            return None

        found = set()
        for line in scan.boundary:
            for p, q in zip(line[:-1], line[1:]):
                if side(p) and side(q):
                    found.add(tuple(sorted((side(p), side(q)))))
        assert found == {tuple(sorted(j)) for j in joins}
        pts = scan.boundary_points
        lam = pts[:, 0] * np.exp(20 * (pts[:, 0] - 0.5) * (pts[:, 1] - 0.6))
        assert np.abs(lam - gamma).max() <= 1e-9

    def test_level_set_through_grid_nodes_keeps_the_nodes(self):
        # lambda = x1 + x2, so the level set x1 + x2 = 1 runs through the
        # grid nodes (axis[i], axis[200 - i]), which join the boundary as is
        params = ModelParams(gamma=1.0, interaction=Constant(np.ones((2, 2))))
        scan = scan_region(params, resolution=201)
        pts = scan.boundary_points
        on_boundary = set(map(tuple, pts))
        for i in range(201):
            assert (scan.axis[i], scan.axis[200 - i]) in on_boundary
        assert np.abs(pts.sum(axis=1) - 1.0).max() <= 1e-12
        assert len(scan.boundary) == 1 and len(pts) == 201

    @pytest.mark.parametrize("name", ["example2a", "example2b", "example2c",
                                      "example2d", "example3", "example4"])
    def test_boundary_points_never_repeat(self, name):
        scan = scan_region(preset(name).params(), resolution=201)
        # a closed polyline ends where it starts; that is not a repeat
        pts = np.vstack([line[:-1] if np.array_equal(line[0], line[-1]) else line
                         for line in scan.boundary])
        assert len(np.unique(pts, axis=0)) == len(pts)

    def test_rank_one_boundary_is_one_polyline(self):
        # example2b has rank one, so lambda = a x1 + d x2 is linear and its
        # level set is one segment; its points are where the segment meets
        # the grid lines x1 = axis[i] and x2 = axis[j]
        cfg = preset("example2b")
        (a, b), (c, d) = cfg.interaction.matrix
        assert a * d - b * c == 0
        scan = scan_region(cfg.params(), resolution=201)
        axis, gamma = scan.axis, cfg.gamma
        x2_at = (gamma - a * axis) / d
        x1_at = (gamma - d * axis) / a
        crossings = ({(x1, round(x2, 12)) for x1, x2 in zip(axis, x2_at)
                      if 0.0 <= x2 <= 1.0}
                     | {(round(x1, 12), x2) for x1, x2 in zip(x1_at, axis)
                        if 0.0 <= x1 <= 1.0})
        assert len(scan.boundary) == 1
        line = scan.boundary[0]
        assert len(line) == len({(round(p, 12), round(q, 12))
                                 for p, q in crossings})
        assert np.abs(a * line[:, 0] + d * line[:, 1] - gamma).max() <= 1e-12

    def test_edge_roots_land_on_the_level_set(self):
        rng = np.random.default_rng(13)
        tol = 1e-9
        for _ in range(20):
            a = rng.uniform(0.0, 3.0, size=(2, 2))
            lo, hi = rng.uniform(size=(2, 200, 2))
            lam_lo = np.array([lam_2x2(a, x) for x in lo])
            lam_hi = np.array([lam_2x2(a, x) for x in hi])
            # the median puts about half the ends on either side
            gamma = float(np.median(np.concatenate([lam_lo, lam_hi])))
            s_lo, s_hi = lam_lo - gamma, lam_hi - gamma
            keep = ((s_lo < 0) != (s_hi < 0)) & (np.abs(s_lo) > tol) \
                & (np.abs(s_hi) > tol)
            assert keep.sum() >= 50
            lo, hi, s_lo, s_hi = lo[keep], hi[keep], s_lo[keep], s_hi[keep]
            params = ModelParams(gamma=gamma, interaction=Constant(a))
            roots = stability._edge_roots(params, lo, hi, s_lo, s_hi, gamma, tol)
            t = np.einsum("ij,ij->i", roots - lo, hi - lo) \
                / np.einsum("ij,ij->i", hi - lo, hi - lo)
            assert ((t >= 0.0) & (t <= 1.0)).all()
            assert np.abs(lo + t[:, None] * (hi - lo) - roots).max() <= 1e-12
            # the library's root and the trace-determinant form agree to
            # rounding, not to zero
            resid = [abs(lam_2x2(a, x) - gamma) for x in roots]
            assert max(resid) <= tol + 1e-12

    def test_edge_roots_do_not_stall_on_a_convex_edge(self, monkeypatch):
        # lambda = x1 exp(10 x1) runs from -1 to about 22 025 past gamma
        # along the edge, so plain false position keeps the high end and
        # creeps from the low one; halving the kept end's value is what
        # brings the root within reach in fewer rounds than bisection's 33
        params = ModelParams(gamma=1.0, interaction=ExpressionMatrix(
            [["exp(10*x1)", "0"], ["0", "0"]]))
        lo, hi = np.array([[0.0, 0.5]]), np.array([[1.0, 0.5]])
        s = stability._lambda_at(params, np.vstack([lo, hi])) - 1.0
        calls = []
        lambda_at = stability._lambda_at

        def spy(params, pts):
            calls.append(len(pts))
            return lambda_at(params, pts)

        monkeypatch.setattr(stability, "_lambda_at", spy)
        root = stability._edge_roots(params, lo, hi, s[:1], s[1:], 1.0, 1e-9)
        monkeypatch.undo()
        assert len(calls) <= 25
        assert abs(lambda_at(params, root)[0] - 1.0) <= 1e-9

    def test_scan_eigen_solve_budget(self, monkeypatch):
        # bisection from a fresh bracket made 1199 solves on example2a, and
        # a refinement that moved on sub-tolerance gains 179
        calls = []
        lambda_at = stability._lambda_at

        def spy(params, pts):
            calls.append(len(pts))
            return lambda_at(params, pts)

        monkeypatch.setattr(stability, "_lambda_at", spy)
        scan_region(preset("example2a").params(), resolution=201)
        assert len(calls) <= 100

    def test_flat_optimum_keeps_every_boundary_point(self):
        # the mean is constant along the level set x1 + x2 = 2/3, so every
        # traced point ties, including the two on the domain walls
        scan = scan_region(preset("example2a").params(), resolution=201)
        stars = scan.x_star_set
        for wall in ([0.0, 2.0 / 3.0], [2.0 / 3.0, 0.0]):
            assert np.abs(stars - wall).max(axis=1).min() <= 1e-9
        assert len(stars) == len(np.unique(scan.boundary_points, axis=0))

    def test_refinement_leaves_a_flat_objective_alone(self):
        params = preset("example2a").params()
        u = np.linspace(0.0, 2.0 / 3.0, 9)
        candidates = np.stack([u, 2.0 / 3.0 - u], axis=1)
        refined = stability._refine_max_mean(
            params, candidates, params.gamma, 0.005, 1e-9, np.full(2, 0.5))
        assert np.array_equal(refined, candidates)

    @pytest.mark.parametrize("name, rounds", [("example3", 25), ("example2d", 0)])
    def test_refinement_retires_before_the_round_cap(self, monkeypatch, name, rounds):
        # example3's two tied candidates zig-zag onto the symmetric optimum
        # and ran all 36 rounds; example2d's optimum is pinned at the
        # corner (1, 0), where no step moves it along the level set
        calls = []
        project = stability._project_to_level

        def spy(*args):
            calls.append(len(args[1]))
            return project(*args)

        monkeypatch.setattr(stability, "_project_to_level", spy)
        scan_region(preset(name).params(), resolution=201)
        assert len(calls) <= rounds

    def test_a_move_a_wall_turns_away_from_the_optimum_retires(self, monkeypatch):
        # the optimum of this model lies where the level set leaves the
        # square at x2 = 1; the tangent step into that wall is clipped to
        # a move along it, which lowers the mean.  Bounded by the tangent
        # length alone, the candidate ran 86 eigenvalue calls, all but
        # the scan's own on moves that were then rejected
        a = np.random.default_rng(5).uniform(0.0, 3.0, size=(2, 2))
        params = ModelParams(gamma=1.0, interaction=Constant(a))
        calls = []
        lambda_at = stability._lambda_at

        def spy(params, pts):
            calls.append(len(pts))
            return lambda_at(params, pts)

        monkeypatch.setattr(stability, "_lambda_at", spy)
        scan = scan_region(params, resolution=201)
        assert len(calls) <= 6
        [star] = scan.x_star_set
        assert star[1] == 1.0 and abs(star[0] - 0.034851364) < 1e-8
        assert abs(lam_2x2(a, star) - 1.0) <= 1e-9

    def test_projection_lands_on_the_level_set_or_stays_put(self):
        rng = np.random.default_rng(29)
        tol = 1e-9
        for _ in range(20):
            a = rng.uniform(0.0, 3.0, size=(2, 2))
            pts = rng.uniform(size=(100, 2))
            gamma = float(np.median([lam_2x2(a, x) for x in pts]))
            params = ModelParams(gamma=gamma, interaction=Constant(a))
            grads = stability._fd_gradient(params, pts)
            unit = grads / np.linalg.norm(grads, axis=1)[:, None]
            out, found = stability._project_to_level(
                params, pts, gamma, unit, 0.2, tol)
            assert found.sum() >= 10
            # the library's root and the trace-determinant form agree to
            # rounding, not to zero
            assert max(abs(lam_2x2(a, x) - gamma)
                       for x in out[found]) <= tol + 1e-12
            assert np.array_equal(out[~found], pts[~found])


@pytest.fixture(scope="module")
def scan_2b_21():
    return scan_region(preset("example2b").params(), resolution=21)


class TestRegionSerialization:

    def test_json_fields(self, scan_2b_21):
        scan = scan_2b_21
        doc = json.loads(region_to_json(scan))
        assert doc["resolution"] == 21
        assert doc["gamma"] == 1.0
        assert len(doc["classes"]) == 21 * 21
        assert set(doc["classes"]) <= {"S", "U", "M"}
        assert all(len(p) == 2 for p in doc["boundary"])
        assert doc["x_star_set"] == [[1.0, 0.0]]

    def test_classes_are_row_major(self, scan_2b_21):
        scan = scan_2b_21
        doc = json.loads(region_to_json(scan))
        flat = np.array(doc["classes"]).reshape(21, 21)
        i, j = 20, 3  # x1 = 1.0 row: high lambda, unstable
        assert flat[i, j] == scan.classes[i, j].value

    def test_svg_structure(self, scan_2b_21):
        scan = scan_2b_21
        svg = region_to_svg(scan)
        assert svg.startswith("<svg")
        assert 'viewBox="0 0 1000 1000"' in svg
        assert "<rect" in svg
        assert "<polyline" in svg
        assert "<circle" in svg
