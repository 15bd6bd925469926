"""Model functions, Riccati integration, traces, convexity, the hinge law."""

import math

import numpy as np
import pytest

from alexgeo import comparison as cmp
from alexgeo.comparison import ComparisonModel
from alexgeo.errors import ConstructionError, DomainError, PreconditionError, SingularityError
from alexgeo.spaces import Cone, Lens, ModelBall, Sphere

PI = math.pi
HALF_PI = math.pi / 2.0


class TestModelRelation:
    def test_inradius_formulas(self):
        assert cmp.model_inradius(0.0, 2.0) == pytest.approx(0.5)
        assert cmp.model_inradius(1.0, 1.0) == pytest.approx(PI / 4.0)
        assert cmp.model_inradius(-1.0, 1.0 / math.tanh(0.8)) == pytest.approx(0.8)

    def test_hyperbolic_needs_lambda0_above_one(self):
        for lam0 in (0.9, 1.0):
            with pytest.raises(DomainError, match="lambda0 > 1"):
                cmp.model_inradius(-1.0, lam0)

    def test_model_triple_validation(self):
        ComparisonModel.from_lambda0(1.0, 1.0)
        ComparisonModel.from_r0(0.0, 2.0)
        with pytest.raises(ConstructionError):
            ComparisonModel(0.0, 1.0, 0.5)  # violates lambda0 = 1/r0
        with pytest.raises(ConstructionError):
            ComparisonModel(-1.0, 0.5, 1.0)  # lambda0^2 must exceed -k
        for lam0 in (-1.0, math.inf):  # model_inradius's domain, as construction errors
            with pytest.raises(ConstructionError):
                ComparisonModel(0.0, lam0, 1.0)


class TestModelLambda:
    def test_initial_condition(self):
        assert cmp.model_lambda(0.0, 2.0, 0.0) == pytest.approx(-2.0)
        assert cmp.model_lambda(1.0, 3.0, 0.0) == pytest.approx(-3.0)
        assert cmp.model_lambda(-1.0, 2.0, 0.0) == pytest.approx(-2.0)

    def test_spherical_closed_form_value(self):
        # lambda0 = 1 means r0 = pi/4; the level-set value at pi/8 is -cot(pi/8)
        val = cmp.model_lambda(1.0, 1.0, PI / 8.0)
        assert val == pytest.approx(-(1.0 + math.sqrt(2.0)), abs=1e-12)

    def test_hyperbolic_constant_branch(self):
        for r in (0.0, 0.5, 3.0):
            assert cmp.model_lambda(-1.0, 1.0, r) == -1.0

    def test_hyperbolic_tanh_branch_has_no_singularity(self):
        assert cmp.model_lambda(-1.0, 0.5, 10.0) == pytest.approx(
            math.tanh(10.0 - math.atanh(0.5))
        )

    def test_focal_domain_error(self):
        with pytest.raises(DomainError):
            cmp.model_lambda(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            cmp.model_lambda(1.0, 1.0, PI / 4.0)

    def test_canonical_k_only(self):
        with pytest.raises(DomainError):
            cmp.model_lambda(4.0, 1.0, 0.1)


# the per-curvature branches that `model_inradius` and `model_lambda` replaced,
# kept verbatim so the toolkit forms can be checked against them
def _inradius_branches(k, lam0):
    if k == 0.0:
        return 1.0 / lam0
    if k == 1.0:
        return math.atan(1.0 / lam0)
    return math.atanh(1.0 / lam0)


def _lambda_branches(k, lam0, r):
    if k == 0.0:
        return 1.0 / (r - _inradius_branches(k, lam0))
    if k == 1.0:
        return 1.0 / np.tan(r - _inradius_branches(k, lam0))
    if lam0 < 1.0:
        return np.tanh(r - math.atanh(lam0))
    if lam0 == 1.0:
        return np.full_like(r, -1.0)
    return 1.0 / np.tanh(r - _inradius_branches(k, lam0))


def _lambda0s(k):
    lo = 1.0 if k < 0.0 else 0.0  # k = -1 focuses only for lambda0 > 1
    return np.concatenate([lo + np.logspace(-8, 0, 120), np.linspace(lo + 1.0, 50.0, 120)]).tolist()


class TestProfileAgainstBranches:
    @pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
    def test_inradius(self, k):
        # the sn_k form is ill-conditioned only where the branches are too: for
        # k = -1 at lambda0 -> 1, where r0 grows like -log(lambda0 - 1)/2
        lam0s = [lam0 for lam0 in _lambda0s(k) if k == 0.0 or lam0 >= 1.01 or k == 1.0]
        rel = [abs(cmp.model_inradius(k, lam0) / _inradius_branches(k, lam0) - 1.0) for lam0 in lam0s]
        assert max(rel) <= 1e-15

    @pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
    def test_lambda_up_to_the_focus(self, k):
        # phi' = cs_k - lambda0 sn_k cancels at the focus, so stop at 0.999 r0;
        # lambda0 stays off 0 (k = 1) and 1 (k = -1), where the branches lose
        # digits through r - r0 and the profile does not (it is -lambda0 at r = 0)
        for lam0 in np.linspace(1.05 if k < 0.0 else 0.05, 20.0, 60).tolist():
            r = np.linspace(0.0, 0.999 * cmp.model_inradius(k, lam0), 200)
            want = _lambda_branches(k, lam0, r)
            assert np.max(np.abs(cmp.model_lambda(k, lam0, r) / want - 1.0)) <= 1e-11

    def test_lambda_without_a_focus(self):
        # phi''/phi' would cancel here as r grows (to 0/0 at lambda0 = 1 from
        # r = 20, and past r = 710 sinh overflows); the tanh form is kept
        r = np.linspace(0.0, 800.0, 401)
        for lam0 in np.linspace(0.05, 1.0, 20).tolist() + [1.0 - 1e-12]:
            assert np.array_equal(cmp.model_lambda(-1.0, lam0, r), _lambda_branches(-1.0, lam0, r))
            assert cmp.model_lambda(-1.0, lam0, 30.0) == pytest.approx(float(_lambda_branches(-1.0, lam0, 30.0)))

    @pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
    def test_round_trip(self, k):
        top = HALF_PI if k > 0.0 else 3.0
        for r0 in np.linspace(1e-3, top, 500).tolist():
            assert cmp.model_inradius(k, cmp.model_lambda0(k, r0)) == pytest.approx(r0, rel=1e-13)


class TestModelPhi:
    def test_zero_at_origin(self):
        for k in (-1.0, 0.0, 1.0):
            assert cmp.model_phi(k, 1.3, 0.0) == 0.0

    def test_flat_value(self):
        assert cmp.model_phi(0.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_spherical_value_at_inradius(self):
        assert cmp.model_phi(1.0, 1.0, PI / 4.0) == pytest.approx(math.sqrt(2.0) - 1.0)

    def test_increasing_up_to_inradius_with_flat_top(self):
        for k, lam0 in [(0.0, 1.5), (1.0, 1.0), (-1.0, 2.0)]:
            r0 = cmp.model_inradius(k, lam0)
            rs = np.linspace(0.0, r0, 200)
            phi = cmp.model_phi(k, lam0, rs)
            assert np.all(np.diff(phi) > -1e-12)
            assert cmp.model_phi_prime(k, lam0, r0) == pytest.approx(0.0, abs=1e-12)

    def test_lambda_phi_prime_equals_phi_second(self):
        # finite-difference check of the Riccati relation at h = 1e-4
        h = 1e-4
        for k, lam0 in [(0.0, 1.0), (0.0, 2.5), (1.0, 1.0), (1.0, 0.4), (-1.0, 1.7)]:
            r0 = cmp.model_inradius(k, lam0)
            for r in np.linspace(0.05 * r0, 0.9 * r0, 9):
                phi_p = (cmp.model_phi(k, lam0, r + h) - cmp.model_phi(k, lam0, r - h)) / (2 * h)
                phi_pp = (
                    cmp.model_phi(k, lam0, r + h)
                    - 2.0 * cmp.model_phi(k, lam0, r)
                    + cmp.model_phi(k, lam0, r - h)
                ) / h**2
                lam = cmp.model_lambda(k, lam0, r)
                assert abs(lam * phi_p - phi_pp) <= 1e-6


class TestModelPsi:
    def test_initial_conditions_and_values(self):
        assert cmp.model_psi(1.0, 0.0) == 0.0
        assert cmp.model_psi(1.0, 0.7) == pytest.approx(1.0 - math.cos(0.7))
        assert cmp.model_psi(0.0, 0.7) == pytest.approx(0.245)
        assert cmp.model_psi(-1.0, 0.7) == pytest.approx(math.cosh(0.7) - 1.0)

    def test_ode_by_finite_differences(self):
        h = 1e-4
        for k in (-1.0, 0.0, 1.0, 0.5):
            for t in (0.2, 0.9):
                second = (cmp.model_psi(k, t + h) - 2 * cmp.model_psi(k, t)
                          + cmp.model_psi(k, t - h)) / h**2
                assert second + k * cmp.model_psi(k, t) == pytest.approx(1.0, abs=1e-6)


def riccati_integrate(k: float, lambda0: float, r: float, step: float) -> float:
    """Fixed-step RK4 for lam' = -k - lam^2 from lam(0) = -lambda0 up to r: the
    independent oracle of `model_lambda`.

    Raises SingularityError when |lam| exceeds 1e6; the reported blow-up
    location tracks the focal radius to within a few steps.
    """
    for name, x in (("k", k), ("lambda0", lambda0), ("r", r), ("step", step)):
        if not math.isfinite(x):  # an infinite r would never end
            raise DomainError(f"{name} must be finite, got {x!r}")
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step}")
    if r < 0.0:
        raise DomainError(f"r must be nonnegative, got {r}")

    def f(lam):
        return -k - lam * lam

    lam = -float(lambda0)
    s = 0.0
    while s < r - 1e-15:
        h = min(step, r - s)
        # stiffness guard: refine the step as the solution steepens toward
        # the focal blow-up so the fourth-order error bound keeps holding
        n_sub = max(1, min(128, math.ceil(h * (1.0 + lam * lam) / 0.1)))
        hs = h / n_sub
        for _ in range(n_sub):
            k1 = f(lam)
            k2 = f(lam + 0.5 * hs * k1)
            k3 = f(lam + 0.5 * hs * k2)
            k4 = f(lam + hs * k3)
            lam = lam + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s += h
        if abs(lam) > 1e6:
            raise SingularityError(f"Riccati blow-up near r = {s:.6f} (|lambda| > 1e6)", location=s)
    return lam


class TestRiccati:
    def test_flat_closed_form(self):
        assert riccati_integrate(0.0, 1.0, 0.5, 1e-3) == pytest.approx(-2.0, abs=1e-8)

    def test_spherical_closed_form(self):
        lam0 = 1.0 / math.tan(1.0)
        val = riccati_integrate(1.0, lam0, 0.5, 1e-3)
        assert val == pytest.approx(1.0 / math.tan(0.5 - 1.0), abs=1e-8)

    def test_hyperbolic_constant(self):
        assert riccati_integrate(-1.0, 1.0, 2.0, 1e-3) == pytest.approx(-1.0, abs=1e-10)

    def test_grid_agreement_with_closed_forms(self):
        worst = 0.0
        count = 0
        for k in (-1.0, 0.0, 1.0):
            for lam0 in np.linspace(1.1, 3.0, 12):
                r0 = cmp.model_inradius(k, lam0)
                for r in np.linspace(0.05 * r0, 0.8 * r0, 28):
                    got = riccati_integrate(k, lam0, float(r), 1e-3)
                    want = cmp.model_lambda(k, lam0, float(r))
                    worst = max(worst, abs(got - want))
                    count += 1
        assert count >= 1000
        assert worst <= 1e-8

    def test_blowup_location_matches_focal_radius(self):
        step = 1e-3
        with pytest.raises(SingularityError) as err:
            riccati_integrate(0.0, 1.0, 2.0, step)
        assert abs(err.value.location - 1.0) <= 10.0 * step


class TestFbar:
    def test_initial_value(self):
        for k in (-1.0, 0.0, 1.0, 0.3):
            assert cmp.fbar(k, 1.2, 0.7, -0.1, 0.0) == pytest.approx(0.7)

    def test_flat_displayed_form(self):
        r0, r1 = 2.0, 1.3
        lam0 = 1.0 / r0
        t = np.linspace(0.0, r0, 7)
        got = cmp.fbar(0.0, lam0, cmp.model_phi(0.0, lam0, r1), 0.0, t)
        want = r1 - r1**2 / (2 * r0) - t**2 / (2 * r0)
        assert np.allclose(got, want, atol=1e-14)

    def test_rigidity_boundary_case(self):
        # launched from the inradius value, the model solution vanishes at r0
        # exactly when r1 = r0; strictly below it stays negative there
        for k in (-1.0, 0.0, 1.0):
            for lam0 in np.linspace(1.2, 2.5, 6):
                r0 = cmp.model_inradius(k, lam0)
                at_max = cmp.fbar(k, lam0, cmp.model_phi(k, lam0, r0), 0.0, r0)
                assert abs(at_max) <= 1e-10
                for r1 in np.linspace(0.1 * r0, 0.95 * r0, 8):
                    val = cmp.fbar(k, lam0, cmp.model_phi(k, lam0, float(r1)), 0.0, r0)
                    assert val < -1e-10

    def test_general_k_by_scaling(self):
        # fbar for curvature 4 equals the k=1 solution with t scaled by 2
        t = 0.3
        got = cmp.fbar(4.0, 1.0, 0.2, 0.1, t)
        s = 2.0
        want = -1.0 / 4.0 + (0.2 + 1.0 / 4.0) * math.cos(s * t) + (0.1 / s) * math.sin(s * t)
        assert got == pytest.approx(want, abs=1e-14)


class TestHinge:
    def test_degenerate_hinge(self):
        for k in (-1.0, 0.0, 1.0):
            assert cmp.hinge_comparison(k, 1.0, 0.3, 0.0) == pytest.approx(0.7, abs=1e-12)

    def test_right_spherical_triangle(self):
        assert cmp.hinge_comparison(1.0, HALF_PI, HALF_PI, HALF_PI) == pytest.approx(HALF_PI)

    def test_pythagorean(self):
        assert cmp.hinge_comparison(0.0, 3.0, 4.0, HALF_PI) == pytest.approx(5.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cmp.hinge_comparison(1.0, 4.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            cmp.hinge_comparison(0.0, -1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            cmp.hinge_comparison(0.0, 1.0, 1.0, 4.0)


class TestConvexityCheck:
    @pytest.mark.parametrize("k,r0", [(-1.0, 1.0), (0.0, 1.0), (1.0, PI / 4.0)])
    def test_model_ball_passes_at_its_own_profile(self, k, r0):
        lam0 = cmp.model_lambda0(k, r0)
        rep = cmp.convexity_check(ModelBall(k, r0, 3), lam0, probes=500)
        assert rep.passed

    @pytest.mark.parametrize("k,r0", [(-1.0, 1.0), (0.0, 1.0), (1.0, PI / 4.0)])
    def test_model_ball_fails_inflated_profile(self, k, r0):
        lam0 = cmp.model_lambda0(k, r0)
        rep = cmp.convexity_check(ModelBall(k, r0, 3), 1.5 * lam0, probes=500)
        assert not rep.passed
        # the limiting defect ratio is (lam0 - 1.5 lam0)/2
        assert rep.worst_ratio == pytest.approx(-lam0 / 4.0, rel=0.05)

    def test_lens_fails_every_positive_profile(self):
        for lam0 in (0.5, 1.0, 2.0):
            rep = cmp.convexity_check(Lens(2, 1.0), lam0, probes=400)
            assert not rep.passed
            assert rep.worst_ratio == pytest.approx(-lam0 / 2.0, abs=1e-6)

    def test_boundaryless_rejected(self):
        with pytest.raises(PreconditionError):
            cmp.convexity_check(Sphere(2, 1.0), 1.0)

    @pytest.mark.parametrize("probes, h", [(0, 1e-2), (-3, 1e-2), (10, 0.0), (10, -1e-2), (10, math.nan)])
    def test_probes_and_scale_must_be_positive(self, probes, h):
        with pytest.raises(DomainError, match="probes"):
            cmp.convexity_check(Lens(2, 1.0), 1.0, probes=probes, h=h)

    def test_lens_scales_probe_the_same_points(self, monkeypatch):
        seen = []
        embed = cmp.embeddings.embed_lens

        def spy(lens, p):
            seen.append([np.array(c, copy=True) for c in p])
            return embed(lens, p)

        monkeypatch.setattr(cmp.embeddings, "embed_lens", spy)
        cmp.convexity_check(Lens(3, 1.0), 1.0, probes=200, seed=5)
        assert len(seen) == 3  # one draw per scale, every probe kept
        for other in seen[1:]:
            for a, b in zip(seen[0], other):
                assert np.array_equal(a, b)


class TestTraces:
    def test_radial_equality_all_curvatures(self):
        step = 1e-3
        for k, r0 in [(-1.0, 1.0), (0.0, 1.0), (1.0, PI / 4.0)]:
            ball = ModelBall(k, r0, 3)
            lam0 = cmp.model_lambda0(k, r0)
            path = cmp.ball_radial_path(ball, np.array([0.0, 1.0, 0.0]), step)
            tr = cmp.comparison_trace(ball, lam0, k, path, step)
            assert tr.max_equality_gap <= 5.0 * step
            assert tr.max_violation <= 5.0 * step

    def test_chords_stay_below_model_solution(self):
        step = 1e-3
        for k, r0 in [(-1.0, 1.0), (0.0, 1.0), (1.0, PI / 4.0)]:
            ball = ModelBall(k, r0, 3)
            lam0 = cmp.model_lambda0(k, r0)
            for i, rho in enumerate((0.2, 0.5, 0.8)):
                path = cmp.ball_chord_path(ball, rho * r0, step, seed=i)
                tr = cmp.comparison_trace(ball, lam0, k, path, step)
                assert tr.max_violation <= 5.0 * step

    def test_cone_equality_case(self):
        step = 1e-3
        cone = Cone(1.0, Sphere(1, 0.75), HALF_PI)
        lam0 = cmp.model_lambda0(1.0, HALF_PI)
        path = cmp.cone_developed_path(cone, 0.4, 0.9, 1.8, 1.3, step)
        assert path is not None
        tr = cmp.comparison_trace(cone, lam0, 1.0, path, step)
        assert tr.max_equality_gap <= 5.0 * step
        radial = cmp.cone_radial_path(cone, np.array([0.0, 1.0]), step)
        tr2 = cmp.comparison_trace(cone, lam0, 1.0, radial, step)
        assert tr2.max_equality_gap <= 5.0 * step

    def test_non_unit_speed_rejected(self):
        ball = ModelBall(0.0, 1.0, 2)
        path = cmp.ball_radial_path(ball, np.array([1.0, 0.0]), 1e-3)
        path.t[3] += 5e-4
        with pytest.raises(PreconditionError):
            cmp.comparison_trace(ball, 1.0, 0.0, path, 1e-3)

    def test_non_unit_direction_rejected(self):
        ball = ModelBall(0.0, 1.0, 2)
        path = cmp.ball_radial_path(ball, np.array([1.0, 0.0]), 1e-3)
        path.base[5] *= 1.0 + 1e-6
        with pytest.raises(DomainError):
            cmp.comparison_trace(ball, 1.0, 0.0, path, 1e-3)

    def test_trace_csv_export(self, tmp_path):
        ball = ModelBall(0.0, 1.0, 2)
        path = cmp.ball_radial_path(ball, np.array([1.0, 0.0]), 1e-2)
        tr = cmp.comparison_trace(ball, 1.0, 0.0, path, 1e-2)
        out = tmp_path / "trace.csv"
        tr.to_csv(out)
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (path.t.shape[0], 4)
        assert np.allclose(rows[:, 1], tr.f_vals)
