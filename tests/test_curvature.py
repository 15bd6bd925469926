"""The curvature-k functions sn_k, md_k, cs_k and the one cone and join laws of `spaces`.

The reference forms below are the per-curvature branches that the toolkit
replaced: the scalar and array laws of cosines, the scalar and array join
laws, the three-branch convexity probe of a model ball and the three-branch
chord path.  They are kept here, verbatim, so the toolkit forms can be
checked against them.
"""

import math
import warnings

import numpy as np
import pytest

from alexgeo import comparison as cmp
from alexgeo import spaces
from alexgeo.errors import ConstructionError, DomainError
from alexgeo.spaces import HALF_PI, PI, ConeCoords, Interval, Join, ModelBall, Sphere, Suspension, cs_k, md_k, sn_k
from test_comparison import riccati_integrate

CURVATURES = (-1.0, -0.25, 0.0, 1.0, 4.0)


def _ts(k: float, n: int = 200) -> np.ndarray:
    """Arguments in [0, 3], or short of pi/sqrt(k) where md_k turns back."""
    top = 3.0 if k <= 0.0 else min(3.0, 0.95 * PI / math.sqrt(k))
    return np.linspace(0.0, top, n)


# ---------------------------------------------------------------------------
# reference forms
# ---------------------------------------------------------------------------


def _law_math(k, t0, t1, ctheta):
    if k == 0.0:
        v = t0 * t0 + t1 * t1 - 2.0 * t0 * t1 * ctheta
        return math.sqrt(max(v, 0.0))
    if k > 0.0:
        s = math.sqrt(k)
        c = math.cos(s * t0) * math.cos(s * t1) + math.sin(s * t0) * math.sin(s * t1) * ctheta
        return spaces.clamped_arccos(c) / s
    s = math.sqrt(-k)
    c = math.cosh(s * t0) * math.cosh(s * t1) - math.sinh(s * t0) * math.sinh(s * t1) * ctheta
    return spaces.clamped_arccosh(c) / s


def _law_array(k, ta, tb, ctheta):
    if k == 0.0:
        v = ta**2 + tb**2 - 2.0 * (ta * tb) * ctheta
        return np.sqrt(np.maximum(v, 0.0))
    if k > 0.0:
        s = math.sqrt(k)
        c = np.cos(s * ta) * np.cos(s * tb) + np.sin(s * ta) * np.sin(s * tb) * ctheta
        return spaces.clamped_arccos(c) / s
    s = math.sqrt(-k)
    c = np.cosh(s * ta) * np.cosh(s * tb) - np.sinh(s * ta) * np.sinh(s * tb) * ctheta
    return spaces.clamped_arccosh(c) / s


def _join_math(t1, t2, cl, cr):
    # the scalar join law as it was written out before `_join_law`, on the factor distances' cosines
    return spaces.clamped_arccos(math.cos(t1) * math.cos(t2) * cl + math.sin(t1) * math.sin(t2) * cr)


def _join_array(ta, tb, cl, cr, cross):
    # `Join.formula`'s former inline law
    cc, ss = spaces._trig_pairs(ta, tb, cross)
    return spaces.clamped_arccos(cc * cl + ss * cr)


def _probe_branches(space, lambda0, probes, scale, rng):
    k, r0 = space.k, space.r0
    sn = spaces.sn_k(k, r0)
    delta = scale / sn
    theta = rng.uniform(0.5 * delta, 1.5 * delta, probes)
    if k == 0.0:
        c = 2.0 * r0 * np.sin(theta / 2.0)
        cosb = np.sin(theta / 2.0)
    elif k > 0.0:
        s = math.sqrt(k)
        cr, sr = math.cos(s * r0), math.sin(s * r0)
        cc = cr * cr + sr * sr * np.cos(theta)
        c = np.arccos(np.clip(cc, -1.0, 1.0)) / s
        cosb = cr * (1.0 - cc) / np.maximum(sr * np.sin(s * c), 1e-300)
    else:
        s = math.sqrt(-k)
        cr, sr = math.cosh(s * r0), math.sinh(s * r0)
        cc = cr * cr - sr * sr * np.cos(theta)
        c = np.arccosh(np.maximum(cc, 1.0)) / s
        cosb = cr * (cc - 1.0) / np.maximum(sr * np.sinh(s * c), 1e-300)
    defect = c * cosb - 0.5 * lambda0 * c**2
    return defect / c**2


def _chord_branches(ball, rho, step, seed):
    rng = np.random.default_rng(seed)
    e1, e2 = cmp._random_frame(rng, ball.dim)
    k, r0 = ball.k, ball.r0
    if k == 0.0:
        s_exit = math.sqrt(r0 * r0 - rho * rho)
        s = cmp._samples(2.0 * s_exit, step) - s_exit
        a, b = np.full_like(s, rho), s
    elif k > 0.0:
        sq = math.sqrt(k)
        s_exit = spaces.clamped_arccos(math.cos(sq * r0) / math.cos(sq * rho)) / sq
        s = cmp._samples(2.0 * s_exit, step) - s_exit
        t = spaces.clamped_arccos(np.cos(sq * s) * math.cos(sq * rho)) / sq
        a, b = np.cos(sq * s) * math.sin(sq * rho), np.sin(sq * s)
    else:
        sq = math.sqrt(-k)
        s_exit = math.acosh(max(1.0, math.cosh(sq * r0) / math.cosh(sq * rho))) / sq
        s = cmp._samples(2.0 * s_exit, step) - s_exit
        t = np.arccosh(np.maximum(1.0, np.cosh(sq * s) * math.cosh(sq * rho))) / sq
        a, b = np.cosh(sq * s) * math.sinh(sq * rho), np.sinh(sq * s)
    v = a[:, None] * e1 + b[:, None] * e2
    n = np.sqrt(np.einsum("ij,ij->i", v, v))
    if k == 0.0:
        t = n
    u = np.where(n[:, None] > 0.0, v / np.where(n > 0.0, n, 1.0)[:, None], e1)
    return ConeCoords(t, u)


def _ball(k: float) -> ModelBall:
    """A 3-dimensional model ball of curvature k, its radius short of the k > 0 limit."""
    return ModelBall(k, 1.0 if k <= 0.0 else 0.8 * HALF_PI / math.sqrt(k), 3)


# ---------------------------------------------------------------------------
# the toolkit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", CURVATURES)
class TestToolkit:
    def test_closed_forms(self, k):
        t = _ts(k)
        if k == 0.0:
            want_sn, want_cs = t, np.ones_like(t)
        elif k > 0.0:
            want_sn, want_cs = np.sin(math.sqrt(k) * t) / math.sqrt(k), np.cos(math.sqrt(k) * t)
        else:
            want_sn, want_cs = np.sinh(math.sqrt(-k) * t) / math.sqrt(-k), np.cosh(math.sqrt(-k) * t)
        np.testing.assert_allclose(sn_k(k, t), want_sn, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(cs_k(k, t), want_cs, rtol=0.0, atol=1e-14)

    def test_identities_on_arrays(self, k):
        t = _ts(k)
        assert np.array_equal(md_k(k, t), 2.0 * sn_k(k, t / 2.0) ** 2)
        cs, sn = cs_k(k, t), sn_k(k, t)
        assert np.all(np.abs(cs * cs + k * sn * sn - 1.0) <= 2e-15 * (cs * cs + abs(k) * sn * sn))
        np.testing.assert_allclose(spaces._arcmd_k(k, md_k(k, t)), t, rtol=1e-13, atol=1e-15)

    def test_identities_on_floats(self, k):
        for t in _ts(k, 25).tolist():
            m, sn, cs = md_k(k, t), sn_k(k, t), cs_k(k, t)
            assert all(type(x) is float for x in (m, sn, cs))
            assert m == 2.0 * sn_k(k, t / 2.0) ** 2
            assert abs(cs * cs + k * sn * sn - 1.0) <= 2e-15 * (cs * cs + abs(k) * sn * sn)
            back = spaces._arcmd_k(k, m)
            assert type(back) is float
            assert back == pytest.approx(t, rel=1e-13, abs=1e-15)

    def test_arcsn_inverts_sn(self, k):
        # on the ascending branch [0, pi/(2 sqrt(k))]; sn_k flattens at its
        # top, where the round trip loses a few more bits
        top = 3.0 if k <= 0.0 else HALF_PI / math.sqrt(k)
        t = np.linspace(0.0, top, 2001)
        back = spaces._arcsn_k(k, sn_k(k, t))
        inner = t <= 0.99 * top
        assert np.max(np.abs(back - t)[inner]) <= 1e-14
        assert np.max(np.abs(back - t)) <= 5e-14

    def test_floats_and_arrays_agree(self, k):
        t = _ts(k, 25)
        for f, x in ((sn_k, t), (md_k, t), (cs_k, t), (spaces._arcmd_k, md_k(k, t))):
            np.testing.assert_allclose([f(k, v) for v in x.tolist()], f(k, x), rtol=1e-15, atol=1e-16)


# ---------------------------------------------------------------------------
# the one cone law and the one join law against the laws they replaced
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", CURVATURES)
def test_cone_law_on_floats_is_the_math_law(k):
    rng = np.random.default_rng(5)
    top = 2.0 if k <= 0.0 else HALF_PI / math.sqrt(k)
    for t0, t1, theta in zip(rng.uniform(0, top, 300), rng.uniform(0, top, 300), rng.uniform(0, PI, 300)):
        t0, t1, ctheta = float(t0), float(t1), math.cos(theta)
        got = spaces._cone_law(k, t0, t1, ctheta)
        assert type(got) is float
        assert got == _law_math(k, t0, t1, ctheta)


@pytest.mark.parametrize("k", CURVATURES)
@pytest.mark.parametrize("cross", [False, True], ids=["paired", "cross"])
def test_cone_law_on_arrays_is_the_numpy_law(k, cross):
    rng = np.random.default_rng(6)
    top = 2.0 if k <= 0.0 else HALF_PI / math.sqrt(k)
    ta, tb = rng.uniform(0, top, 40), rng.uniform(0, top, 40)
    pa, pb = spaces._pairs(ta, tb, cross)
    ctheta = np.cos(rng.uniform(0, PI, np.broadcast_shapes(pa.shape, pb.shape)))
    assert np.array_equal(spaces._cone_law(k, pa, pb, ctheta), _law_array(k, pa, pb, ctheta))


@pytest.mark.parametrize("call", [
    spaces.clamped_arccos,
    spaces.clamped_arccosh,
    lambda x: spaces._cone_law(-1.0, 1.0, 2.0, x),
    lambda x: spaces._cone_law(1.0, 1.0, 0.5, x),
], ids=["arccos", "arccosh", "cone-law-k-1", "cone-law-k1"])
def test_nan_stays_nan_on_numbers_as_on_arrays(call):
    assert math.isnan(call(math.nan))
    assert np.isnan(call(np.array([math.nan]))).all()


def test_join_law_on_floats_is_the_math_law():
    rng = np.random.default_rng(9)
    ts, cs = rng.uniform(0, HALF_PI, (300, 2)), np.cos(rng.uniform(0, PI, (300, 2)))
    for (t1, t2), (cl, cr) in zip(ts.tolist(), cs.tolist()):
        got = spaces._join_law(t1, t2, cl, cr)
        assert type(got) is float
        assert got == _join_math(t1, t2, cl, cr)


@pytest.mark.parametrize("cross", [False, True], ids=["paired", "cross"])
def test_join_law_on_arrays_is_the_numpy_law(cross):
    rng = np.random.default_rng(10)
    ta, tb = rng.uniform(0, HALF_PI, 40), rng.uniform(0, HALF_PI, 40)
    shape = (40, 40) if cross else (40,)
    cl, cr = np.cos(rng.uniform(0, PI, shape)), np.cos(rng.uniform(0, PI, shape))
    got = spaces._join_law(*spaces._pairs(ta, tb, cross), cl, cr)
    assert np.array_equal(got, _join_array(ta, tb, cl, cr, cross))


def test_join_distance_is_its_former_inline_law():
    rng = np.random.default_rng(11)
    space = Join(Sphere(1, 0.75), Interval(1.0))
    for p, q in zip(space.random_points(300, rng), space.random_points(300, rng)):
        dl = min(spaces.distance(Sphere(1, 0.75), p[0], q[0]), PI)
        dr = min(abs(p[2] - q[2]), PI)
        assert space.distance(p, q) == _join_math(p[1], q[1], math.cos(dl), math.cos(dr))


def test_suspension_distance_is_its_former_inline_law():
    rng = np.random.default_rng(8)
    for u1, u2, a in zip(rng.uniform(0, PI, 300), rng.uniform(0, PI, 300), rng.uniform(0, PI, 300)):
        y1, y2 = np.array([1.0, 0.0]), np.array([math.cos(a), math.sin(a)])
        theta = min(spaces.distance(Sphere(1, 1.0), y1, y2), PI)
        c = math.cos(u1) * math.cos(u2) + math.sin(u1) * math.sin(u2) * math.cos(theta)
        got = spaces.distance(Suspension(Sphere(1, 1.0)), (float(u1), y1), (float(u2), y2))
        assert got == spaces.clamped_arccos(c)


# ---------------------------------------------------------------------------
# comparison's closed forms against their former branches
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", CURVATURES)
@pytest.mark.parametrize("scale", [1e-2, 2.5e-3])
def test_convexity_probe_matches_its_branches(k, scale):
    ball = _ball(k)
    for lambda0 in (0.3, 1.7):
        got = cmp._convexity_probe_cone(ball, lambda0, 400, scale, np.random.default_rng(3))
        want = _probe_branches(ball, lambda0, 400, scale, np.random.default_rng(3))
        np.testing.assert_allclose(got, want, rtol=1e-13)


@pytest.mark.parametrize("k", CURVATURES)
def test_chord_path_matches_its_branches(k):
    # relative to the ball's radius: near the center the branches' arccos and
    # arccosh of a cosine near 1 lose digits that md_k keeps (at k = -1/4 and
    # t = 0.1 they are 1e-14 off, the md_k form 3e-17, against 40-digit values)
    ball = _ball(k)
    for i, rho in enumerate((0.1, 0.5, 0.95)):
        got = cmp.ball_chord_path(ball, rho * ball.r0, 1e-2, seed=i)
        want = _chord_branches(ball, rho * ball.r0, 1e-2, seed=i)
        np.testing.assert_allclose(got.t, want.t, rtol=1e-13, atol=1e-13 * ball.r0)
        np.testing.assert_allclose(got.base, want.base, rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# non-finite input fails at the boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda: cmp.hinge_comparison(math.nan, 0.3, 0.4, 0.5),
    lambda: cmp.model_psi(math.nan, 0.3),
    lambda: cmp.fbar(math.nan, 1.0, 0.2, 0.1, 0.3),
    lambda: cmp.model_phi(1.0, math.nan, 0.3),
    lambda: cmp.hinge_comparison(1.0, math.nan, 0.4, 0.5),
    lambda: cmp.model_lambda0(0.0, math.inf),
    lambda: cmp.model_inradius(0.0, math.inf),
    lambda: riccati_integrate(-1.0, 0.5, math.inf, 0.1),  # with no blow-up it never ended
], ids=["hinge-k", "model_psi-k", "fbar-k", "model_phi-lambda0", "hinge-side",
        "model_lambda0-r0", "model_inradius-lambda0", "riccati-r"])
def test_non_finite_input_is_a_domain_error(call):
    with pytest.raises(DomainError, match="finite"):
        call()


# ---------------------------------------------------------------------------
# k < 0 past the overflow of cosh: the cap, and non-finite closed forms
# ---------------------------------------------------------------------------

E1, E2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])


@pytest.mark.parametrize("call", [
    lambda: spaces.Cone(-1.0, Sphere(1, 1.0), 800.0),
    lambda: spaces.Cone(-4.0, Sphere(1, 1.0), 176.0),  # sqrt(-k) r0 = 352
    lambda: ModelBall(-1.0, 800.0, 2),
], ids=["cone", "cone-k4", "model-ball"])
def test_hyperbolic_cone_past_the_cap_is_a_construction_error(call):
    with pytest.raises(ConstructionError, match="350"):
        call()


def test_hyperbolic_cone_at_the_cap_stays_finite():
    cone = spaces.Cone(-1.0, Sphere(1, 1.0), spaces.HYPERBOLIC_CAP)
    r = spaces.HYPERBOLIC_CAP
    got = cone.distance((r, E1), (r, -E1))
    assert got == spaces._cone_law(-1.0, r, r, math.cos(spaces.distance(Sphere(1, 1.0), E1, -E1)))
    assert got == pytest.approx(2.0 * r, rel=1e-12)
    A = spaces.pack_points(cone, [(r, E1), (r, E2)])
    assert np.all(np.isfinite(spaces.cross_distance(cone, A, A)))


@pytest.mark.parametrize("call", [
    lambda: cmp.hinge_comparison(-1.0, 800, 800, 0.5),  # integer sides once read 0.0
    lambda: cmp.hinge_comparison(-1.0, 800.0, 800.0, 0.5),  # float sides a bare OverflowError
    lambda: cmp.hinge_comparison(-4.0, 0.1, 176.0, 0.5),
], ids=["int-sides", "float-sides", "k4"])
def test_hyperbolic_hinge_past_the_cap_is_a_domain_error(call):
    with pytest.raises(DomainError, match="350"):
        call()


@pytest.mark.parametrize("call", [
    lambda: cmp.model_phi(-1.0, 0.5, 800.0),
    lambda: cmp.fbar(-1.0, 0.5, 0.1, 0.0, 800.0),
    lambda: cmp.model_psi(-1.0, 800.0),
    lambda: cmp.model_phi(-1.0, 0.5, np.array([1.0, 800.0])),
    lambda: cmp.fbar(-1.0, 0.5, 0.1, 0.0, np.array([1.0, 800.0])),
    lambda: cmp.model_psi(-1.0, np.array([1.0, 800.0])),
], ids=["phi", "fbar", "psi", "phi-array", "fbar-array", "psi-array"])
def test_closed_form_overflow_is_a_domain_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(DomainError, match="result must be finite"):
            call()
