"""Model convexity functions and comparison audits.

The model triple (k, lambda0, r0) describes the constant-curvature ball
whose boundary has shape-operator eigenvalue -lambda0 for the inward
normal.  phi = sn_k - lambda0 md_k solves phi'' + k phi = -lambda0 from
phi(0) = 0, phi'(0) = 1, and fbar = f0 cs_k + fdot0 sn_k - lambda0 md_k
from any initial data, in the curvature-k functions of `spaces`; lambda =
phi''/phi' solves lam' + lam^2 = -k from lam(0) = -lambda0 (it is tanh(r -
atanh lambda0) where k = -1 and lambda0 <= 1 never focus), and phi' vanishes
at r0, where sn_k = 1/sqrt(lambda0^2 + k).
The audits compare f = phi(distance to boundary) along analytic geodesics
against fbar and probe the second-order boundary-convexity inequality at foot
points; `nets.verify_curvature` audits curv >= 1 on a net's distance matrix.

The geodesics, the traces and the lens probes are array passes: a path's
samples come from one array expression in the arc parameter and are returned
packed (`ConeCoords`, radial coordinate and base rows), a trace reads the
boundary distance of the whole packed path at once (the descriptor's
closed-form `spaces.boundary_distances`), and a probe scale evaluates all
its probes together.  The embedding oracles that the catalogue runs beside
these audits (`harness`, `embeddings`) compare a descriptor's `formula`
with the maps of `embeddings`, never with the Gram kernel, which on those
joins is the embedding itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import embeddings, spaces
from .errors import ConstructionError, DomainError, PreconditionError
from .spaces import (
    Cone,
    ConeCoords,
    Lens,
    ModelBall,
    PI,
    HALF_PI,
    Sphere,
    clamped_arccos,
    cs_k,
    md_k,
    sn_k,
)

_CANONICAL_K = (-1.0, 0.0, 1.0)


def _check_canonical_k(k: float):
    if float(k) not in _CANONICAL_K:
        raise DomainError(f"closed forms are exposed for k in {{-1, 0, 1}} only, got {k}")


def _check_finite(**values):
    """Raise DomainError unless every named value, a number or an array, is finite."""
    for name, x in values.items():
        if not np.isfinite(x).all():
            raise DomainError(f"{name} must be finite, got {x!r}")


def _closed_form(form, x, **params):
    """form(x), a float for a number x and an array otherwise.  Raises DomainError unless x,
    the named parameters and form(x) are finite (for k < 0 the forms overflow past r ~ 710)."""
    x = float(x) if np.isscalar(x) else np.asarray(x, dtype=float)
    _check_finite(argument=x, **params)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = form(x)
    except OverflowError:  # math.sinh and math.cosh raise where numpy gives inf
        value = math.inf
    _check_finite(result=value)
    return value


def model_inradius(k: float, lambda0: float) -> float:
    """r0 with cs_k/sn_k = lambda0: sn_k(r0) = 1/sqrt(lambda0^2 + k), inverted as md_k = sn_k^2/(1 + cs_k)."""
    _check_canonical_k(k)
    _check_finite(lambda0=lambda0)
    if not lambda0 > 0.0:
        raise DomainError(f"lambda0 must be positive, got {lambda0}")
    if lambda0 * lambda0 + k <= 0.0:
        raise DomainError(f"k=-1 admits a finite model ball only for lambda0 > 1, got {lambda0}")
    sn = 1.0 / math.sqrt(lambda0 * lambda0 + k)
    return spaces._arcmd_k(k, sn * sn / (1.0 + lambda0 * sn))


def model_lambda0(k: float, r0: float) -> float:
    """The boundary convexity cs_k(r0)/sn_k(r0) of the model ball of radius r0."""
    _check_canonical_k(k)
    _check_finite(r0=r0)
    if not r0 > 0.0:
        raise DomainError(f"r0 must be positive, got {r0}")
    if k > 0.0 and r0 > HALF_PI + 1e-12:
        raise DomainError(f"k=1 model balls require r0 <= pi/2, got {r0}")
    return cs_k(k, r0) / sn_k(k, r0)


@dataclass(frozen=True)
class ComparisonModel:
    """The triple (k, lambda0, r0) with lambda0 and r0 tied by the model relation."""

    k: float
    lambda0: float
    r0: float

    def __post_init__(self):
        _check_canonical_k(self.k)
        try:  # model_inradius decides the model's domain: lambda0 > 0, lambda0^2 > -k
            expected = model_inradius(self.k, self.lambda0)
        except DomainError as exc:
            raise ConstructionError(str(exc)) from None
        if abs(expected - self.r0) > 1e-9:
            raise ConstructionError(
                f"r0={self.r0} violates the model relation (expected {expected!r})"
            )

    @classmethod
    def from_lambda0(cls, k: float, lambda0: float) -> "ComparisonModel":
        return cls(k, lambda0, model_inradius(k, lambda0))

    @classmethod
    def from_r0(cls, k: float, r0: float) -> "ComparisonModel":
        return cls(k, model_lambda0(k, r0), r0)


def model_lambda(k: float, lambda0: float, r) -> float:
    """Shape-operator eigenvalue lambda(r) = phi''/phi' of the depth-r level set; lambda(0) = -lambda0."""
    _check_canonical_k(k)
    _check_finite(lambda0=lambda0, r=r)
    if not lambda0 > 0.0:
        raise DomainError(f"lambda0 must be positive, got {lambda0}")
    if np.any(np.asarray(r) < -1e-15):
        raise DomainError("r must be nonnegative")
    if lambda0 * lambda0 > -k:  # the level sets focus at the model radius
        r0 = model_inradius(k, lambda0)
        if np.any(np.asarray(r) >= r0 - 1e-15):
            raise DomainError(f"r must stay below the focal radius r0 = {r0}")
        return _closed_form(lambda r: -(k * sn_k(k, r) + lambda0 * cs_k(k, r)) / model_phi_prime(k, lambda0, r), r)
    # no focus (k = -1, lambda0 <= 1): there phi''/phi' cancels as r grows, to
    # 0/0 at lambda0 = 1, and tanh(r - atanh lambda0) does not; -1 at lambda0 = 1
    shift = math.atanh(lambda0) if lambda0 < 1.0 else math.inf
    return _closed_form(lambda r: spaces._xp(r).tanh(r - shift), r)


def model_phi(k: float, lambda0: float, r):
    """phi(r) = sn_k(r) - lambda0 md_k(r), solving phi'' + k phi = -lambda0, phi(0) = 0, phi'(0) = 1."""
    _check_canonical_k(k)
    return _closed_form(lambda r: sn_k(k, r) - lambda0 * md_k(k, r), r, lambda0=lambda0)


def model_phi_prime(k: float, lambda0: float, r):
    """phi'(r) = cs_k(r) - lambda0 sn_k(r)."""
    _check_canonical_k(k)
    return _closed_form(lambda r: cs_k(k, r) - lambda0 * sn_k(k, r), r, lambda0=lambda0)


def model_psi(k: float, t):
    """psi = md_k, solving psi'' + k psi = 1, psi(0) = psi'(0) = 0."""
    return _closed_form(lambda t: md_k(k, t), t, k=k)


def fbar(k: float, lambda0: float, f0: float, fdot0: float, t):
    """f0 cs_k(t) + fdot0 sn_k(t) - lambda0 md_k(t): the solution of
    y'' + k y = -lambda0 with y(0) = f0, y'(0) = fdot0."""
    return _closed_form(lambda t: f0 * cs_k(k, t) + fdot0 * sn_k(k, t) - lambda0 * md_k(k, t), t,
                        k=k, lambda0=lambda0, f0=f0, fdot0=fdot0)


def hinge_comparison(k: float, a: float, b: float, gamma: float) -> float:
    """Law-of-cosines side opposite a hinge with sides a, b and angle gamma."""
    _check_finite(k=k, a=a, b=b)
    if a < 0.0 or b < 0.0:
        raise DomainError(f"hinge sides must be nonnegative, got a={a}, b={b}")
    if not (0.0 <= gamma <= PI + 1e-12):
        raise DomainError(f"hinge angle must lie in [0, pi], got {gamma}")
    if k > 0.0 and max(a, b) > PI / math.sqrt(k) + 1e-12:
        raise DomainError(f"for k={k} hinge sides must be <= pi/sqrt(k)")
    if k < 0.0 and math.sqrt(-k) * max(a, b) > spaces.HYPERBOLIC_CAP:
        raise DomainError(f"for k={k} hinge sides must be <= {spaces.HYPERBOLIC_CAP:g}/sqrt(-k)")
    return spaces._cone_law(k, a, b, math.cos(gamma))


# ---------------------------------------------------------------------------
# analytic geodesics (model balls and circle cones); never net-searched
# ---------------------------------------------------------------------------


def _samples(length: float, step: float) -> np.ndarray:
    """Arc parameters 0, step, 2 step, ... up to `length`."""
    if not step > 0.0:
        raise DomainError(f"path step must be positive, got {step}")
    return step * np.arange(int(math.floor(length / step)) + 1)


def ball_radial_path(ball: ModelBall, direction, step: float) -> ConeCoords:
    """Unit-speed radial geodesic from the center to the boundary, packed."""
    u = np.asarray(direction, dtype=float)
    return cone_radial_path(ball, u / np.linalg.norm(u), step)


def cone_radial_path(cone: Cone, base_point, step: float) -> ConeCoords:
    """Unit-speed radial geodesic from the apex over `base_point`, packed."""
    ts = _samples(cone.r0, step)
    return ConeCoords(ts, cone.base.pack([base_point] * ts.shape[0]))


def ball_chord_path(ball: ModelBall, rho: float, step: float, seed: int = 0) -> ConeCoords:
    """Unit-speed chord whose closest approach to the center is rho > 0, packed.

    Parameterized from the closest point: the geodesic starts there with a
    tangent perpendicular to the radial direction and is sampled symmetrically
    out to the boundary.  All samples come from one array expression in the
    arc parameter s.
    """
    if not (0.0 < rho < ball.r0):
        raise DomainError(f"chord offset must lie in (0, r0), got {rho}")
    rng = np.random.default_rng(seed)
    e1, e2 = _random_frame(rng, ball.dim)
    k, r0 = ball.k, ball.r0
    # Pythagoras in curvature k: a point at arc s from the closest point lies at
    # radius t with md_k(t) = md_k(s) + md_k(rho) - k md_k(s) md_k(rho), and in
    # the direction cs_k(s) sn_k(rho) e1 + sn_k(s) e2 from the center
    m_rho = md_k(k, rho)
    s_exit = spaces._arcmd_k(k, (md_k(k, r0) - m_rho) / cs_k(k, rho))
    s = _samples(2.0 * s_exit, step) - s_exit
    m_s = md_k(k, s)
    t = spaces._arcmd_k(k, m_s + m_rho - k * m_s * m_rho)
    v = (cs_k(k, s) * sn_k(k, rho))[:, None] * e1 + sn_k(k, s)[:, None] * e2
    n = np.sqrt(np.einsum("ij,ij->i", v, v))
    u = np.where(n[:, None] > 0.0, v / np.where(n > 0.0, n, 1.0)[:, None], e1)
    return ConeCoords(t, u)


def _random_frame(rng, d: int):
    if d == 1:
        raise DomainError("chords off the center need dimension >= 2")
    a = rng.standard_normal((d, 2))
    q, _ = np.linalg.qr(a)
    return q[:, 0], q[:, 1]


def cone_developed_path(cone: Cone, psi0: float, t0: float, psi1: float, t1: float,
                        step: float):
    """Geodesic of a k=1 cone over a circle, built by local development.

    Away from the apex the cone over S^1(r) is locally round; developing
    longitude lam = r * psi turns geodesics into great-circle arcs.  The arc
    is rejected (returns None) if any sample strays too close to the apex or
    winds outside the developed sector, where the unrolling is no longer
    valid.  All samples come from one array expression in the arc length.
    """
    if not isinstance(cone.base, Sphere) or cone.base.dim != 1:
        raise ConstructionError("developed geodesics support cones over circles only")
    if abs(cone.k - 1.0) > 1e-12:
        raise ConstructionError("developed geodesics are implemented for k = 1")
    r = cone.base.radius
    dpsi = (psi1 - psi0) % (2.0 * PI)
    if dpsi > PI:  # go the short way around the base circle
        dpsi = 2.0 * PI - dpsi
        sgn = -1.0
    else:
        sgn = 1.0
    lam = r * dpsi
    if lam > PI - 1e-6:
        return None
    A = np.array([math.sin(t0), 0.0, math.cos(t0)])
    B = np.array([math.sin(t1) * math.cos(lam), math.sin(t1) * math.sin(lam), math.cos(t1)])
    L = clamped_arccos(float(A @ B))
    if L < 4.0 * step:
        return None
    W = B - float(A @ B) * A
    W = W / np.linalg.norm(W)
    s = _samples(L, step)
    c = np.cos(s)[:, None] * A + np.sin(s)[:, None] * W
    t = clamped_arccos(c[:, 2])
    lam_s = np.arctan2(c[:, 1], c[:, 0])
    if np.any((t < 0.05) | (t > cone.r0 + 1e-9) | (lam_s < -1e-6) | (lam_s > lam + 1e-6)):
        return None
    psi = psi0 + sgn * lam_s / r
    return ConeCoords(t, np.stack([np.cos(psi), np.sin(psi)], axis=1))


# ---------------------------------------------------------------------------
# the comparison trace f <= fbar
# ---------------------------------------------------------------------------


@dataclass
class ComparisonTrace:
    ts: np.ndarray
    f_vals: np.ndarray
    fbar_vals: np.ndarray
    max_violation: float

    @property
    def max_equality_gap(self) -> float:
        return float(np.max(np.abs(self.f_vals - self.fbar_vals)))

    def to_csv(self, path):
        rows = np.column_stack(
            [self.ts, self.f_vals, self.fbar_vals, np.maximum(self.f_vals - self.fbar_vals, 0.0)]
        )
        np.savetxt(path, rows, delimiter=",", header="t,f,fbar,violation", comments="")


def comparison_trace(space, lambda0: float, k: float, path, step: float) -> ComparisonTrace:
    """Trace f(t) = phi(distance to boundary) against the model solution fbar.

    `path` holds the packed samples of a discretized unit-speed geodesic, as
    the path builders above return them: its coordinates are checked against
    the domain, and consecutive gaps against `step` to 1e-6.  fbar is
    launched from f(0) with the right derivative estimated by a second-order
    one-sided difference.
    """
    n = spaces.coords_len(path)
    if n < 3:
        raise PreconditionError("path needs at least three samples")
    space.check_coords(path)
    head = spaces.coords_take(path, np.arange(0, n - 1))
    tail = spaces.coords_take(path, np.arange(1, n))
    gaps = spaces.elementwise_distance(space, head, tail)
    worst = float(np.max(np.abs(gaps - step)))
    if worst > 1e-6:
        raise PreconditionError(
            f"path is not unit-speed at the declared step: worst gap deviation {worst!r}"
        )
    r = spaces.boundary_distances(space, path)
    f = model_phi(k, lambda0, r)
    ts = step * np.arange(n)
    fdot0 = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * step)
    fb = fbar(k, lambda0, float(f[0]), float(fdot0), ts)
    violation = float(np.max(np.maximum(f - fb, 0.0)))
    return ComparisonTrace(ts=ts, f_vals=f, fbar_vals=fb, max_violation=violation)


# ---------------------------------------------------------------------------
# metric boundary convexity probe
# ---------------------------------------------------------------------------


@dataclass
class ConvexityReport:
    lambda0: float
    scales: list
    worst_ratio_by_scale: list
    tol: float
    n_probes: int

    @property
    def worst_ratio(self) -> float:
        return self.worst_ratio_by_scale[-1]

    @property
    def passed(self) -> bool:
        # second-order defect ratio must be nonnegative in the limit: require
        # it above -tol at the finest scale and non-worsening as h shrinks
        return (
            self.worst_ratio_by_scale[-1] >= -self.tol
            and self.worst_ratio_by_scale[-1] >= self.worst_ratio_by_scale[0] - self.tol
        )


def convexity_check(space, lambda0: float, probes: int = 1000, h: float = 1e-2,
                    seed: int = 11, tol: float = 1e-3) -> ConvexityReport:
    """Probe |pq| cos(angle(px, pq)) - (lambda0/2)|pq|^2 >= o(|pq|^2) at foot points.

    For each probe: an interior x, its nearest boundary point p, and a
    boundary point q at scale ~h near p.  The defect divided by |pq|^2 is
    evaluated at h, h/2, h/4; the boundary is accepted as lambda0-convex if
    the worst ratio at the finest scale is >= -tol and did not worsen.
    """
    if probes < 1 or not h > 0.0:
        raise DomainError(f"convexity probes need probes >= 1 and h > 0, got {probes} and {h}")
    if not space.has_boundary():
        raise PreconditionError(f"{type(space).__name__} has no boundary to probe")
    scales = [h, h / 2.0, h / 4.0]
    worst = []
    for scale in scales:
        rng = np.random.default_rng(seed)
        if isinstance(space, Cone):
            vals = _convexity_probe_cone(space, lambda0, probes, scale, rng)
        elif isinstance(space, Lens):
            vals = _convexity_probe_lens(space, lambda0, probes, scale, rng)
        else:
            raise PreconditionError(
                f"convexity probes support model balls, cones, and lenses, not "
                f"{type(space).__name__}"
            )
        worst.append(float(np.min(vals)))
    return ConvexityReport(
        lambda0=lambda0, scales=scales, worst_ratio_by_scale=worst, tol=tol, n_probes=probes
    )


def _convexity_probe_cone(space: Cone, lambda0: float, probes: int, scale: float, rng):
    if space.base.has_boundary():
        raise PreconditionError("convexity probes need a boundaryless cone base")
    k, r0 = space.k, space.r0
    sn = sn_k(k, r0)
    delta = scale / sn
    theta = rng.uniform(0.5 * delta, 1.5 * delta, probes)  # base angle between p and q
    # triangle apex-p-q in the developed sector: side |pq| and angle at p
    c = spaces._cone_law(k, r0, r0, np.cos(theta))
    cosb = cs_k(k, r0) * md_k(k, c) / (sn * sn_k(k, c))
    defect = c * cosb - 0.5 * lambda0 * c**2
    return defect / c**2


def _convexity_probe_lens(space: Lens, lambda0: float, probes: int, scale: float, rng):
    """Defect ratios at the s = alpha face, all probes of a draw in one array pass.

    The probe points come from `rng` alone, not from `scale`, so every scale
    started from the same seed probes the same points.
    """
    n, alpha = space.dim, space.alpha
    normal = np.zeros(n + 1)
    normal[-2] = -math.sin(alpha / 2.0)
    normal[-1] = math.cos(alpha / 2.0)
    kept = []
    got = 0
    while got < probes:
        m = probes - got
        t = rng.uniform(0.35, HALF_PI - 0.05, m)
        s = rng.uniform(alpha * 0.55, alpha - 0.05 * alpha, m)
        x_sphere = _unit_rows(rng.standard_normal((m, n - 1)))
        w = rng.standard_normal((m, n + 1))  # a random tangent to the face at the foot
        x_emb = embeddings.embed_lens(space, (x_sphere, t, s))
        foot = x_emb - np.outer(x_emb @ normal, normal)
        nf = np.linalg.norm(foot, axis=1)
        foot /= np.maximum(nf, 1e-300)[:, None]
        w -= _dots(w, foot)[:, None] * foot
        w -= np.outer(w @ normal, normal)
        wn = np.linalg.norm(w, axis=1)
        w /= np.maximum(wn, 1e-300)[:, None]
        # want the s = alpha face strictly nearest, and a foot and a tangent
        ok = (alpha - s < s) & (nf >= 1e-9) & (wn >= 1e-9)
        d_px = clamped_arccos(_dots(x_emb, foot))
        u_x = _unit_rows(x_emb - np.cos(d_px)[:, None] * foot)
        defect = scale * _dots(u_x, w) - 0.5 * lambda0 * scale**2
        kept.append((defect / scale**2)[ok])
        got += int(np.count_nonzero(ok))
    return np.concatenate(kept)


def _dots(a, b) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _unit_rows(a) -> np.ndarray:
    return a / np.linalg.norm(a, axis=1, keepdims=True)
