"""Scripted reproduction suite: named example spaces, audits, and reports.

A catalogue entry is a generator of rows
`(name, expected, observed, tolerance, provenance[, verdict])`; `run_example`
turns each row into a `CheckRecord` through `_check`, the one record
constructor, so the rule that judges a record reads only what it prints.

An entry that needs a net writes a net block,
`_net_rows(cfg, label, space, checks, extra)`.  The block builds the net,
yields one row per declared check `(name, expected, estimate, rule,
provenance)`, then the rows of `extra(net, value, tol)`, then the net's two
metric-audit rows, and drops the net when it ends.  An estimate (`rad`,
`diam`, `soul`, `soul-rim`) is read off the net through `_ESTIMATES` at most
once per block; a rule (`2eps`, `3eps`, `2eff`, `3eff`, `2eff+pi/m`) names
a tolerance in `_TOLERANCES`, the one table of net windows, and an
`expected` that is callable receives that tolerance (a bound such as
"< pi/2 - tol").  `extra` reads the same two tables through `value(key)` and
`tol(rule)`.

Every provenance string names the oracle or exact value that produced the
expected number.  Reports are deterministic for a fixed config apart from
the wall-time field.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, asdict
from functools import partial
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from . import actions as actions_mod
from . import comparison as cmp
from . import embeddings as emb
from . import invariants as inv
from . import nets as nets_mod
from . import serialize, spaces
from .errors import ConstructionError, PreconditionError
from .spaces import Cone, Interval, Join, Lens, ModelBall, PI, HALF_PI, Quotient, Sphere, Suspension

TWO_PI = 2.0 * PI


@dataclass
class ExperimentConfig:
    example_id: str
    epsilon: float = 0.05
    seed: int = 42
    cyclic_order: int = 256
    net_budget: int = 5000
    dim: int | None = None  # sub-case selector where an example has several

    def __post_init__(self):
        if self.example_id not in CATALOGUE:
            raise ConstructionError(f"unknown example id {self.example_id!r}; catalogue: {', '.join(CATALOGUE)}")


@dataclass
class CheckRecord:
    name: str
    expected: object
    observed: object
    tolerance: float
    passed: bool
    provenance: str

    def to_json(self) -> dict:
        return {"name": self.name, "expected": self.expected, "observed": self.observed,
                "tolerance": self.tolerance, "pass": bool(self.passed), "provenance": self.provenance}


@dataclass
class ExperimentReport:
    config: dict
    records: list
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> dict:
        return {"config": self.config, "records": [r.to_json() for r in self.records],
                "pass": bool(self.passed), "wall_time_s": self.wall_time_s}


# a bound record prints "<relation> <bound>" as its expected value
_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt}


def _check(name, expected, observed, tolerance, provenance, verdict=None) -> CheckRecord:
    """The catalogue's one record constructor; `passed` reads only what the record prints.

    A value record (numeric `expected`) passes iff |expected - observed| <= tolerance.
    A bound record (`expected` such as "< 1.470796") passes iff observed lies on the
    printed side of the printed bound; its tolerance is the margin inside that bound.
    A flag record (`expected` "pass") carries the `verdict` of a named rule such as
    `convexity_check`, and that rule's threshold as its tolerance.
    """
    if verdict is not None:
        passed = bool(verdict)
        observed = observed or ("pass" if passed else "fail")
    elif isinstance(expected, str):
        relation, bound = expected.split()
        observed = float(observed)
        passed = bool(_RELATIONS[relation](observed, float(bound)))
    else:
        expected, observed = float(expected), float(observed)
        passed = abs(expected - observed) <= float(tolerance)
    return CheckRecord(name, expected, observed, float(tolerance), passed, provenance)


# ---------------------------------------------------------------------------
# net blocks: the two tables and the one helper every net goes through
# ---------------------------------------------------------------------------


def _estimate(net, held: dict, key: str):
    """`_ESTIMATES[key]` of `net`, computed on first use and kept in `held`."""
    if key not in held:
        held[key] = _ESTIMATES[key](net, held)
    return held[key]


# what a net check observes, by key
_ESTIMATES = {
    "rad": lambda net, held: inv.radius(net).value,
    "diam": lambda net, held: inv.diameter(net).value,
    "soul": lambda net, held: inv.soul(net),
    "soul-rim": lambda net, held: inv.soul_boundary_distance(net, _estimate(net, held, "soul")),
}

# the window of a net check, by rule: from the requested epsilon or the net's eps_eff
_TOLERANCES = {
    "2eps": lambda cfg, net: 2.0 * cfg.epsilon,
    "3eps": lambda cfg, net: 3.0 * cfg.epsilon,
    "2eff": lambda cfg, net: 2.0 * net.epsilon_effective,
    "3eff": lambda cfg, net: 3.0 * net.epsilon_effective,
    "2eff+pi/m": lambda cfg, net: 2.0 * net.epsilon_effective + PI / cfg.cyclic_order,
}

AUDIT_TOL = 1e-9


def _net_rows(cfg: ExperimentConfig, label: str, space, checks, extra=None):
    """Rows of one net block: the declared `checks`, the rows of `extra`, the two audit rows."""
    net = nets_mod.epsilon_net(space, cfg.epsilon, cfg.seed, budget=cfg.net_budget, allow_degrade=True)
    value = partial(_estimate, net, {})  # no closure over itself: no cycle outlives the block

    def tol(rule):
        return _TOLERANCES[rule](cfg, net)

    for name, expected, estimate, rule, provenance in checks:
        window = tol(rule)
        yield name, expected(window) if callable(expected) else expected, value(estimate), window, provenance
    if extra is not None:
        yield from extra(net, value, tol)
    audit = nets_mod.verify_metric(net, tol=AUDIT_TOL)
    yield (f"{label}: metric audit (triangle defect)", f"<= {AUDIT_TOL:g}", audit.triangle_defect, AUDIT_TOL,
           "symmetry and triangle-inequality scan of the net distance matrix"
           + ("" if audit.exhaustive else
              f" (sampled, {audit.n_pairs} pairs \u00d7 every middle point, {audit.n_triples} triples)"))
    yield (f"{label}: metric audit (symmetry and diagonal defect)", f"<= {AUDIT_TOL:g}",
           max(audit.symmetry_defect, audit.diagonal_defect), AUDIT_TOL,
           "largest |D[i, j] - D[j, i]| and |D[i, i]| over the net distance matrix")


# ---------------------------------------------------------------------------
# stock group actions used by the catalogue
# ---------------------------------------------------------------------------


def projective_lens_quotient(dim: int, length: float) -> Quotient:
    """Z_2 quotient of the lens written as a join/suspension over an interval.

    dim = 2: suspension of the interval, poles swapped and interval reflected.
    dim > 2: circle times interval join, antipodal on the circle, reflected
    interval.  The fixed point of the action is the lens soul.
    """
    if dim == 2:
        base = Suspension(Interval(length))
        g = actions_mod.SuspensionMap(True, actions_mod.IntervalReflection(length))
    elif dim == 3:
        base = Join(Sphere(1, 1.0), Interval(length))
        g = actions_mod.JoinMap(actions_mod.antipodal_map(Sphere(1, 1.0)),
                                actions_mod.IntervalReflection(length))
    else:
        raise ConstructionError(f"projective lens quotient supports dim 2 and 3, got {dim}")
    return Quotient(base, actions_mod.GroupAction(base, (actions_mod.Identity(), g), name="Z_2"))


def spine_example_quotient(reflect: bool, rho: float = 1.0) -> Quotient:
    """(circle * spherical cap)/Z_2; reflection on the cap puts the soul on
    the spine's fold, rotation on both factors keeps it interior."""
    cap = Cone(1.0, Sphere(1, 1.0), rho)
    base = Join(Sphere(1, 1.0), cap)
    rot = actions_mod.OrthogonalMap(actions_mod.rotation_matrix(PI))
    cap_part = actions_mod.circle_reflection_matrix() if reflect else actions_mod.rotation_matrix(PI)
    g = actions_mod.JoinMap(rot, actions_mod.ConeMap(actions_mod.OrthogonalMap(cap_part)))
    return Quotient(base, actions_mod.GroupAction(base, (actions_mod.Identity(), g), name="Z_2"))


# ---------------------------------------------------------------------------
# the ellipse solver
# ---------------------------------------------------------------------------


@dataclass
class EllipseSolution:
    a_star: float
    half_perimeter: float
    bracket: tuple
    curvature_ok: bool
    iterations: int


def half_perimeter(a: float, c: float) -> float:
    """Half the perimeter of the ellipse x^2/a^2 + z^2/c^2 = 1 by quadrature."""
    val, _ = quad(lambda th: math.sqrt(a * a * math.sin(th) ** 2 + c * c * math.cos(th) ** 2),
                  0.0, TWO_PI, epsabs=1e-13, epsrel=1e-13, limit=200)
    return 0.5 * val


def solve_ellipse_parameter(b: float = 1.0 / 3.0, c: float = 0.25, tol: float = 1e-10) -> EllipseSolution:
    """Bisection for the semi-axis a with half-perimeter(a, c) = pi/2.

    The bracket is (b, c/b): below c/b the surface keeps curvature >= 1
    (the minimum sits at the flattest poles), and the half-perimeter is
    monotone in a.  A failed sign check at the ends raises.
    """
    if not tol > 0.0:
        raise PreconditionError("tolerance must be positive")
    lo, hi = b, c / b
    f_lo = half_perimeter(lo, c) - HALF_PI
    f_hi = half_perimeter(hi, c) - HALF_PI
    if not (f_lo < 0.0 < f_hi):
        raise ConstructionError(f"bisection bracket ({lo:.6f}, {hi:.6f}) does not straddle pi/2: "
                                f"h(lo)-pi/2={f_lo:.6f}, h(hi)-pi/2={f_hi:.6f}")
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if half_perimeter(mid, c) < HALF_PI:
            lo = mid
        else:
            hi = mid
        iterations += 1
    a_star = 0.5 * (lo + hi)
    return EllipseSolution(a_star=a_star, half_perimeter=half_perimeter(a_star, c), bracket=(b, c / b),
                           curvature_ok=a_star <= c / b + 1e-12, iterations=iterations)


# ---------------------------------------------------------------------------
# catalogue entries: generators of rows
# ---------------------------------------------------------------------------


def _ex3_1(cfg: ExperimentConfig):
    """Half-radius sphere and the basic interval join at maximal radius."""
    yield from _net_rows(cfg, "S^2(1/2) net", Sphere(2, 0.5), [
        ("rad S^2(1/2)", HALF_PI, "rad", "2eps",
         "exact radius of the half-radius round sphere; net minimax estimate"),
    ], _antipodal_rows)
    yield from _net_rows(cfg, "[0,pi]*[0,pi] net", Join(Interval(PI), Interval(PI)), [
        ("rad [0,pi]*[0,pi]", HALF_PI, "rad", "2eff",
         "pure-latitude center: distance from a latitude-pi/4 slice point never "
         "exceeds pi/2 by the join law of cosines; net minimax estimate"),
        ("diam [0,pi]*[0,pi]", PI, "diam", "2eff",
         "interval endpoints at latitude 0 realize distance pi; net max estimate"),
    ])


def _antipodal_rows(net, value, tol):
    """ex3_1: the poles of the half-radius sphere are a dual pair."""
    north = nets_mod.nearest_index(net, np.array([0.0, 0.0, 1.0]))
    south = nets_mod.nearest_index(net, np.array([0.0, 0.0, -1.0]))
    dual = inv.dual_pair_check(net, [north], [south], tol=tol("3eff"))
    yield ("antipodal dual pair on S^2(1/2)", 0.0, max(dual.pair_defect, dual.decomposition_defect), dual.tol,
           "every point of the half-radius sphere splits the quarter-circle between "
           "a point and its antipode; exhaustive net check; the larger of the pair and "
           "decomposition defects, tolerance 3*eps_eff")


# the embedding oracles compare `formula` on ORACLE_PAIRS packed pairs of
# seeded points; the first SCALAR_PAIRS of those pairs go through scalar
# `spaces.distance` and the scalar embedding as well
ORACLE_PAIRS = 10_000
SCALAR_PAIRS = 200


def _oracle_pairs(space, rng):
    """2 ORACLE_PAIRS seeded points of `space`: the even and the odd ones packed,
    and the first SCALAR_PAIRS pairs as point tuples."""
    pts = nets_mod.random_points(space, 2 * ORACLE_PAIRS, rng)
    P, Q = (spaces.pack_points(space, pts[i::2]) for i in (0, 1))
    return P, Q, list(zip(pts[0 : 2 * SCALAR_PAIRS : 2], pts[1 : 2 * SCALAR_PAIRS : 2]))


def _oracle_worst(deviations, sample, scalar_deviation) -> float:
    """Largest |deviation| over the packed pairs and the scalar sample; NaN if any is NaN."""
    scalar = [scalar_deviation(p, q) for p, q in sample]
    return float(np.max(np.abs(np.concatenate([deviations, scalar]))))


def _chord(embed):
    """The unit-sphere distance between the images under `embed`, of points or packed columns."""
    return lambda p, q: emb.sphere_chord_distance(embed(p), embed(q))


def _ex3_2(cfg: ExperimentConfig):
    """Re-association of the interval join into an interval-circle join."""
    rng = np.random.default_rng(cfg.seed)
    J1 = Join(Interval(PI), Interval(PI))
    J2 = Join(Interval(HALF_PI), Sphere(1, 1.0))
    P, Q, sample = _oracle_pairs(J1, rng)
    reassoc = emb.reassociate_interval_join
    A, B = (spaces.JoinCoords(*reassoc((C.left, C.t, C.right))) for C in (P, Q))
    for C in (A, B):
        J2.check_coords(C)
    worst = _oracle_worst(
        J1.formula(P, Q, False) - J2.formula(A, B, False), sample,
        lambda p, q: spaces.distance(J1, p, q) - spaces.distance(J2, reassoc(p), reassoc(q)),
    )
    yield ("interval-join re-association max deviation", 0.0, worst, 1e-9,
           "orthogonal axis permutation of the ambient 3-sphere carries one convex "
           "region onto the other; 10^4 seeded coordinate pairs")


def _ex3_3(cfg: ExperimentConfig):
    """Ellipsoid with curvature >= 1 tuned to diameter pi/2."""
    sol = solve_ellipse_parameter(tol=1e-10)
    b, c = 1.0 / 3.0, 0.25
    for end, side, rel, a in (("b", "below", "<", b), ("c/b", "above", ">", c / b)):
        yield (f"bisection bracket straddles pi/2: h({end}) {side}", f"{rel} {HALF_PI:.6f}",
               half_perimeter(a, c), 0.0,
               f"quadrature of the cross-section arclength at the bracket end a = {end}")
    yield ("half-perimeter at a*", HALF_PI, sol.half_perimeter, 1e-8,
           "adaptive quadrature of (1/2) * integral of sqrt(a^2 sin^2 + c^2 cos^2)")
    yield ("a* above the bracket end b = 1/3", f"> {b:.6f}", sol.a_star, 0.0,
           "the bisection stays inside its bracket (b, c/b)")
    yield ("a* below the curvature bound c/b = 3/4", f"< {c / b:.6f}", sol.a_star, 0.0,
           "minimum curvature c^2/(a^2 b^2) at the flattest poles stays >= 1 "
           "iff a <= c/b")
    yield from _net_rows(cfg, "ellipsoid net", spaces.Ellipsoid(sol.a_star, b, c), [
        ("ellipsoid net diameter", HALF_PI, "diam", "3eps",
         "graph geodesic between the long-axis tips equals the half-perimeter "
         "of the flattest cross-section, tuned to pi/2 by the bisection oracle"),
    ])


# ex3_4's radius check by lens dimension: name, expected, provenance
_LENS_QUOTIENT_RADII = {
    2: ("rad (susp[0,1]/Z_2)", lambda tol: f"< {HALF_PI - tol:.6f}",
        "the identified double point collapses the far pair; balancing "
        "the pole and corner eccentricities gives a center strictly "
        "inside the half-radius bound (net minimax estimate)"),
    3: ("rad (S^1(1)*[0,1])/Z_2", HALF_PI,
        "the circle factor descends to a half-circumference circle of "
        "radius pi/2, and latitude splits distances; net minimax estimate"),
}


def _ex3_4(cfg: ExperimentConfig):
    """Z_2 lens quotients: radius collapses for dim 2, stays maximal for dim 3."""
    for d in [cfg.dim] if cfg.dim in _LENS_QUOTIENT_RADII else _LENS_QUOTIENT_RADII:
        name, expected, provenance = _LENS_QUOTIENT_RADII[d]
        yield from _net_rows(cfg, f"dim-{d} quotient net", projective_lens_quotient(d, 1.0),
                             [(name, expected, "rad", "2eps", provenance)])


def _ex3_5(cfg: ExperimentConfig):
    """Circle joined with a folded lune: the pi/2-level set of the soul gains boundary."""
    X = Join(Sphere(1, 0.75), projective_lens_quotient(2, 1.0))
    return _net_rows(cfg, "join-with-quotient net", X, [
        ("rad S^1(3/4)*(susp[0,1]/Z_2)", HALF_PI, "rad", "2eff",
         "circle factor at latitude 0 keeps every point within pi/2 of the "
         "latitude-pi/2 slice; net minimax estimate"),
        ("soul-to-boundary distance", 0.5, "soul-rim", "2eff",
         "the folded lune has inradius half its interval length; joining with a "
         "boundaryless circle preserves it"),
    ], _edge_rows)


def _edge_rows(net, value, tol):
    """ex3_5: the soul's edge set carries boundary flags, and its spine holds the soul."""
    edge = inv.edge_set(net, value("soul"), tol("2eff"))
    flagged = bool(net.is_boundary[edge.indices].any())
    yield ("edge set nonempty and touches boundary flags", "pass",
           f"|edge| = {len(edge)}, boundary-flagged = {flagged}", tol("2eff"),
           "the pi/2-level set of the soul is the cone over the circle factor, "
           "whose points all carry boundary flags here; edge threshold pi/2 - 2*eps_eff",
           len(edge) > 0 and flagged)
    yield _spine_row("spine contains the soul", net, value("soul"), edge, tol("2eff"))


def _spine_row(name, net, soul, edge, tol):
    """Flag: the soul lies in the spine of its edge set; an empty edge set fails it."""
    inside = len(edge) > 0 and bool(np.isin(soul, inv.spine_set(net, edge.indices, tol)))
    return (name, "pass", "", tol,
            "duality of the pi/2-level sets at net resolution; edge and spine thresholds pi/2 - 2*eps_eff",
            inside)


def _spine_net(reflect: bool, extra, cfg: ExperimentConfig):
    """(circle * cap)/Z_2: radius and soul depth, then the rows of `extra`."""
    return _net_rows(cfg, "quotient net", spine_example_quotient(reflect=reflect, rho=1.0), [
        ("rad (S^1*cap)/Z_2", HALF_PI, "rad", "2eff",
         "rotations preserve the join latitudes, so the maximal-radius criterion "
         "survives the quotient; net minimax estimate"),
        ("soul-to-boundary distance", 1.0, "soul-rim", "2eff",
         "the cap center stays at cap-radius distance from the rim in the quotient"),
    ], extra)


def _fold_rows(net, value, tol):
    """ex3_6, reflection on the cap factor: the soul lands on the spine's fold."""
    Q = net.space
    move = spaces.elementwise_distance(Q.base, net.coords, Q.action.elements[1].apply(net.coords))
    fixed = np.flatnonzero(move <= tol("2eff"))
    yield ("soul sits on the reflection fold", 0.0, np.min(net.dist[value("soul"), fixed], initial=math.inf),
           tol("2eff"),
           "the fold (fixed locus of the reflection) is the spine's boundary; "
           "the farthest-from-rim point lies on it; fixed locus = points the "
           "reflection moves by <= 2*eps_eff, tolerance 2*eps_eff")
    edge = inv.edge_set(net, value("soul"), tol("2eff"))
    yield _spine_row("soul lies in the spine", net, value("soul"), edge, tol("2eff"))


def _slice_rows(net, value, tol):
    """ex3_7, rotation on both factors: interior soul, the latitude slices a dual pair."""
    t = net.coords.t
    dual = inv.dual_pair_check(net, np.flatnonzero(t <= 1e-12), np.flatnonzero(t >= HALF_PI - 1e-12),
                               tol=tol("3eff"))
    yield ("edge-spine dual pair (latitude slices): pair defect", 0.0, dual.pair_defect, 1e-12,
           "the latitude-0 and latitude-pi/2 slices are mutually at pi/2; quotient "
           "motion preserves latitude; tolerance 1e-12")
    yield ("edge-spine dual pair (latitude slices): decomposition defect", 0.0,
           dual.decomposition_defect, tol("3eff"),
           "the two slices split every latitude exactly; quotient motion preserves "
           "latitude; tolerance 3*eps_eff")


def _ex3_8(cfg: ExperimentConfig):
    """Structural identities of the diagonal cyclic action on a big join."""
    m = cfg.cyclic_order
    E = Sphere(3, 1.0)
    cap = Cone(1.0, Sphere(1, 1.0), 1.0)
    X = Join(E, cap)
    QX = Quotient(X, actions_mod.cyclic_approximation(X, m))
    rng = np.random.default_rng(cfg.seed)
    pts = nets_mod.random_points(X, 300, rng)
    P = spaces.pack_points(X, pts)
    A = spaces.pack_points(X, [(e_x, 0.0, cap.canonical_point()) for e_x, _, _ in pts])
    B = spaces.pack_points(X, [(E.canonical_point(), HALF_PI, y_x) for _, _, y_x in pts])
    d_xa, d_xb = (spaces.elementwise_distance(QX, P, C) for C in (A, B))
    yield ("slice-to-slice distance pi/2 in the quotient", 0.0,
           np.max(np.abs(spaces.elementwise_distance(QX, A, B) - HALF_PI)), 1e-9,
           "latitude is preserved by the diagonal action, so latitude-0 and "
           "latitude-pi/2 points stay at pi/2 over every group element")
    yield ("latitude split |xA| + |xB| = pi/2 in the quotient", 0.0,
           np.max(np.abs(d_xa + d_xb - HALF_PI)), 1e-9,
           "per-sample witnesses: the nearest slice points realize t and pi/2 - t "
           "and group motion only increases both")
    small = actions_mod.cyclic_approximation(X, 8)
    audit = actions_mod.validate_action(X, small, n_pairs=200, seed=cfg.seed, tol=1e-9)
    yield ("diagonal action passes the isometry audit (order 8 spot check)", 0.0,
           max(audit.identity_defect, audit.closure_defect, audit.isometry_defect), 1e-9,
           "identity membership, closure on sample points, distance preservation; "
           "the largest of the identity, closure and isometry defects, tolerance 1e-9")
    yield from _net_rows(cfg, "cap quotient net", Quotient(cap, actions_mod.cyclic_approximation(cap, m)), [
        ("rad (cap/Z_m) below pi/2 plus resolution", lambda tol: f"< {HALF_PI + tol:.6f}", "rad", "2eff",
         "the rotated cap keeps radius at most its cap radius 1.0 < pi/2; "
         "bound pi/2 + 2*eps_eff"),
    ])


def _ex3_9(cfg: ExperimentConfig):
    """Cyclic surrogates of the circle action on the 3-sphere."""
    m = cfg.cyclic_order
    S3 = Sphere(3, 1.0)

    def doubling_rows(net, value, tol):
        # 200 seeded pairs: the even draws are x, the odd ones y
        rng = np.random.default_rng(cfg.seed + 1)
        P = spaces.pack_points(S3, nets_mod.random_points(S3, 400, rng))
        gaps = []  # d in the Z_2m quotient minus d in the Z_m one, per pair
        for m_small in (m // 4, m // 2):
            q_small = Quotient(S3, actions_mod.cyclic_approximation(S3, m_small))
            q_big = Quotient(S3, actions_mod.cyclic_approximation(S3, 2 * m_small))
            gaps.append(spaces.elementwise_distance(q_big, P[0::2], P[1::2])
                        - spaces.elementwise_distance(q_small, P[0::2], P[1::2]))
        gaps = np.concatenate(gaps)
        yield ("doubling m never increases quotient distances", 0.0, max(np.max(gaps), 0.0), 1e-12,
               "a subgroup chain only grows the set minimized over")
        yield (f"halving defect below 2pi/{m // 4}", f"< {TWO_PI / (m // 4):.6f}", np.max(-gaps), 0.0,
               "rotating by at most half the surrogate spacing moves points at most pi/m")

    yield from _net_rows(cfg, "S^3/Z_m net", Quotient(S3, actions_mod.cyclic_approximation(S3, m)), [
        ("diam S^3/Z_m", HALF_PI, "diam", "2eff+pi/m",
         "the full circle quotient is the round half-radius 2-sphere of diameter "
         "pi/2; the cyclic surrogate adds at most pi/m; net max estimate"),
        ("rad S^3/Z_m", HALF_PI, "rad", "2eff+pi/m",
         "same surrogate bound around the minimax value of the circle quotient"),
    ], doubling_rows)


VOLUME_TOL = 1e-12  # the closed-form volumes round in their last few bits only


def _lens_volume(cfg: ExperimentConfig):
    for n in (2, 3):
        expected = spaces.unit_sphere_volume(n - 1)
        for alpha in (0.5, 1.5, PI):
            yield (f"boundary volume L_{alpha:g}^{n}", expected, inv.boundary_volume(Lens(n, alpha)), VOLUME_TOL,
                   "two totally geodesic faces, each half a unit sphere; the total is "
                   "the unit-sphere volume independent of the wedge angle "
                   "(closed-form join volume, tolerance 1e-12)")
    yield ("boundary volume of the flat unit disk", TWO_PI, inv.boundary_volume(ModelBall(0.0, 1.0, 2)), VOLUME_TOL,
           "circumference of the radius-1 circle (closed-form cone volume, tolerance 1e-12)")


def _cone_rigidity(cfg: ExperimentConfig):
    step = 1e-3
    for k, r0 in [(-1.0, 1.0), (0.0, 1.0), (1.0, PI / 4.0)]:
        lam0 = cmp.model_lambda0(k, r0)
        ball = ModelBall(k, r0, 3)
        worst_violation = 0.0
        rng = np.random.default_rng(cfg.seed + int(10 * (k + 2)))
        for i in range(34):
            rho = float(rng.uniform(0.1, 0.9) * r0)
            path = cmp.ball_chord_path(ball, rho, step, seed=cfg.seed + i)
            tr = cmp.comparison_trace(ball, lam0, k, path, step)
            worst_violation = max(worst_violation, tr.max_violation)
        yield (f"chord traces in the k={k:g} model ball stay below the model solution",
               0.0, worst_violation, 5.0 * step,
               "distance to the boundary composed with the convexity profile solves "
               "the model ODE exactly in the model ball; one-sided launch error is "
               "O(step^2)")
        radial = cmp.ball_radial_path(ball, np.eye(3)[0], step)
        tr = cmp.comparison_trace(ball, lam0, k, radial, step)
        yield (f"radial trace equality in the k={k:g} model ball",
               0.0, tr.max_equality_gap, 5.0 * step,
               "radial launch has zero initial slope at the center value, so the "
               "trace and the model solution coincide")
    cone = Cone(1.0, Sphere(1, 0.75), HALF_PI)
    lam0 = cmp.model_lambda0(1.0, HALF_PI)  # = 0: totally geodesic cap boundary
    rng = np.random.default_rng(cfg.seed)
    worst_gap = 0.0
    count = 0
    while count < 32:
        t0, t1 = rng.uniform(0.35, HALF_PI, 2)
        psi0, psi1 = rng.uniform(0.0, TWO_PI, 2)
        path = cmp.cone_developed_path(cone, psi0, t0, psi1, t1, step)
        if path is None:
            continue
        tr = cmp.comparison_trace(cone, lam0, 1.0, path, step)
        worst_gap = max(worst_gap, tr.max_equality_gap)
        count += 1
    radial = cmp.cone_radial_path(cone, np.array([1.0, 0.0]), step)
    tr = cmp.comparison_trace(cone, lam0, 1.0, radial, step)
    yield ("trace equality on the circle cone", 0.0, max(worst_gap, tr.max_equality_gap), 5.0 * step,
           "constant radial curvature makes the convexity ODE an identity along "
           "every geodesic; paths generated by local development")


def _ball_convexity(cfg: ExperimentConfig):
    probes, tol = 1000, 1e-3
    rule = (f"; convexity_check's threshold {tol:g}: the finest-scale worst ratio is "
            f">= -{tol:g} and at most {tol:g} below the coarsest")
    for k, r0 in [(-1.0, 1.0), (0.0, 1.0), (1.0, PI / 4.0)]:
        lam0 = cmp.model_lambda0(k, r0)
        ball = ModelBall(k, r0, 3)
        good = cmp.convexity_check(ball, lam0, probes=probes, seed=cfg.seed, tol=tol)
        bad = cmp.convexity_check(ball, 1.5 * lam0, probes=probes, seed=cfg.seed, tol=tol)
        yield (f"k={k:g} ball convex at its own profile", "pass", f"worst ratio {good.worst_ratio:.2e}", tol,
               "the law of cosines at boundary foot points has vanishing "
               "second-order defect at the model value" + rule,
               good.passed)
        yield (f"k={k:g} ball rejects an inflated profile", "pass", f"worst ratio {bad.worst_ratio:.3f}", tol,
               "the defect ratio converges to (lam0 - 1.5 lam0)/2 < 0" + rule,
               not bad.passed)
    for n in (2, 3):
        lens = Lens(n, 1.0)
        fails = [not cmp.convexity_check(lens, lam, probes=probes, seed=cfg.seed, tol=tol).passed
                 for lam in (0.5, 1.0, 2.0)]
        yield (f"lens faces fail every positive profile (n={n})", "pass",
               f"failed at lambda0 = 0.5, 1.0, 2.0: {fails}", tol,
               "foot-point geodesics hit the totally geodesic faces orthogonally, so "
               "the defect ratio converges to -lambda0/2" + rule,
               all(fails))


def _join_reassoc(cfg: ExperimentConfig):
    rng = np.random.default_rng(cfg.seed)
    J = Join(Sphere(1, 1.0), Sphere(1, 1.0))
    P, Q, sample = _oracle_pairs(J, rng)
    chord = _chord(emb.embed_join_circle_circle)
    worst = _oracle_worst(
        J.formula(P, Q, False) - chord((P.left, P.t, P.right), (Q.left, Q.t, Q.right)), sample,
        lambda p, q: spaces.distance(J, p, q) - chord(p, q),
    )
    yield ("circle join vs round 3-sphere", 0.0, worst, 1e-12,
           "explicit isometric embedding (cos t u, sin t v) into the unit 3-sphere")
    S = Suspension(Sphere(1, 1.0))
    P, Q, sample = _oracle_pairs(S, rng)
    chord = _chord(emb.embed_suspension_circle)
    worst = _oracle_worst(
        S.formula(P, Q, False) - chord((P.u, P.base), (Q.u, Q.base)), sample,
        lambda p, q: spaces.distance(S, p, q) - chord(p, q),
    )
    yield ("circle suspension vs round 2-sphere", 0.0, worst, 1e-12,
           "colatitude embedding into the unit 2-sphere")

    lens = Lens(3, PI)
    dbl = spaces.double_join(lens)
    P, Q, sample = _oracle_pairs(lens, np.random.default_rng(cfg.seed + 3))

    def double(x, t, s):
        return x, t, emb.interval_point_on_double(s, PI)

    DP, DQ = (spaces.JoinCoords(*double(C.left, C.t, C.right)) for C in (P, Q))
    for C in (DP, DQ):
        dbl.check_coords(C)
    d_dbl = dbl.formula(DP, DQ, False)
    chord = _chord(emb.embed_join_sphere_circle)
    worst_dbl = _oracle_worst(
        d_dbl - chord((DP.left, DP.t, DP.right), (DQ.left, DQ.t, DQ.right)), sample,
        lambda p, q: spaces.distance(dbl, double(*p), double(*q)) - chord(double(*p), double(*q)),
    )
    worst_fund = _oracle_worst(
        lens.formula(P, Q, False) - d_dbl, sample,
        lambda p, q: spaces.distance(lens, p, q) - spaces.distance(dbl, double(*p), double(*q)),
    )
    yield ("doubled hemisphere vs round 3-sphere", 0.0, worst_dbl, 1e-12,
           "the doubled interval closes into the unit circle, giving the standard "
           "sphere join embedding")
    yield ("hemisphere embeds isometrically in its double", 0.0, worst_fund, 1e-12,
           "interval coordinates map to a half circle where the wrap-around path "
           "is never shorter")


CATALOGUE = {
    "ex3_1": (_ex3_1, "half-radius sphere and interval join at radius pi/2"),
    "ex3_2": (_ex3_2, "re-association of the interval join into an interval-circle join"),
    "ex3_3": (_ex3_3, "ellipsoid with curvature >= 1 tuned to diameter pi/2"),
    "ex3_4": (_ex3_4, "Z_2 lens quotients: radius collapses in dim 2, survives in dim 3"),
    "ex3_5": (_ex3_5, "circle join with a folded lune: edge with boundary flags"),
    "ex3_6": (partial(_spine_net, True, _fold_rows),
              "cap reflection quotient: soul on the spine's fold"),
    "ex3_7": (partial(_spine_net, False, _slice_rows),
              "cap rotation quotient: interior soul, dual pair intact"),
    "ex3_8": (_ex3_8, "diagonal cyclic action on a large join: structural identities"),
    "ex3_9": (_ex3_9, "cyclic surrogates of the circle action on the 3-sphere"),
    "lens_volume": (_lens_volume, "boundary volume of the lens family equals the sphere volume"),
    "cone_rigidity": (_cone_rigidity, "trace comparison and its equality cases"),
    "ball_convexity": (_ball_convexity, "boundary convexity probes: model balls pass, lenses fail"),
    "join_reassoc": (_join_reassoc, "join/suspension/double embedding oracles"),
}


def run_example(example_id: str, config: ExperimentConfig | None = None, **overrides) -> ExperimentReport:
    if config is None:
        config = ExperimentConfig(example_id=example_id, **overrides)
    if config.example_id != example_id:
        raise ConstructionError("config.example_id does not match the requested example")
    entry, _ = CATALOGUE[example_id]
    start = time.perf_counter()
    records = [_check(*row) for row in entry(config)]
    wall = time.perf_counter() - start
    return ExperimentReport(config=asdict(config), records=records, wall_time_s=wall)


def run_all(epsilon: float = 0.05, seed: int = 42, mc_samples: int | None = None,
            cyclic_order: int = 256, net_budget: int = 5000, workers: int = 1) -> list:
    """Run the whole catalogue, one entry after another; `workers` must be 1, and `mc_samples` is unused."""
    if workers != 1:
        raise PreconditionError(f"the catalogue runs in one thread; workers must be 1, got {workers!r}")
    return [
        run_example(eid, ExperimentConfig(example_id=eid, epsilon=epsilon, seed=seed,
                                          cyclic_order=cyclic_order, net_budget=net_budget))
        for eid in CATALOGUE
    ]


def emit_report(report: ExperimentReport, path) -> Path:
    """Write the JSON report; identical configs reproduce identical records."""
    path = Path(path)
    path.write_text(serialize.stable_dumps(report.to_json()) + "\n")
    return path
