"""Net construction: determinism, covering, boundary flags, metric audit."""

import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from alexgeo import actions, nets, serialize, spaces
from alexgeo.errors import CapacityError, ConstructionError, DomainError
from alexgeo.harness import spine_example_quotient
from alexgeo.nets import epsilon_net, verify_metric
from alexgeo.spaces import (
    Cone,
    Ellipsoid,
    Interval,
    Join,
    Lens,
    ModelBall,
    Quotient,
    Sphere,
    Suspension,
)

PI = math.pi
HALF_PI = math.pi / 2.0


class TestIntervalNet:
    def test_grid_of_32_points_with_flagged_endpoints(self):
        net = epsilon_net(Interval(PI), 0.1, 42)
        assert net.n == 32
        assert net.is_boundary[0] and net.is_boundary[-1]
        assert int(net.is_boundary.sum()) == 2
        assert nets.covering_check(net, 4000) <= 0.1


class TestSphereNets:
    def test_fibonacci_covering_spotcheck(self):
        net = epsilon_net(Sphere(2, 1.0), 0.2, 42)
        assert not net.is_boundary.any()
        assert nets.covering_check(net, 10_000) <= 0.2

    def test_diameter_estimate_window(self):
        for r, eps in [(1.0, 0.2), (0.5, 0.05)]:
            net = epsilon_net(Sphere(2, r), eps, 7)
            diam = float(net.dist.max())
            assert PI * r - 2.0 * eps <= diam <= PI * r + 1e-12

    def test_three_sphere_covering(self):
        net = epsilon_net(Sphere(3, 1.0), 0.2, 42, allow_degrade=True)
        assert nets.covering_check(net, 4000) <= net.epsilon_effective

    def test_circle(self):
        net = epsilon_net(Sphere(1, 0.75), 0.05, 1)
        assert nets.covering_check(net, 2000) <= 0.05


class TestCompositeNets:
    def test_lens_flags_mark_faces_and_rim(self):
        net = epsilon_net(Lens(2, PI), 0.05, 42)
        # hemisphere: flagged points are exactly the equator copy
        flags = net.boundary_indices()
        assert flags.size > 0
        for i in flags[:50]:
            x, t, s = net.point(i)
            assert t == pytest.approx(0.0, abs=1e-12) or min(s, PI - s) <= 1e-12

    def test_cone_cap_flagged(self):
        net = epsilon_net(Cone(1.0, Sphere(1, 1.0), 1.0), 0.05, 42)
        for i in net.boundary_indices()[:50]:
            t, _ = net.point(i)
            assert t == pytest.approx(1.0, abs=1e-12)
        assert nets.covering_check(net, 4000) <= net.epsilon_effective

    def test_join_covering(self):
        net = epsilon_net(Join(Sphere(1, 1.0), Interval(1.0)), 0.05, 42, allow_degrade=True)
        assert nets.covering_check(net, 4000) <= net.epsilon_effective

    def test_suspension_poles_flagged_when_base_has_boundary(self):
        net = epsilon_net(Suspension(Interval(1.0)), 0.05, 42)
        us = net.coords.u
        pole_idx = np.flatnonzero((us <= 1e-12) | (us >= PI - 1e-12))
        assert net.is_boundary[pole_idx].all()
        sphere_net = epsilon_net(Suspension(Sphere(1, 1.0)), 0.1, 42, allow_degrade=True)
        assert not sphere_net.is_boundary.any()

    def test_quotient_net_dedupes_orbit_copies(self):
        base = Sphere(1, 1.0)
        act = actions.cyclic_approximation(base, 2)
        net = epsilon_net(Quotient(base, act), 0.05, 42)
        assert net.dist[np.triu_indices(net.n, 1)].min() > 1e-9

    def test_cap_quotient_net_keeps_no_orbit_duplicates(self):
        # orbit copies read up to ~1.5e-8 apart, above the old 1e-9 tolerance
        cap = Cone(1.0, Sphere(1, 1.0), 1.0)
        net = epsilon_net(Quotient(cap, actions.cyclic_approximation(cap, 8)), 0.05, 42)
        assert net.dist[np.triu_indices(net.n, 1)].min() > 1e-7

    def test_dedupe_keeps_no_second_matrix(self, monkeypatch):
        # from the moment the full matrix exists, memory stays near the kept
        # matrix: the kept rows and columns are compacted into its own buffer
        build, raw = nets.self_distance_matrix, []

        def built(*args, **kwargs):
            D = build(*args, **kwargs)
            raw.append(D.shape[0])
            tracemalloc.reset_peak()
            return D

        monkeypatch.setattr(nets, "self_distance_matrix", built)
        tracemalloc.start()
        try:
            net = epsilon_net(spine_example_quotient(True), 0.3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert net.n < raw[0]
        assert net.dist.shape == (net.n, net.n) and net.dist.flags.c_contiguous
        assert peak < 1.2 * net.dist.nbytes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compact_matches_fancy_indexing(self, seed):
        rng = np.random.default_rng(seed)
        D = rng.random((300, 300))
        keep = np.flatnonzero(rng.random(300) < [0.3, 0.9, 0.99][seed])
        expected = D[np.ix_(keep, keep)]
        out = nets._compact(D, keep)
        assert out.flags.c_contiguous and np.array_equal(out, expected)

    def test_model_ball(self):
        net = epsilon_net(ModelBall(0.0, 1.0, 2), 0.05, 42)
        assert nets.covering_check(net, 4000) <= net.epsilon_effective


class TestBudget:
    def test_capacity_error_reports_required(self):
        with pytest.raises(CapacityError) as err:
            epsilon_net(Lens(3, 1.0), 0.05, 42)
        assert err.value.required > err.value.budget == 5000

    def test_degrade_reports_effective_epsilon(self):
        net = epsilon_net(Lens(3, 1.0), 0.05, 42, allow_degrade=True)
        assert net.n <= 5000
        assert net.epsilon_effective > 0.05
        assert nets.covering_check(net, 4000) <= net.epsilon_effective

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            epsilon_net(Sphere(2, 1.0), -0.1, 0)
        with pytest.raises(DomainError):
            epsilon_net(Interval(1.0), 2.0, 0)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected_before_generation(self, monkeypatch, budget):
        def no_grid(*args):
            raise AssertionError("grid generated")

        monkeypatch.setattr(Sphere, "net_grid", no_grid)
        with pytest.raises(DomainError, match="budget"):
            epsilon_net(Sphere(2, 1.0), 0.1, 1, budget=budget, allow_degrade=True)


def _digest_net_cases():
    """`net_cases()` of tools/records_digest.py: the nets whose bytes it digests."""
    path = Path(__file__).resolve().parent.parent / "tools" / "records_digest.py"
    spec = importlib.util.spec_from_file_location("records_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.net_cases()


_NET_CASES = _digest_net_cases()


class TestNetGrid:
    @pytest.mark.parametrize("space", [space for _, space in _NET_CASES], ids=[label for label, _ in _NET_CASES])
    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_grid_points_lie_in_the_space(self, space, eps):
        coords, flags = space.net_grid(eps)
        space.check_coords(coords)
        assert flags.shape == (spaces.coords_len(coords),)
        if not space.has_boundary():
            assert not flags.any()

    @pytest.mark.parametrize("space", [Ellipsoid(0.7, 1.0 / 3.0, 0.25), Sphere(4, 1.0)])
    def test_kinds_without_a_grid_raise(self, space):
        with pytest.raises(ConstructionError):
            space.net_grid(0.3)
        with pytest.raises(ConstructionError):
            space.net_count(0.3)


# `test_count_is_the_grid_length` builds no grid whose count is over
# COUNT_CAP: that skips the 5-dimensional Join(Lens(3, 1), S1(0.75)) at
# epsilon 0.08, 0.1 and 0.15 (9 166 344, 3 224 379 and 447 537 points)
COUNT_CAP = 400_000
COUNT_EPSILONS = (0.08, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0)
SKIPPED_COUNTS = 3


def _no_grids(monkeypatch):
    """Make every kind's `net_grid` raise, so only counts can be read."""
    def no_grid(*args):
        raise AssertionError("grid generated")

    for kind in (Sphere, Interval, Join, spaces._OverBase):
        monkeypatch.setattr(kind, "net_grid", no_grid)


def _degrade_by_grids(space, epsilon, budget):
    """The degrade iteration as it ran before counts: (eff, n) of the grid it keeps."""
    eff = float(epsilon)
    n = spaces.coords_len(space.net_grid(eff)[0])
    for _ in range(24):
        if n <= budget:
            break
        eff *= 1.03 * (n / budget) ** (1.0 / max(1, space.dim))
        n = spaces.coords_len(space.net_grid(eff)[0])
    return eff, n


class TestNetCount:
    def test_count_is_the_grid_length(self):
        skipped = []
        for label, space in _NET_CASES:
            for eps in COUNT_EPSILONS:
                count = space.net_count(eps)
                if count > COUNT_CAP:
                    skipped.append((label, eps))
                    continue
                for phase in (0.0, 0.7):
                    assert count == spaces.coords_len(space.net_grid(eps, phase)[0]), (label, eps, phase)
        assert len(skipped) == SKIPPED_COUNTS, skipped

    def test_capacity_error_required_is_the_count(self, monkeypatch):
        spaces_ = (Lens(3, 1.0), spine_example_quotient(True), Sphere(3, 1.0))
        counts = [space.net_count(0.05) for space in spaces_]
        _no_grids(monkeypatch)
        for space, count in zip(spaces_, counts):
            with pytest.raises(CapacityError) as err:
                epsilon_net(space, 0.05, 0, budget=100)
            assert err.value.required == count

    @pytest.mark.parametrize("case", [
        (Lens(3, 1.0), 0.05, 5000),
        (spine_example_quotient(True), 0.1, 300),
        (Join(Interval(PI), Interval(PI)), 0.05, 1000),
        (Suspension(Sphere(1, 0.75)), 0.02, 200),
    ], ids=["lens3", "spine_quotient", "interval_join", "suspension"])
    def test_degrade_keeps_the_grid_loop_resolution(self, case):
        space, epsilon, budget = case
        eff, n = _degrade_by_grids(space, epsilon, budget)
        net = epsilon_net(space, epsilon, 0, budget=budget, allow_degrade=True)
        assert net.epsilon_effective == eff > epsilon and n <= budget

    def test_budget_400_request_stays_small(self):
        # 278 977 349 raw points at the requested epsilon; only the count is read
        X = Join(Sphere(3, 1.0), Cone(1.0, Sphere(1, 1.0), 1.0))
        Q = Quotient(X, actions.cyclic_approximation(X, 8))
        tracemalloc.start()
        try:
            net = epsilon_net(Q, 0.08, 42, budget=400, allow_degrade=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert net.n <= 400 and net.epsilon_effective > 0.08
        assert peak < 64 * 2**20


class TestDeterminism:
    @pytest.mark.parametrize(
        "space,eps",
        [
            (Sphere(2, 1.0), 0.2),
            (Lens(2, 2.0), 0.08),
            (Ellipsoid(0.7, 1.0 / 3.0, 0.25), 0.08),
            (Quotient(Sphere(1, 1.0), actions.cyclic_approximation(Sphere(1, 1.0), 4)), 0.05),
        ],
    )
    def test_serialized_nets_are_byte_identical(self, space, eps):
        a = serialize.net_to_bytes(epsilon_net(space, eps, 42))
        b = serialize.net_to_bytes(epsilon_net(space, eps, 42))
        assert a == b

    def test_write_read_round_trip(self, tmp_path):
        net = epsilon_net(Lens(2, 1.0), 0.08, 42)
        csv = tmp_path / "net.csv"
        serialize.write_net(net, csv)
        loaded = serialize.read_net(csv)
        assert np.allclose(loaded.dist, net.dist, atol=1e-15)
        assert (loaded.is_boundary == net.is_boundary).all()
        assert loaded.epsilon == net.epsilon
        # descriptor survives and distances still evaluate
        assert loaded.space == net.space
        assert serialize.write_net(loaded, tmp_path / "net2.csv").read_text() == (
            tmp_path / "net.csv.json"
        ).read_text()


class TestVerifyMetric:
    def test_closed_form_net_passes(self):
        net = epsilon_net(Lens(2, 1.0), 0.05, 42)
        audit = verify_metric(net, 1e-9)
        assert audit.passed
        assert audit.exhaustive == (net.n <= 600)

    def test_constructed_violation_with_witness(self):
        D = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
        audit = verify_metric(D, 1e-9)
        assert not audit.passed
        assert audit.triangle_defect == pytest.approx(8.0)
        assert audit.witness == (0, 1, 2)

    def test_quotient_net_triangle_inequality_exhaustive(self):
        # min-over-group preserves the triangle inequality; brute force over
        # all triples on a small net
        from alexgeo.harness import projective_lens_quotient

        Q = projective_lens_quotient(2, 1.0)
        net = epsilon_net(Q, 0.12, 42)
        assert net.n <= 200
        audit = verify_metric(net, 1e-9)
        assert audit.exhaustive
        assert audit.passed

    def test_symmetry_defect_detected(self):
        D = np.array([[0.0, 1.0], [1.5, 0.0]])
        audit = verify_metric(D, 1e-9)
        assert audit.symmetry_defect == pytest.approx(0.5)
        assert not audit.passed

    @pytest.mark.parametrize("i,j", [(1100, 3), (600, 599), (1023, 512), (1199, 0)])
    def test_asymmetry_in_lower_left_tile_reported_exactly(self, i, j):
        net = epsilon_net(Sphere(2, 1.0), 0.08, 42)
        assert net.n > 1024  # many row blocks of spaces.row_block(n) rows
        D = net.dist.copy()
        D[i, j] += 0.25  # lower triangle only, outside the row block of i's upper strip
        audit = verify_metric(D, 1e-9)
        assert audit.symmetry_defect == abs(D[i, j] - D[j, i])
        assert audit.symmetry_defect == float(np.max(np.abs(D - D.T)))
        assert not audit.passed

    @pytest.mark.parametrize("i,j", [(5, 5), (700, 40), (40, 700)])
    def test_one_nan_fails_the_audit(self, i, j):
        D = epsilon_net(Sphere(2, 1.0), 0.08, 42).dist.copy()
        D[i, j] = np.nan
        assert not verify_metric(D, 1e-9).passed

    @pytest.mark.parametrize("case", ["planted_violation", "tied_maxima", "subtraction_order"])
    def test_exhaustive_defect_and_witness_match_a_plain_loop(self, case):
        rng = np.random.default_rng(31)
        n = 40
        if case == "planted_violation":
            X = rng.standard_normal((n, 3))
            X /= np.linalg.norm(X, axis=1)[:, None]
            D = np.arccos(np.clip(X @ X.T, -1.0, 1.0))
            D[7, 29] = D[29, 7] = D[7, 29] + 0.3
        elif case == "tied_maxima":
            # small integers: many triples share the largest defect, so the
            # witness is decided by the scan order alone
            D = rng.integers(0, 4, (n, n)).astype(float)
            D = np.maximum(D, D.T)
        else:
            # the lower triangle is 0, so D[k, j] and D[j, k] differ: this pins
            # the row form, which reads D[k, j] for the second leg
            D = np.zeros((3, 3))
            D[0, 1], D[0, 2], D[1, 2] = 0.1, 0.2, 0.05
            n = 3
        np.fill_diagonal(D, 0.0)
        # every pair i < k in row order; per pair the lowest j of the smallest
        # D[i, j] + D[k, j] over j not in {i, k}; the first pair wins a tie
        best, witness = -math.inf, (0, 0, 0)
        for i in range(n):
            for k in range(i + 1, n):
                legs, j = min((float(D[i, j] + D[k, j]), j) for j in range(n) if j not in (i, k))
                v = float(max(D[i, k], D[k, i]) - legs)
                if v > best:
                    best, witness = v, (i, j, k)
        audit = verify_metric(D, 1e-9)
        assert audit.exhaustive
        assert audit.triangle_defect == best
        assert audit.witness == witness
        assert audit.n_triples == n * (n - 1) // 2 * (n - 2)


def _random_sphere_matrix(n: int, seed: int) -> np.ndarray:
    """Great-circle distances of n random points on the unit 2-sphere, built in place."""
    X = np.random.default_rng(seed).standard_normal((n, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    D = X @ X.T
    np.clip(D, -1.0, 1.0, out=D)
    np.arccos(D, out=D)
    np.fill_diagonal(D, 0.0)
    return D


class TestPairExhaustiveAudit:
    """Each sampled pair (i, k) is checked against every middle point j not in {i, k}."""

    def test_healthy_matrix_reads_a_negative_defect(self):
        # the sampled-triple audit this one replaced read exactly 0.0 here,
        # through a trivial triple with j = i
        D = _random_sphere_matrix(5000, 0)
        audit = verify_metric(D, 1e-9)
        assert audit.passed and not audit.exhaustive
        assert audit.triangle_defect < 0.0
        i, j, k = audit.witness
        assert i != k and j not in (i, k)
        assert audit.n_pairs == 2000
        assert audit.n_triples == 2000 * 4998

    def test_single_shortcut_fails_the_audit(self):
        # one halved symmetric entry: every triple through the shortcut
        # (a, b) with its far end beyond b is violated.  A sampled audit
        # catches it only when a sampled pair ends at a or b; the
        # sampled-triple audit this one replaced passed this plant.
        D = _random_sphere_matrix(5000, 0)
        a, b = (int(x) for x in np.random.default_rng(101).choice(5000, 2, replace=False))
        D[a, b] = D[b, a] = D[a, b] / 2
        audit = verify_metric(D, 1e-9)
        assert audit.symmetry_defect == 0.0
        assert not audit.passed
        assert audit.triangle_defect > 0.1
        assert a in audit.witness or b in audit.witness

    @pytest.mark.parametrize("n", [1, 2])
    def test_no_nontrivial_triple_below_three_points(self, n):
        D = np.zeros((n, n))
        if n == 2:
            D[0, 1] = D[1, 0] = 1.0
        audit = verify_metric(D, 1e-9)
        assert audit.passed
        assert audit.triangle_defect == 0.0
        assert audit.witness == (0, 0, 0)
        assert audit.n_triples == 0

    def test_nan_fails_an_exhaustive_audit(self):
        D = _random_sphere_matrix(50, 1)
        D[3, 17] = np.nan
        audit = verify_metric(D, 1e-9)
        assert audit.exhaustive
        assert not audit.passed


class TestFarthestPointSample:
    @staticmethod
    def _plain(cands, eps, budget):
        """The reference: one full chord norm per pick."""
        chosen = [0]
        mind = np.linalg.norm(cands - cands[0], axis=1)
        while len(chosen) < budget:
            i = int(np.argmax(mind))
            if float(mind[i]) <= 0.92 * eps:
                break
            chosen.append(i)
            np.minimum(mind, np.linalg.norm(cands - cands[i], axis=1), out=mind)
        return np.array(chosen, dtype=int), float(np.max(mind))

    @pytest.mark.parametrize("eps, budget", [(0.1, 5000), (0.1, 150), (0.3, 5000)])
    def test_picks_and_radius_equal_the_plain_loop(self, eps, budget):
        e = spaces.Ellipsoid(0.6, 1.0 / 3.0, 0.25)
        cands = nets._ellipsoid_candidates(e, 6000, np.random.default_rng(4))
        chosen, radius = nets._farthest_point_sample(cands, eps, budget)
        want_chosen, want_radius = self._plain(cands, eps, budget)
        assert np.array_equal(chosen, want_chosen)
        assert radius == want_radius


class TestEllipsoid:
    def test_round_limit_antipodal(self):
        d = nets.ellipsoid_distance(
            np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]), 1.0, 1.0, 1.0, epsilon=0.05
        )
        assert d == pytest.approx(PI, abs=0.1)

    def test_same_point(self):
        p = np.array([0.6, 0.0, 0.0])
        assert nets.ellipsoid_distance(p, p, 0.6, 1.0 / 3.0, 0.25) == pytest.approx(0.0, abs=1e-9)

    def test_off_surface_rejected(self):
        with pytest.raises(DomainError):
            nets.ellipsoid_distance(
                np.array([0.5, 0.0, 0.0]), np.array([0.6, 0.0, 0.0]), 0.6, 1.0 / 3.0, 0.25
            )

    def test_long_axis_tips_match_quadrature_oracle(self):
        # the graph geodesic between the long-axis tips must match the
        # half-perimeter of the flattest cross-section by quadrature
        from alexgeo.harness import half_perimeter

        a, b, c = 0.6, 1.0 / 3.0, 0.25
        expected = half_perimeter(a, c)
        eps = 0.05
        d = nets.ellipsoid_distance(np.array([a, 0, 0.0]), np.array([-a, 0, 0.0]), a, b, c,
                                    epsilon=eps)
        assert d == pytest.approx(expected, abs=3.0 * eps)

    def test_net_has_shortest_path_matrix(self):
        net = epsilon_net(Ellipsoid(1.0, 1.0, 1.0), 0.1, 42)
        audit = verify_metric(net, 1e-9)
        assert audit.passed  # shortest-path matrices satisfy the axioms exactly


class TestRandomPoints:
    def test_samplers_produce_valid_points(self):
        rng = np.random.default_rng(0)
        cases = [
            Sphere(2, 1.0),
            Interval(1.0),
            Join(Sphere(1, 1.0), Interval(1.0)),
            Cone(1.0, Sphere(1, 1.0), 1.0),
            Suspension(Sphere(1, 1.0)),
            Lens(3, 1.0),
            ModelBall(-1.0, 1.0, 2),
            Ellipsoid(0.6, 1.0 / 3.0, 0.25),
        ]
        for space in cases:
            for p in nets.random_points(space, 20, rng):
                spaces.validate_point(space, p)
