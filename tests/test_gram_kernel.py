"""The Gram-embedding kernel against the per-factor formulas and the embedding oracles.

On trees of unit spheres, intervals of length <= pi, joins, suspensions and
k = 1 cones, `cross_distance` and `elementwise_distance` take one product of
Gram embeddings and one arccos.  The per-factor path stays the reference:
forcing `gram_embeddable` to False reaches it.
"""

import math

import numpy as np
import pytest

from alexgeo import actions, harness, nets, spaces
from alexgeo import embeddings as emb
from alexgeo.errors import ConstructionError, UnsupportedConstructionError
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
    self_distance_matrix,
    track_clamping,
)

PI = math.pi
S1 = Sphere(1, 1.0)
CAP = Cone(1.0, S1, 1.0)
CAP075 = Cone(1.0, Sphere(1, 0.75), PI / 2.0)
S3 = Sphere(3, 1.0)


def _unit_trees():
    return {
        "interval_join": Join(Interval(PI), Interval(PI)),
        "lens3": Lens(3, 1.0),
        "model_ball": ModelBall(1.0, PI / 4.0, 3),
        "suspension_s1": Suspension(S1),
        "cap": CAP,
        "projective_lens_2": harness.projective_lens_quotient(2, 1.0),
        "projective_lens_3": harness.projective_lens_quotient(3, 1.0),
        "spine_reflect": harness.spine_example_quotient(True),
    }


def _unchecked_interval(length):
    # the constructor rejects lengths above pi; build one unchecked so the
    # kernel's own guard is what the test sees
    iv = object.__new__(Interval)
    object.__setattr__(iv, "length", float(length))
    return iv


def _fallback_trees():
    return {
        "join_sphere075_lens": Join(Sphere(1, 0.75), Lens(3, 1.0)),
        "join_lens_sphere075": Join(Lens(3, 1.0), Sphere(1, 0.75)),
        "join_sphere075_quotient": Join(Sphere(1, 0.75), harness.projective_lens_quotient(2, 1.0)),
        "join_quotient_factor": Join(S1, harness.projective_lens_quotient(2, 1.0)),
        "cone_k-1": Cone(-1.0, S1, 1.0),
        "cone_k0_join": Cone(0.0, Join(S1, S1), 1.0),
        "cone_k05_suspension": Cone(0.5, Suspension(S1), 1.0),
        "model_ball_k-1": ModelBall(-1.0, 1.0, 3),
        "cap075_z8": Quotient(CAP075, actions.cyclic_approximation(CAP075, 8)),
        "s3_z8": Quotient(S3, actions.cyclic_approximation(S3, 8)),
        "cap_z8": Quotient(CAP, actions.cyclic_approximation(CAP, 8)),
        "sphere2": Sphere(2, 1.0),
        "sphere_half": Sphere(2, 0.5),
        "interval": Interval(PI),
    }


UNIT_TREES = _unit_trees()
FALLBACK_TREES = _fallback_trees()


def _packed(space, n, seed):
    return spaces.pack_points(space, nets.random_points(space, n, np.random.default_rng(seed)))


# the descriptor kinds that define `gram_embeddable` and `gram_embedding`
GRAM_KINDS = (Sphere, Interval, Join, Cone, Suspension)


def _formula_only(monkeypatch):
    for kind in GRAM_KINDS:
        monkeypatch.setattr(kind, "gram_embeddable", lambda space: False)


def _assert_close(got, ref):
    # arccos resolves about 1.5e-8 near 0, and the two paths round apart there
    far = ref > 1e-6
    assert np.abs(got - ref)[far].max(initial=0.0) <= 1e-12
    assert np.abs(got - ref)[~far].max(initial=0.0) <= 2e-8


def _base(space):
    return space.base if isinstance(space, Quotient) else space


class TestAgreementWithFormulas:
    @pytest.mark.parametrize("name", list(UNIT_TREES))
    def test_cross_and_elementwise(self, monkeypatch, name):
        space = UNIT_TREES[name]
        A, B = _packed(space, 150, 1), _packed(space, 120, 2)
        B_pairs = spaces.coords_take(A, np.arange(149, -1, -1))
        gram_cross = spaces.cross_distance(space, A, B)
        gram_pairs = spaces.elementwise_distance(space, A, B_pairs)
        _formula_only(monkeypatch)
        _assert_close(gram_cross, spaces.cross_distance(space, A, B))
        _assert_close(gram_pairs, spaces.elementwise_distance(space, A, B_pairs))

    @pytest.mark.parametrize("name", list(UNIT_TREES))
    def test_self_distance_matrix(self, monkeypatch, name):
        space = UNIT_TREES[name]
        C = _packed(space, 200, 3)
        D = self_distance_matrix(space, C, block=64)
        _formula_only(monkeypatch)
        _assert_close(D, self_distance_matrix(space, C, block=64))

    @pytest.mark.parametrize("name", ["lens3", "spine_reflect"])
    @pytest.mark.parametrize("n", [1, 511, 512, 513])
    def test_block_edges(self, monkeypatch, name, n):
        space = UNIT_TREES[name]
        C = _packed(space, n, 4)
        D = self_distance_matrix(space, C)
        assert D.shape == (n, n)
        assert np.array_equal(D, D.T) and not np.diag(D).any()
        _formula_only(monkeypatch)
        _assert_close(D, self_distance_matrix(space, C))


def _per_block_matrix(space, C, block):
    """`self_distance_matrix` as it was before the embedding moved out of the
    block loop: each block through `cross_distance`."""
    n = spaces.coords_len(C)
    D = np.empty((n, n))
    for s in range(0, n, block):
        e = min(s + block, n)
        R = spaces.cross_distance(space, spaces.coords_take(C, slice(s, e)), spaces.coords_take(C, slice(s, n)))
        R[:, : e - s] = np.minimum(R[:, : e - s], R[:, : e - s].T)
        D[s:e, s:] = R
        D[s:, s:e] = R.T
    np.fill_diagonal(D, 0.0)
    return D


class TestMatrixEmbedsOnce:
    @pytest.mark.parametrize("name", list(UNIT_TREES))
    def test_one_embedding_per_matrix(self, monkeypatch, name):
        space = UNIT_TREES[name]
        root = _base(space)
        C = _packed(space, 300, 11)
        calls = []
        for kind in GRAM_KINDS:
            embed = kind.gram_embedding
            monkeypatch.setattr(kind, "gram_embedding",
                                lambda sp, coords, embed=embed: calls.append(sp) or embed(sp, coords))
        self_distance_matrix(space, C, block=32)
        # the rows once, and the columns once per group element of a quotient
        elements = len(space.action.elements) if root is not space else 0
        assert sum(sp is root for sp in calls) == 1 + elements

    @pytest.mark.parametrize("name", list(UNIT_TREES))
    def test_bit_identical_to_the_per_block_kernel(self, name):
        # at 1000 points, slices passed as views (no copies) move entries of
        # three of these trees in the last bit
        space = UNIT_TREES[name]
        C = _packed(space, 1000, 12)
        block = spaces.row_block(1000)
        assert np.array_equal(self_distance_matrix(space, C), _per_block_matrix(space, C, block))


def _oracle_matrix(embed, P, Q):
    return np.array([[emb.sphere_chord_distance(embed(p), embed(q)) for q in Q] for p in P])


class TestEmbeddingOracles:
    @pytest.mark.parametrize(
        "space,embed",
        [
            (Join(S1, S1), emb.embed_join_circle_circle),
            (Suspension(S1), emb.embed_suspension_circle),
            (Lens(3, 1.0), lambda p: emb.embed_lens(Lens(3, 1.0), p)),
            (Lens(4, 2.5), lambda p: emb.embed_lens(Lens(4, 2.5), p)),
        ],
    )
    def test_cross_distance_matches_oracle(self, space, embed):
        rng = np.random.default_rng(8)
        P, Q = nets.random_points(space, 40, rng), nets.random_points(space, 30, rng)
        got = spaces.cross_distance(space, spaces.pack_points(space, P), spaces.pack_points(space, Q))
        _assert_close(got, _oracle_matrix(embed, P, Q))


class TestFallbackTreesUnchanged:
    @pytest.mark.parametrize("name", list(FALLBACK_TREES))
    def test_bit_identical_to_formula_path(self, monkeypatch, name):
        space = FALLBACK_TREES[name]
        A, B = _packed(space, 60, 5), _packed(space, 50, 6)
        A_pairs = spaces.coords_take(A, slice(0, 50))
        cross = spaces.cross_distance(space, A, B)
        pairs = spaces.elementwise_distance(space, A_pairs, B)
        matrix = self_distance_matrix(space, A, block=16)
        _formula_only(monkeypatch)
        assert np.array_equal(cross, spaces.cross_distance(space, A, B))
        assert np.array_equal(pairs, spaces.elementwise_distance(space, A_pairs, B))
        assert np.array_equal(matrix, self_distance_matrix(space, A, block=16))

    def test_rotation_quotients_keep_the_closed_form(self):
        for space in (FALLBACK_TREES["s3_z8"], FALLBACK_TREES["cap_z8"]):
            A, B = _packed(space, 40, 7), _packed(space, 30, 8)
            assert np.array_equal(
                spaces.cross_distance(space, A, B),
                spaces.rotation_quotient_distance(space, A, B, cross=True),
            )

    @pytest.mark.parametrize("name", ["projective_lens_2", "spine_reflect"])
    def test_quotient_formula_is_the_per_element_minimum(self, name):
        # a quotient answers only `formula`; the Gram product of a quotient
        # root is the base class's `kernel`, through `gram_operands`
        space = UNIT_TREES[name]
        assert "kernel" not in vars(Quotient)
        A, B = _packed(space, 60, 7), _packed(space, 50, 8)
        for cross, B_ in ((True, B), (False, spaces.coords_take(A, np.arange(59, -1, -1)))):
            want = np.min([space.base.formula(A, g.apply(B_), cross) for g in space.action.elements], axis=0)
            assert np.array_equal(space.formula(A, B_, cross), want)

    def test_ellipsoid_still_unsupported(self):
        E = Ellipsoid(1.0, 1.0, 0.8)
        with pytest.raises(UnsupportedConstructionError):
            spaces.cross_distance(E, np.eye(3), np.eye(3))


class TestEmbedding:
    @pytest.mark.parametrize("name", list(UNIT_TREES))
    def test_rows_have_unit_norm(self, name):
        space = _base(UNIT_TREES[name])
        E = space.gram_embedding(_packed(space, 500, 9))
        assert np.abs(np.linalg.norm(E, axis=1) - 1.0).max() <= 1e-15

    def test_clamp_stays_below_1e_12_on_nets(self):
        with track_clamping() as stats:
            nets.epsilon_net(Lens(3, 1.0), 0.15, 42, allow_degrade=True)
            nets.epsilon_net(UNIT_TREES["spine_reflect"], 0.2, 42, allow_degrade=True)
            nets.epsilon_net(UNIT_TREES["interval_join"], 0.15, 42, allow_degrade=True)
        assert stats.max_excess <= 1e-12

    def test_kernel_clamp_is_tracked(self):
        # a sphere factor within the 1e-12 unit tolerance pushes <E, E> past 1
        lens = Lens(3, 1.0)
        C = spaces.pack_points(lens, [(np.array([1.0 + 5e-13, 0.0]), 0.0, 0.5)])
        with track_clamping() as stats:
            D = spaces.cross_distance(lens, C, C)
        assert D[0, 0] == 0.0
        assert 5e-13 < stats.max_excess <= 2e-12


def _takes_gram_path(monkeypatch, space) -> bool:
    calls = []

    def counting(inner):
        def method(sp, coords):
            calls.append(sp)
            return inner(sp, coords)

        return method

    for kind in GRAM_KINDS:
        monkeypatch.setattr(kind, "gram_embedding", counting(kind.gram_embedding))
    A = _packed(space, 20, 10)
    spaces.cross_distance(space, A, A)
    spaces.elementwise_distance(space, A, A)
    return bool(calls)


class TestFastPathGuard:
    """Which trees the kernel evaluates as one product and one arccos.

    The catalogue's unit trees must stay on the Gram path, so that a later
    refactor cannot drop them back to the per-factor formulas unnoticed.
    """

    @pytest.mark.parametrize("name", list(UNIT_TREES))
    def test_unit_trees_take_it(self, monkeypatch, name):
        assert _takes_gram_path(monkeypatch, UNIT_TREES[name])

    @pytest.mark.parametrize(
        "space",
        [
            Join(Sphere(1, 0.75), Interval(1.0)),
            Join(Sphere(1, 0.75), Lens(3, 1.0)),
            Join(S1, harness.projective_lens_quotient(2, 1.0)),
            Cone(-1.0, S1, 1.0),
            Sphere(2, 1.0),
            Interval(PI),
        ]
        + [Quotient(X, actions.cyclic_approximation(X, m))
           for X in (S3, CAP, CAP075, Join(S1, S1), Join(S3, CAP)) for m in (2, 8)],
        ids=lambda s: type(s).__name__,
    )
    def test_other_trees_do_not(self, monkeypatch, space):
        assert not _takes_gram_path(monkeypatch, space)

    def test_interval_longer_than_pi_is_excluded(self):
        with pytest.raises(ConstructionError):
            Interval(4.0)
        long_iv = _unchecked_interval(4.0)
        assert not long_iv.gram_embeddable()
        join = object.__new__(Join)
        object.__setattr__(join, "left", S1)
        object.__setattr__(join, "right", long_iv)
        assert not join.gram_embeddable()
