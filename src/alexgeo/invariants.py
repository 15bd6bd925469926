"""Net-based estimators of metric invariants, and the exact boundary volume.

Radius and diameter are exact minimax/max scans of the net's distance
matrix (estimates track the true values to within the covering radius).
The soul is the interior point farthest from the boundary flags (where
``boundary_distances`` vanishes, see `nets.grid_net`); the edge is the set
at distance ~pi/2 from the soul and the spine the set at distance ~pi/2
from the edge.  All argmin/argmax ties break to the lowest index.
`boundary_volume` reads no net, only the descriptor's ``volumes()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import spaces
from .errors import PreconditionError
from .nets import FiniteNet
from .spaces import HALF_PI


def _per_row(D, rows, cols, reduce) -> np.ndarray:
    """reduce(D[rows][:, cols]) row by row, one row block at a time.

    No len(rows) x len(cols) copy is made; `reduce` maps a block to one
    value per row, and min and max are exact, so the result is bit-identical
    to the unblocked one.
    """
    out = np.empty(len(rows))
    step = spaces.row_block(len(cols))
    for s in range(0, len(rows), step):
        out[s : s + step] = reduce(D[np.ix_(rows[s : s + step], cols)])
    return out


def _min_to(D, cols) -> np.ndarray:
    """Each row's minimum over the columns `cols`."""
    return _per_row(D, np.arange(D.shape[0]), cols, lambda b: b.min(axis=1))


class DiameterResult(NamedTuple):
    value: float
    witness: tuple


class RadiusResult(NamedTuple):
    value: float
    center: int


def diameter(net: FiniteNet) -> DiameterResult:
    """Max matrix entry with its witness pair (lowest row-major tie)."""
    D = net.dist
    if D.shape[0] == 0:
        raise PreconditionError("empty net")
    # the first row holding the maximum, then its first column: the flat
    # argmax's witness, without the copy np.argmax makes of a read-only
    # (frozen) matrix
    i = int(np.argmax(D.max(axis=1)))
    j = int(np.argmax(D[i]))
    return DiameterResult(float(D[i, j]), (i, j))


def radius(net: FiniteNet) -> RadiusResult:
    """Minimax over the matrix: min over centers of max row entry.

    The row maxima are the net's cached `eccentricity`, so a second call
    (`edge_set` after a radius estimate) makes no pass over the matrix.
    """
    if net.dist.shape[0] == 0:
        raise PreconditionError("empty net")
    ecc = net.eccentricity
    c = int(np.argmin(ecc))
    return RadiusResult(float(ecc[c]), c)


def soul(net: FiniteNet) -> int:
    """Interior index at maximal distance to the boundary flags."""
    bdry = net.boundary_indices()
    if bdry.size == 0:
        raise PreconditionError("soul is undefined: net has no boundary flags")
    interior = net.interior_indices()
    if interior.size == 0:
        raise PreconditionError("soul is undefined: every net point is boundary-flagged")
    to_bdry = _min_to(net.dist, bdry)
    masked = np.where(net.is_boundary, -np.inf, to_bdry)
    return int(np.argmax(masked))


def soul_boundary_distance(net: FiniteNet, soul_index: int) -> float:
    bdry = net.boundary_indices()
    if bdry.size == 0:
        raise PreconditionError("net has no boundary flags")
    return float(net.dist[soul_index, bdry].min())


@dataclass
class IndexSetResult:
    indices: np.ndarray
    warning: str | None = None

    def __len__(self):
        return int(self.indices.shape[0])


def edge_set(net: FiniteNet, soul_index: int, tol: float | None = None) -> IndexSetResult:
    """Indices at distance >= pi/2 - tol from the soul.

    Meaningful only when the net's radius estimate sits near pi/2; otherwise
    an empty set with a warning is returned instead of a fabricated edge.
    """
    if tol is None:
        tol = 2.0 * net.epsilon_effective
    rad = radius(net).value
    if abs(rad - HALF_PI) > 2.0 * net.epsilon_effective:
        return IndexSetResult(
            indices=np.array([], dtype=int),
            warning=f"radius estimate {rad:.6f} is not within 2*eps of pi/2; edge not defined",
        )
    idx = np.flatnonzero(net.dist[soul_index] >= HALF_PI - tol)
    return IndexSetResult(indices=idx)


def spine_set(net: FiniteNet, edge: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Indices whose min distance to the edge set is >= pi/2 - tol."""
    edge = np.asarray(edge, dtype=int)
    if edge.size == 0:
        raise PreconditionError("spine requires a nonempty edge set")
    if tol is None:
        tol = 2.0 * net.epsilon_effective
    to_edge = _min_to(net.dist, edge)
    return np.flatnonzero(to_edge >= HALF_PI - tol)


@dataclass
class DualPairResult:
    pair_defect: float          # max | |ab| - pi/2 |
    decomposition_defect: float  # max | |Ax| + |xB| - pi/2 |
    pair_witness: tuple
    decomposition_witness: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.pair_defect <= self.tol and self.decomposition_defect <= self.tol


def dual_pair_check(net: FiniteNet, A, B, tol: float) -> DualPairResult:
    """Check |ab| = pi/2 for all a in A, b in B, and |Ax| + |xB| = pi/2 for all x."""
    A = np.asarray(A, dtype=int)
    B = np.asarray(B, dtype=int)
    if A.size == 0 or B.size == 0:
        raise PreconditionError("dual pair check requires nonempty index sets")
    if np.intersect1d(A, B).size:
        raise PreconditionError("dual pair check requires disjoint index sets")
    D = net.dist
    # the first row of the |A| x |B| block holding its maximum, then that
    # row's first: the flat argmax's witness, without the block's copy
    row_max = _per_row(D, A, B, lambda b: np.abs(np.subtract(b, HALF_PI, out=b), out=b).max(axis=1))
    ai = int(np.argmax(row_max))
    cross = np.abs(D[A[ai], B] - HALF_PI)
    bi = int(np.argmax(cross))
    to_a = _min_to(D, A)
    to_b = _min_to(D, B)
    decomp = np.abs(to_a + to_b - HALF_PI)
    x = int(np.argmax(decomp))
    return DualPairResult(
        pair_defect=float(cross[bi]),
        decomposition_defect=float(decomp[x]),
        pair_witness=(int(A[ai]), int(B[bi])),
        decomposition_witness=x,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# boundary volume, in closed form from the descriptor
# ---------------------------------------------------------------------------


def boundary_volume(space) -> float:
    """The exact (n-1)-volume of the boundary, ``space.volumes()[1]``: UnsupportedConstructionError
    for quotients and the ellipsoid, PreconditionError on a space without boundary."""
    bdry = space.volumes()[1]
    if not space.has_boundary():
        raise PreconditionError(f"{type(space).__name__} has no boundary")
    return bdry


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


@dataclass
class InvariantReport:
    radius_est: float
    diameter_est: float
    soul_index: int | None
    soul_boundary_distance: float | None
    edge_indices: np.ndarray
    spine_indices: np.ndarray
    epsilon: float
    tolerances: dict
    witnesses: dict
    warnings: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "radius": self.radius_est,
            "diameter": self.diameter_est,
            "soul": self.soul_index,
            "soul_boundary_distance": self.soul_boundary_distance,
            "edge": [int(i) for i in self.edge_indices],
            "spine": [int(i) for i in self.spine_indices],
            "epsilon": self.epsilon,
            "tolerances": self.tolerances,
            "witnesses": self.witnesses,
            "warnings": list(self.warnings),
        }


def invariant_report(net: FiniteNet, tol: float | None = None) -> InvariantReport:
    """Radius, diameter, soul, edge, and spine in one pass over the matrix."""
    if tol is None:
        tol = 2.0 * net.epsilon_effective
    rad = radius(net)
    diam = diameter(net)
    warnings = []
    if not rad.value <= diam.value + 1e-12:
        warnings.append("radius exceeds diameter; matrix is inconsistent")
    if not diam.value <= 2.0 * rad.value + 1e-9:
        warnings.append("diameter exceeds twice the radius; triangle inequality suspect")
    soul_idx = None
    soul_dist = None
    edge = IndexSetResult(indices=np.array([], dtype=int))
    spine = np.array([], dtype=int)
    if net.is_boundary.any() and not net.is_boundary.all():
        soul_idx = soul(net)
        soul_dist = soul_boundary_distance(net, soul_idx)
        edge = edge_set(net, soul_idx, tol)
        if edge.warning:
            warnings.append(edge.warning)
        if len(edge):
            spine = spine_set(net, edge.indices, tol)
    return InvariantReport(
        radius_est=rad.value,
        diameter_est=diam.value,
        soul_index=soul_idx,
        soul_boundary_distance=soul_dist,
        edge_indices=edge.indices,
        spine_indices=spine,
        epsilon=net.epsilon_effective,
        tolerances={"set_membership": tol},
        witnesses={"radius_center": rad.center, "diameter_pair": list(diam.witness)},
        warnings=warnings,
    )
