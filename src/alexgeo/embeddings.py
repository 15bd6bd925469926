"""Closed-form isometric embeddings used as independent distance oracles.

Each map sends descriptor coordinates to unit vectors of a round sphere,
where the distance is a single arccos of a dot product.  These are the
reference values that the join/suspension/lens formulas are audited
against; they deliberately avoid the formula code paths.

Every map takes one point, as `spaces.distance` takes it, or the same tuple
with each coordinate replaced by its packed column (a 1-D array of values,
or a 2-D array with one row per point), and then maps all rows in one array
pass.  The harness's oracles compare a descriptor's `formula` on packed
pairs against these maps, never against the Gram kernel: on the joins that
have a Gram embedding that kernel *is* the embedding, so it would be
compared with itself.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .spaces import Lens, PI, clamped_arccos


def sphere_chord_distance(e1: np.ndarray, e2: np.ndarray, radius: float = 1.0):
    """radius * arccos(<e1, e2>) of two unit vectors, or of paired rows."""
    return radius * clamped_arccos(np.einsum("...i,...i->...", e1, e2))


def _join_rows(x, t, y) -> np.ndarray:
    """(cos t x, sin t y), row by row."""
    t = np.asarray(t, dtype=float)[..., None]
    return np.concatenate([np.cos(t) * np.asarray(x, float), np.sin(t) * np.asarray(y, float)],
                          axis=-1)


def embed_join_circle_circle(p) -> np.ndarray:
    """S^1(1) * S^1(1) -> S^3(1): (u, t, v) -> (cos t * u, sin t * v)."""
    return _join_rows(*p)


def embed_suspension_circle(p) -> np.ndarray:
    """Suspension of S^1(1) -> S^2(1): colatitude u over the circle."""
    u, y = p
    u = np.asarray(u, dtype=float)[..., None]
    return np.concatenate([np.sin(u) * np.asarray(y, float), np.cos(u)], axis=-1)


def embed_lens(lens: Lens, p) -> np.ndarray:
    """L_alpha^n -> S^n(1): faces land at angles +-alpha/2 about the rim."""
    x, t, s = p
    phi = np.asarray(s, dtype=float) - lens.alpha / 2.0
    return _join_rows(x, t, np.stack([np.cos(phi), np.sin(phi)], axis=-1))


def embed_join_sphere_circle(p) -> np.ndarray:
    """S^(m)(1) * S^1(1) -> S^(m+2)(1), used for doubled lenses."""
    return _join_rows(*p)


def interval_point_on_double(s, length: float) -> np.ndarray:
    """Where the interval coordinate lands on the doubling circle S^1(length/pi)."""
    s = np.asarray(s, dtype=float)
    outside = ~((s >= -1e-12) & (s <= length + 1e-12))  # NaN is outside too
    if outside.any():
        raise DomainError(f"interval coordinate {s[outside].flat[0]} outside [0, {length}]")
    ang = PI * s / length
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def reassociate_interval_join(p):
    """Identify [0,pi] * [0,pi] with [0,pi/2] * S^1(1).

    Both spaces are convex pieces of S^3(1) cut out by two orthogonal
    half-space conditions; an orthogonal permutation of the ambient axes
    carries one onto the other.  Returns the corresponding point
    (interval coordinate in [0, pi/2], latitude, circle unit vector).
    """
    s, t, u = (np.asarray(c, dtype=float) for c in p)
    if not np.all((s >= -1e-12) & (s <= PI + 1e-12) & (u >= -1e-12) & (u <= PI + 1e-12)):
        raise DomainError("interval coordinates must lie in [0, pi]")
    x1, y1 = np.cos(t) * np.cos(s), np.cos(t) * np.sin(s)
    x2, y2 = np.sin(t) * np.cos(u), np.sin(t) * np.sin(u)
    # axis permutation: (x1, y1, x2, y2) -> (y1, y2, x1, x2)
    a1, b1 = y1, y2
    a2, b2 = x1, x2
    r1 = np.hypot(a1, b1)
    r2 = np.hypot(a2, b2)
    tau = np.arctan2(r2, r1)
    v = np.where(r1 > 1e-300, np.arctan2(b1, a1), 0.0)
    theta = np.where(r2 > 1e-300, np.arctan2(b2, a2), 0.0)
    # [()] turns the 0-d results of one point into numbers
    return (v[()], tau[()], np.stack([np.cos(theta), np.sin(theta)], axis=-1))
