"""JSON and CSV interchange for descriptors and nets.

Descriptors serialize to tagged JSON objects; quotient actions carry their
generators (one for a cyclic surrogate, not every element) and declared
order, and are re-closed on load.  Older files that list every element as
a generator still load, to the same elements.  Nets export as a CSV distance
matrix alongside a JSON metadata file (descriptor, resolution, seed,
boundary flags, coordinates).  Serialization is byte-stable: identical
inputs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from . import actions as actions_mod
from . import spaces
from .errors import ConstructionError, json_fields
from .nets import FiniteNet
from .spaces import (
    Cone,
    ConeCoords,
    Ellipsoid,
    Interval,
    Join,
    JoinCoords,
    Lens,
    ModelBall,
    Quotient,
    Sphere,
    SuspCoords,
    Suspension,
)


def space_to_json(space) -> dict:
    # a lens is a join and a model ball a cone: their own kinds come first
    if isinstance(space, Lens):
        return {"kind": "lens", "dim": space.dim, "alpha": space.alpha}
    if isinstance(space, ModelBall):
        return {"kind": "model_ball", "k": space.k, "r0": space.r0, "dim": space.dim}
    if isinstance(space, Sphere):
        return {"kind": "sphere", "dim": space.dim, "radius": space.radius}
    if isinstance(space, Interval):
        return {"kind": "interval", "length": space.length}
    if isinstance(space, Ellipsoid):
        return {"kind": "ellipsoid", "a": space.a, "b": space.b, "c": space.c}
    if isinstance(space, Join):
        return {"kind": "join", "left": space_to_json(space.left), "right": space_to_json(space.right)}
    if isinstance(space, Cone):
        return {"kind": "cone", "k": space.k, "base": space_to_json(space.base), "r0": space.r0}
    if isinstance(space, Suspension):
        return {"kind": "suspension", "base": space_to_json(space.base)}
    if isinstance(space, Quotient):
        return {
            "kind": "quotient",
            "base": space_to_json(space.base),
            "action": actions_mod.action_to_json(space.action),
        }
    raise ConstructionError(f"cannot serialize {space!r}")


def space_from_json(payload: dict):
    """Descriptor from its JSON object; a missing or mistyped field is a ConstructionError."""
    with json_fields("descriptor"):
        return _space_from_json(payload)


def _space_from_json(payload: dict):
    kind = payload.get("kind")
    if kind == "sphere":
        return Sphere(int(payload["dim"]), float(payload.get("radius", 1.0)))
    if kind == "interval":
        return Interval(float(payload["length"]))
    if kind == "ellipsoid":
        return Ellipsoid(float(payload["a"]), float(payload["b"]), float(payload["c"]))
    if kind == "join":
        return Join(space_from_json(payload["left"]), space_from_json(payload["right"]))
    if kind == "cone":
        return Cone(float(payload["k"]), space_from_json(payload["base"]), float(payload["r0"]))
    if kind == "suspension":
        return Suspension(space_from_json(payload["base"]))
    if kind == "quotient":
        base = space_from_json(payload["base"])
        action = actions_mod.action_from_json(base, payload["action"])
        return Quotient(base, action)
    if kind == "lens":
        return Lens(int(payload["dim"]), float(payload["alpha"]))
    if kind == "model_ball":
        return ModelBall(float(payload["k"]), float(payload["r0"]), int(payload["dim"]))
    raise ConstructionError(f"unknown descriptor kind {kind!r}")


def coords_to_json(coords):
    """Packed coordinates as JSON: nested lists, a record as an object keyed by its fields."""
    if not is_dataclass(coords):
        return np.asarray(coords).tolist()
    return {f.name: coords_to_json(getattr(coords, f.name)) for f in fields(coords)}


def coords_from_json(space, payload):
    """Packed coordinates of `space` from JSON, each leaf checked against the descriptor.

    A leaf of the wrong shape, or a sphere row off the unit sphere (as
    `spaces.pack_points` rejects it), is a ConstructionError.
    """
    if isinstance(space, Sphere):
        rows = _leaf(payload, "sphere", space.ambient_dim)
        spaces.check_unit_rows(rows, ConstructionError)
        return rows
    if isinstance(space, Ellipsoid):
        return _leaf(payload, "ellipsoid", 3)
    if isinstance(space, Interval):
        return _leaf(payload, "interval")
    if isinstance(space, Join):
        return JoinCoords(
            coords_from_json(space.left, payload["left"]),
            _leaf(payload["t"], "join latitude"),
            coords_from_json(space.right, payload["right"]),
        )
    if isinstance(space, (Cone, Suspension)):
        record, radial, what = (
            (ConeCoords, "t", "cone radial") if isinstance(space, Cone)
            else (SuspCoords, "u", "suspension colatitude")
        )
        base = coords_from_json(space.base, payload["base"])
        return record(_leaf(payload[radial], what), base)
    if isinstance(space, Quotient):
        return coords_from_json(space.base, payload)
    raise ConstructionError(f"cannot deserialize coordinates for {space!r}")


def _leaf(payload, what: str, width: int | None = None) -> np.ndarray:
    """A coordinate leaf: a list of numbers, or with `width` a list of rows of that many numbers."""
    leaf = np.asarray(payload, dtype=float)
    if leaf.ndim != (1 if width is None else 2) or (width is not None and leaf.shape[1] != width):
        wanted = "a list of numbers" if width is None else f"rows of {width} numbers"
        raise ConstructionError(f"{what} coordinates must be {wanted}, got shape {leaf.shape}")
    return leaf


def stable_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, full-precision floats."""

    def convert(o):
        if isinstance(o, dict):
            return {k: convert(o[k]) for k in o}
        if isinstance(o, (list, tuple)):
            return [convert(x) for x in o]
        if isinstance(o, np.ndarray):
            return [convert(x) for x in o.tolist()]
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.bool_,)):
            return bool(o)
        return o

    return json.dumps(convert(obj), sort_keys=True, separators=(",", ":"))


def net_metadata(net: FiniteNet) -> dict:
    return {
        "space": space_to_json(net.space),
        "epsilon": net.epsilon,
        "epsilon_effective": net.epsilon_effective,
        "seed": net.seed,
        "n": net.n,
        "is_boundary": [int(b) for b in net.is_boundary],
        "coords": coords_to_json(net.coords),
        "meta": net.meta,
    }


def net_to_bytes(net: FiniteNet) -> bytes:
    """Canonical serialized form (metadata + matrix) for determinism checks."""
    meta = stable_dumps(net_metadata(net)).encode()
    return meta + b"\n" + net.dist.tobytes()


def write_net(net: FiniteNet, csv_path) -> Path:
    """Write the distance matrix as CSV and the metadata JSON alongside it."""
    csv_path = Path(csv_path)
    np.savetxt(csv_path, net.dist, delimiter=",", fmt="%.17g")
    meta_path = csv_path.with_suffix(csv_path.suffix + ".json")
    meta_path.write_text(stable_dumps(net_metadata(net)) + "\n")
    return meta_path


def read_net(csv_path) -> FiniteNet:
    """Load a net written by `write_net` (coordinates restored when present)."""
    csv_path = Path(csv_path)
    D = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    meta_path = csv_path.with_suffix(csv_path.suffix + ".json")
    meta = json.loads(meta_path.read_text())
    space = space_from_json(meta["space"])
    with json_fields("net metadata"):
        coords = coords_from_json(space, meta["coords"]) if "coords" in meta else None
        n = int(meta["n"])
        is_boundary = np.asarray(meta["is_boundary"], dtype=bool)
    # the matrix, flags and coordinates must all describe the same n points
    if D.shape != (n, n):
        raise ConstructionError(f"net matrix {csv_path} has shape {D.shape}, metadata says n = {n}")
    if is_boundary.shape != (n,):
        raise ConstructionError(f"net metadata has {is_boundary.size} boundary flags for n = {n}")
    n_coords = n if coords is None else spaces.coords_len(coords)
    if n_coords != n:
        raise ConstructionError(f"net metadata has {n_coords} coordinates for n = {n}")
    if not np.all(np.isfinite(D)):
        raise ConstructionError(f"net matrix {csv_path} has non-finite entries")
    net = FiniteNet(
        space=space,
        coords=coords,
        is_boundary=is_boundary,
        dist=D,
        epsilon=float(meta["epsilon"]),
        epsilon_effective=float(meta["epsilon_effective"]),
        seed=int(meta["seed"]),
        meta=dict(meta.get("meta", {})),
    )
    return net
