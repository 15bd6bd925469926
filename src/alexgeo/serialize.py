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
from .errors import ConstructionError, json_fields
from .nets import FiniteNet
from .spaces import (
    Cone,
    Ellipsoid,
    Interval,
    Join,
    Lens,
    ModelBall,
    Quotient,
    Sphere,
    Suspension,
    coords_len,
)


def space_to_json(space) -> dict:
    """The descriptor's tagged JSON object."""
    return space.to_json()


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
    """Packed coordinates of `space` from JSON, checked as `spaces.pack_points` checks them.

    The layout is that of an empty pack of `space`.  A leaf of the wrong
    shape, a sphere row off the unit sphere or a value outside its
    coordinate range is a ConstructionError.
    """
    coords = _read_coords(space.pack([]), payload)
    space.check_coords(coords, ConstructionError)
    return coords


def _read_coords(layout, payload):
    """`payload` read into the records of `layout`, each leaf as a float array."""
    if not is_dataclass(layout):
        return np.asarray(payload, dtype=float)
    return type(layout)(*(_read_coords(getattr(layout, f.name), payload[f.name]) for f in fields(layout)))


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
    n_coords = n if coords is None else coords_len(coords)
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
