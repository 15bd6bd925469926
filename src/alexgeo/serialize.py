"""JSON and CSV interchange for descriptors and nets.

Descriptors serialize to tagged JSON objects; quotient actions carry their
generators (one for a cyclic surrogate, not every element) and declared
order, and are re-closed on load.  Older files that list every element as
a generator still load, to the same elements.  Nets export as a CSV distance
matrix alongside a JSON metadata file (descriptor, resolution, seed,
boundary flags, coordinates, and the sha256 digests of the CSV file and of
the matrix buffer).  Serialization is byte-stable: identical inputs produce
identical bytes.

A stored net loads by replay when it can: the sidecar determines the
matrix, so `read_net` rebuilds it through `nets.grid_net` when the CSV
still hashes to its stored digest, and keeps the rebuilt matrix only if
it hashes to the stored matrix digest.  Otherwise (an edited CSV, a
sidecar without digests, an ellipsoid net, a last-bit difference from
another BLAS) it parses the CSV.  The sidecar is trusted as its
coordinates already are; a sidecar whose digests were rewritten by hand
is not detected.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from . import actions as actions_mod
from . import nets as nets_mod
from .errors import ConstructionError, json_fields
from .nets import FiniteNet
from .spaces import KINDS, Ellipsoid, Quotient, as_integer, as_real, coords_len


def space_to_json(space) -> dict:
    """The descriptor's tagged JSON object."""
    return space.to_json()


def read_json(path, what: str) -> dict:
    """The JSON object in the file `path`; an unreadable file, text that is not JSON or
    a value that is no object is a ConstructionError naming the file as `what`."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConstructionError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConstructionError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConstructionError(f"{what} {path} is not a JSON object")
    return payload


def space_from_json(payload: dict):
    """Descriptor from its JSON object; a missing or mistyped field is a ConstructionError.

    The tag picks the class in `spaces.KINDS`, whose constructor checks the stored values
    of its declared fields, passed as they are (an object as a nested descriptor).  Only
    a field with a default (a sphere's radius) may be absent; other keys are ignored.  A
    quotient's action is read against its base."""
    with json_fields("descriptor"):
        kind = payload.get("kind")
        if kind == "quotient":
            base = space_from_json(payload["base"])
            return Quotient(base, actions_mod.action_from_json(base, payload["action"]))
        if kind not in KINDS:
            raise ConstructionError(f"unknown descriptor kind {kind!r}")
        cls = KINDS[kind]
        params = inspect.signature(cls).parameters
        stored = {name: payload[name] for name in cls._json[1]
                  if name in payload or params[name].default is inspect.Parameter.empty}
        return cls(**{name: space_from_json(v) if isinstance(v, dict) else v for name, v in stored.items()})


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
    """Deterministic JSON text: sorted keys, full-precision floats, numpy values by `tolist()`."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_numpy_to_json)


def _numpy_to_json(o):
    if isinstance(o, (np.ndarray, np.generic)):
        return o.tolist()
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


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
    """Write the distance matrix as CSV and the metadata JSON alongside it.

    The CSV is ``np.savetxt(net.dist, delimiter=",", fmt="%.17g")``.  The
    sidecar holds `net_metadata` plus a ``digests`` object: the sha256 of
    the CSV file and of the matrix's buffer, which let `read_net` rebuild
    the matrix instead of parsing the text.
    """
    csv_path = Path(csv_path)
    np.savetxt(csv_path, net.dist, delimiter=",", fmt="%.17g")
    meta = net_metadata(net)
    meta["digests"] = {"csv_sha256": _file_sha256(csv_path), "matrix_sha256": _matrix_sha256(net.dist)}
    meta_path = _meta_path(csv_path)
    meta_path.write_text(stable_dumps(meta) + "\n")
    return meta_path


def read_net(csv_path) -> FiniteNet:
    """Load a net written by `write_net` (coordinates restored when present).

    The sidecar is read and checked first: its descriptor, coordinates,
    ``n`` and flag count.  The matrix is then replayed when the sidecar
    has digests and coordinates, the space has a grid (not an
    `Ellipsoid`, whose engine depends on a budget the sidecar does not
    store) whose count fits ``n``, and the CSV's sha256 equals the stored
    one: `nets.grid_net` rebuilds it at the stored ``epsilon_effective``.  The replay is kept
    only if its coordinates and flags are bit-equal to the stored ones and
    its buffer's sha256 equals the stored matrix digest.  Otherwise the
    CSV is parsed, as for files written before digests were stored.  Both
    paths return the same matrix bit for bit, and the net is read-only, as
    every `FiniteNet` is.

    The sidecar is authoritative, as its coordinates already are: an edit
    to the CSV is caught by its digest and sends the load to the parse
    path; a sidecar whose digests were rewritten by hand is not detected.
    A missing or unreadable file is a ConstructionError, and so is an
    ``epsilon`` or ``epsilon_effective`` that is no number (`spaces.as_real`).
    """
    csv_path = Path(csv_path)
    meta = read_json(_meta_path(csv_path), "net metadata")
    with json_fields("net metadata"):
        space = space_from_json(meta["space"])
        coords = coords_from_json(space, meta["coords"]) if "coords" in meta else None
        n, seed = as_integer(meta["n"]), as_integer(meta["seed"])
        epsilon, epsilon_effective = as_real(meta["epsilon"]), as_real(meta["epsilon_effective"])
        is_boundary = np.asarray(meta["is_boundary"], dtype=bool)
        digests = meta.get("digests")
        if digests is not None:
            digests = (digests["csv_sha256"], digests["matrix_sha256"])
    if n is None or seed is None:
        raise ConstructionError(
            f"net metadata n and seed must be integers, got {meta['n']!r} and {meta['seed']!r}")
    if epsilon is None or epsilon_effective is None:
        raise ConstructionError(f"net metadata epsilon and epsilon_effective must be numbers, "
                                f"got {meta['epsilon']!r} and {meta['epsilon_effective']!r}")
    # the matrix, flags and coordinates must all describe the same n points
    if is_boundary.shape != (n,):
        raise ConstructionError(f"net metadata has {is_boundary.size} boundary flags for n = {n}")
    n_coords = n if coords is None else coords_len(coords)
    if n_coords != n:
        raise ConstructionError(f"net metadata has {n_coords} coordinates for n = {n}")
    try:
        D = None
        if digests is not None and coords is not None and not isinstance(space, Ellipsoid):
            D = _replay(space, epsilon_effective, coords, is_boundary, csv_path, *digests)
        if D is None:
            D = _parse_matrix(csv_path)
    except OSError as exc:
        raise ConstructionError(f"cannot read net matrix {csv_path}: {exc.strerror or exc}") from None
    if D.shape != (n, n):
        raise ConstructionError(f"net matrix {csv_path} has shape {D.shape}, metadata says n = {n}")
    if not np.all(np.isfinite(D)):
        raise ConstructionError(f"net matrix {csv_path} has non-finite entries")
    return FiniteNet(space, coords, is_boundary, D, epsilon, epsilon_effective, seed,
                     dict(meta.get("meta", {})))


def _meta_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(csv_path.suffix + ".json")


def _file_sha256(path: Path) -> str:
    """sha256 of a file, read in 1 MiB chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def _matrix_sha256(D: np.ndarray) -> str:
    """sha256 of the matrix's float64 buffer, hashed in place (no `tobytes` copy)."""
    return hashlib.sha256(np.ascontiguousarray(D, dtype=np.float64)).hexdigest()


def _replay(space, eff, coords, is_boundary, csv_path, csv_sha256, matrix_sha256):
    """The stored matrix rebuilt by `nets.grid_net(space, eff)`, or None if it does not reproduce.

    The grid is built only when its closed-form count fits the n stored
    points (a quotient's grid holds at most one copy per group element of
    each kept point), and only when the CSV on disk is the one the
    digests were taken of.
    """
    n = coords_len(coords)
    order = len(space.action.elements) if isinstance(space, Quotient) else 1
    if not (math.isfinite(eff) and eff > 0.0 and n <= space.net_count(eff) <= order * n):
        return None
    if _file_sha256(csv_path) != csv_sha256:
        return None
    grid_coords, flags, D = nets_mod.grid_net(space, eff)
    if (
        np.array_equal(flags, is_boundary)
        and _same_bits(grid_coords, coords)
        and _matrix_sha256(D) == matrix_sha256
    ):
        return D
    return None


def _same_bits(a, b) -> bool:
    """Whether two packed coordinate sets hold the same float64 bits, leaf by leaf."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _same_bits(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
        )
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _parse_matrix(csv_path: Path) -> np.ndarray:
    """The CSV's matrix as text; a cell that is not a number is a ConstructionError."""
    try:
        return np.loadtxt(csv_path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConstructionError(f"net matrix {csv_path} is not a numeric CSV: {exc}") from None
