"""JSON and CSV interchange for descriptors and nets.

Descriptors serialize to tagged JSON objects; quotient actions carry their
generators (one for a cyclic surrogate, not every element) and declared
order, and are re-closed on load.  Older files that list every element as
a generator still load, to the same elements.  Nets export as a CSV distance
matrix alongside a JSON metadata file (descriptor, resolution, seed,
boundary flags, coordinates, and the sha256 digests of the CSV file and of
the matrix buffer).  Serialization is byte-stable: identical inputs produce
identical bytes.

The CSV holds the bytes ``np.savetxt(D, delimiter=",", fmt="%.17g")``
writes, produced by numpy a block of rows at a time (`_csv_bytes`).  An
entry x with 1e-4 <= |x| < 1e16 has its 17 significant digits computed
exactly: with E its decimal exponent and p = 10**(16 - E), an exact double,
Dekker's two-product splits |x| * p into hi + lo with no rounding, and
hi >= 2**53 is an even integer, so hi + rint(lo) is the round-half-even
integer Python's correctly rounded conversion gives.  %g writes such an
entry in fixed notation (-4 <= E < 17), with trailing zeros and a bare
point stripped.  Every other entry (0, -0, NaN, +-inf, |x| < 1e-4 or
>= 1e16) is formatted by Python's ``b"%.17g" % x``, as `np.savetxt`
formats every entry.

A stored net loads by replay when it can: the sidecar determines the
matrix, so `read_net` rebuilds it through `nets.grid_net` when the CSV
still hashes to its stored digest, and keeps the rebuilt matrix only if
it hashes to the stored matrix digest.  Otherwise (an edited CSV, a
sidecar without digests, a last-bit difference from another BLAS) it
parses the CSV; `load_net` also says which path it took
and why.  The sidecar is trusted as its
coordinates already are; a sidecar whose digests were rewritten by hand
is not detected.
"""

from __future__ import annotations

import functools
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
from .spaces import KINDS, Quotient, as_integer, as_real, coords_len, row_block


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

    The CSV is byte for byte ``np.savetxt(net.dist, delimiter=",",
    fmt="%.17g")``, written by `_csv_bytes` in blocks of `spaces.row_block`
    / 8 rows, so its temporaries stay at a few MB; see the module docstring
    for why its digits are exact.  The sidecar holds `net_metadata` plus a
    ``digests`` object: the sha256 of the CSV bytes, hashed as they are
    written, and of the matrix's buffer, which let `read_net` rebuild the
    matrix instead of parsing the text.
    """
    csv_path = Path(csv_path)
    D = net.dist
    step = max(1, row_block(D.shape[1]) // 8)
    csv_sha256 = hashlib.sha256()
    with open(csv_path, "wb") as f:
        for s in range(0, D.shape[0], step):
            text = _csv_bytes(D[s:s + step])
            f.write(text)
            csv_sha256.update(text)
    meta = net_metadata(net)
    meta["digests"] = {"csv_sha256": csv_sha256.hexdigest(), "matrix_sha256": _matrix_sha256(D)}
    meta_path = _meta_path(csv_path)
    meta_path.write_text(stable_dumps(meta) + "\n")
    return meta_path


# The CSV writer.  A cell is one entry's text and its separator, at most 24 + 1
# bytes ("-2.2250738585072014e-308,"); _KEEP[L] keeps a cell's first L + 1 bytes.
_CELL = 25
_CELL_BYTES = np.dtype((np.void, _CELL))
_KEEP = (np.arange(_CELL) <= np.arange(_CELL)[:, None]).view(_CELL_BYTES).ravel()
_DIGIT_BYTES = np.dtype((np.void, 20))  # five "%04d" words: 3 pad bytes, then 17 digits
_POW10 = 10.0 ** np.arange(23)          # 10**k is an exact double up to k = 22
_LAYOUTS = 2 * 21                       # layout 2 * (E + 4) + sign for E in [-4, 16]; Python's is _LAYOUTS


@functools.cache
def _digit_groups():
    """``b"%04d" % g`` for g in 0..9999 as uint32 words, and each g's count of trailing zeros."""
    text = b"".join(b"%04d" % g for g in range(10_000))
    chars = np.frombuffer(text, np.uint8).reshape(-1, 4)
    trailing = np.argmax(chars[:, ::-1] != ord("0"), axis=1)
    trailing[0] = 4
    return np.frombuffer(text, np.uint32), trailing


def _split(a):
    """Veltkamp's split: a = hi + lo exactly, each half with at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a, E):
    """N = round-half-even(a * 10**(16 - E)) and whether that exact product is below 10**16.

    Dekker's two-product gives a * p = hi + lo exactly.  Where the product
    is at least 10**16 > 2**53, hi is an even integer, so hi + rint(lo)
    rounds the exact value half to even.
    """
    p = _POW10[16 - E]
    hi = a * p
    ah, al = _split(a)
    ph, pl = _split(p)
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    N = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    return N, (hi < 1e16) | ((hi == 1e16) & (lo < 0))


def _fixed_cells(digits, e: int, negative: bool) -> np.ndarray:
    """Cells of the 17 digits in each row of `digits` at decimal exponent e, in
    %f layout, unstripped: "0.00ddd..." for e < 0, the point after digit e otherwise."""
    head = b"-" * negative + (b"0." + b"0" * (-e - 1) if e < 0 else b"")
    k = len(head)
    cells = np.empty((digits.shape[0], _CELL), np.uint8)
    cells[:, :k] = np.frombuffer(head, np.uint8)
    if e < 0:
        cells[:, k:k + 17] = digits
    else:
        cells[:, k:k + e + 1] = digits[:, :e + 1]
        cells[:, k + e + 1] = ord(".")
        cells[:, k + e + 2:k + 18] = digits[:, e + 1:]
    return cells


def _csv_bytes(block: np.ndarray) -> bytes:
    """The rows of `block` as ``np.savetxt(fmt="%.17g", delimiter=",")`` writes them.

    An entry x with 1e-4 <= |x| < 1e16 is written by numpy.  Its exponent E
    starts at floor(log10 |x|) and moves by one while the exact product
    |x| * 10**(16 - E) lies below 10**16 or rounds above 10**17, so that
    N = `_scaled` |x| holds its 17 significant digits; N = 10**17, a carry,
    is 10**16 at E + 1.  The digits are read four at a time from
    `_digit_groups`, each (sign, E) group is laid out by `_fixed_cells`, and
    each cell's length cuts the fraction's trailing zeros, and a point with
    no fraction, before one boolean mask packs the cells.  Python formats
    every other entry.
    """
    ncol = block.shape[1]
    x = np.asarray(block, dtype=np.float64).ravel()
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e16)
    a[~fixed] = 1.0  # a stand-in; these cells are overwritten below
    E = np.floor(np.log10(a)).astype(np.int64)
    N, under = _scaled(a, E)
    off = np.flatnonzero(under | (N > 10**17))
    while off.size:  # log10 rounded across a power of ten: one step corrects it
        E[off] += np.where(under[off], -1, 1)
        N[off], under[off] = _scaled(a[off], E[off])
        off = off[under[off] | (N[off] > 10**17)]
    carry = N == 10**17  # a product within 1/2 of 10**17 rounds up to the next exponent
    E[carry] += 1
    N[carry] = 10**16

    groups, trailing = _digit_groups()
    # x - (x // d) * d, since numpy's `%` by a constant is several times slower than `//`
    lead = N // 10**16
    rest = N - lead * 10**16
    hi = rest // 10**8
    lo = rest - hi * 10**8
    g0, g2 = hi // 10**4, lo // 10**4
    g = (g0, hi - g0 * 10**4, g2, lo - g2 * 10**4)
    words = np.empty((x.size, 5), np.uint32)
    words[:, 0] = groups[lead]
    for i in range(4):
        words[:, i + 1] = groups[g[i]]
    zeros = trailing[g[3]] + (g[3] == 0) * (
        trailing[g[2]] + (g[2] == 0) * (trailing[g[1]] + (g[1] == 0) * trailing[g[0]]))
    negative = np.signbit(x)
    fraction = np.maximum(16 - E - zeros, 0)
    length = negative + np.maximum(E, 0) + 1 + fraction + (fraction > 0)

    # cells and digit rows move as void items, one memcpy each rather than byte by byte
    cells = np.empty((x.size, _CELL), np.uint8)
    cell_rows = cells.view(_CELL_BYTES).ravel()
    digit_rows = words.view(_DIGIT_BYTES).ravel()
    layout = np.where(fixed, 2 * (E + 4) + negative, _LAYOUTS)
    for c in np.flatnonzero(np.bincount(layout, minlength=_LAYOUTS + 1)[:_LAYOUTS]):
        at = np.flatnonzero(layout == c)
        digits = digit_rows[at].view(np.uint8).reshape(-1, 20)[:, 3:]
        cell_rows[at] = _fixed_cells(digits, int(c) // 2 - 4, bool(c % 2)).view(_CELL_BYTES).ravel()
    other = np.flatnonzero(~fixed)
    if other.size:
        texts = [b"%.17g" % v for v in x[other].tolist()]
        cells[other, :_CELL - 1] = np.frombuffer(
            b"".join(t.ljust(_CELL - 1) for t in texts), np.uint8).reshape(-1, _CELL - 1)
        length[other] = [len(t) for t in texts]

    ends = np.arange(0, cells.size, _CELL) + length
    cells.ravel()[ends] = ord(",")
    cells.ravel()[ends[ncol - 1::ncol]] = ord("\n")
    return cells[_KEEP[length].view(bool).reshape(-1, _CELL)].tobytes()


def read_net(csv_path) -> FiniteNet:
    """Load a net written by `write_net` (coordinates restored when present).

    The sidecar is read and checked first: its descriptor, coordinates,
    ``n`` and flag count.  The matrix is then replayed when the sidecar
    has digests and coordinates, the space's grid count fits ``n``, and
    the CSV's sha256 equals the stored one: `nets.grid_net` rebuilds it at
    the stored ``epsilon_effective``.  The replay is kept
    only if its coordinates and flags are bit-equal to the stored ones and
    its buffer's sha256 equals the stored matrix digest.  Otherwise the
    CSV is parsed, as for files written before digests were stored.  Both
    paths return the same matrix bit for bit, and the net is read-only, as
    every `FiniteNet` is.

    The sidecar is authoritative, as its coordinates already are: an edit
    to the CSV is caught by its digest and sends the load to the parse
    path; a sidecar whose digests were rewritten by hand is not detected.
    A missing or unreadable file is a ConstructionError, and so are an
    ``epsilon`` or ``epsilon_effective`` that is no number (`spaces.as_real`)
    and a sidecar with digests and coordinates whose space has no grid (the
    ellipsoid, which has no net).
    """
    return load_net(csv_path)[0]


def load_net(csv_path) -> tuple[FiniteNet, str]:
    """The net `read_net` loads, and how its matrix was obtained: ``"replay"``, or
    ``"parse: "`` and why the replay was not taken or not kept (``verify --check replay``)."""
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
        D, source = _replay(space, epsilon_effective, coords, is_boundary, csv_path, digests)
        if D is None:
            D, source = _parse_matrix(csv_path), f"parse: {source}"
    except OSError as exc:
        raise ConstructionError(f"cannot read net matrix {csv_path}: {exc.strerror or exc}") from None
    if D.shape != (n, n):
        raise ConstructionError(f"net matrix {csv_path} has shape {D.shape}, metadata says n = {n}")
    if not np.all(np.isfinite(D)):
        raise ConstructionError(f"net matrix {csv_path} has non-finite entries")
    return FiniteNet(space, coords, is_boundary, D, epsilon, epsilon_effective, seed,
                     dict(meta.get("meta", {}))), source


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


def _replay(space, eff, coords, is_boundary, csv_path, digests):
    """The stored matrix rebuilt by `nets.grid_net(space, eff)` and ``"replay"``, or None
    and why it was not rebuilt or does not reproduce.

    Only a sidecar with digests and coordinates replays.  The grid is built
    only when its closed-form count fits the n stored points (a quotient's
    grid holds at most one copy per group element of each kept point), and
    only when the CSV on disk is the one the digests were taken of.
    """
    if digests is None or coords is None:
        return None, f"the sidecar has no {'digests' if digests is None else 'coordinates'}"
    csv_sha256, matrix_sha256 = digests
    n = coords_len(coords)
    order = len(space.action.elements) if isinstance(space, Quotient) else 1
    if not (math.isfinite(eff) and eff > 0.0 and n <= space.net_count(eff) <= order * n):
        return None, f"the grid at epsilon_effective {eff!r} does not fit n = {n}"
    if _file_sha256(csv_path) != csv_sha256:
        return None, "the CSV does not hash to its stored digest"
    grid_coords, flags, D = nets_mod.grid_net(space, eff)
    if not (np.array_equal(flags, is_boundary) and _same_bits(grid_coords, coords)):
        return None, "the rebuilt coordinates or boundary flags differ from the stored ones"
    if _matrix_sha256(D) != matrix_sha256:
        return None, "the rebuilt matrix does not hash to its stored digest"
    return D, "replay"


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
