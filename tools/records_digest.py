"""Print sha256 digests of the catalogue records and of a fixed set of nets.

Two checkouts whose digests agree produce byte-identical `run_all` records
(wall time removed) and byte-identical `net_to_bytes` output, so a refactor
that should not move any number can be checked by running this script on
both sides and comparing the output.

Usage, from the repository root:

    PYTHONPATH=src python tools/records_digest.py

It takes no options.  The catalogue is run at seeds 42, 1 and 7; each net
is built at epsilon 0.1, seed 1.  The nets cover every grid kind, quotients
whose distances take the closed-form rotation, over unit factors (S3/Z8)
and over a circle of radius other than 1 under a cone or a suspension (Z8
and Z64), and a quotient that reads its element list (a reflection group)
element by element.  Per seed it prints two digests: of every record, and of every record but the metric
audits' records, so a change to the audit alone can show that all other
records stayed byte-identical.
Beside them it prints two digests per catalogue entry: of that entry's
report (config and records), and of its records alone, so a change can show
which entries moved and, where only the config moved, that the records did
not.  Two more digests cover `run_example("ex3_4", dim=d)` for
d = 2 and 3 at seed 42: a sub-case selector that `run_all` never passes.
Each net also gets a `net-csv` line: the sha256 of the CSV that
`serialize.write_net` writes for it (in a temporary directory), and
whether `serialize.read_net` gives back a net with equal `net_to_bytes`.
Each hand-built catalogue quotient (the reflections and pole swaps of
`projective_lens_quotient` and `spine_example_quotient`) gets a
`space-json` line: the sha256 of its descriptor's stable JSON text, and
whether `serialize.space_from_json` gives back a quotient with the same
JSON text and the same elements.
Each `scalar-quotient` line is the sha256 of the float64 bytes of scalar
`distance` over 500 seeded pairs on a cyclic quotient, one line for every
kind of root the closed-form rotation takes.  Over a sphere leaf of radius
other than 1: the cone over a circle of radius 0.75 at m = 8, 64 and 256,
S1(0.75)/Z64, `Cone(-1, S1(0.5), 1)`/Z8 and `Suspension(S1(0.75))`/Z8.
Over unit factors: S3/Z256, S1/Z64, cones of k = 1, 0 and -1 over the unit
circle, a suspension and a join.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np

from alexgeo import actions, harness, nets, serialize
from alexgeo.spaces import (
    Cone, Interval, Join, Lens, ModelBall, Quotient, Sphere, Suspension, distance,
)

SEEDS = (42, 1, 7)
DIMS = (2, 3)
NET_EPSILON = 0.1
NET_SEED = 1
AUDIT_RECORD = "metric audit ("
SCALAR_PAIRS = 500
SCALAR_SEED = 11


def _quotient(base, m):
    return Quotient(base, actions.cyclic_approximation(base, m))


def _reflected(cone):
    """The quotient of a cone over a circle by the circle's reflection."""
    flip = actions.ConeMap(actions.OrthogonalMap(actions.circle_reflection_matrix()))
    return Quotient(cone, actions.GroupAction(cone, (actions.Identity(), flip), name="Z_2"))


def net_cases():
    """(label, descriptor) for every net whose bytes are digested."""
    cap075 = Cone(1.0, Sphere(1, 0.75), math.pi / 2)
    return [
        ("Lens(3, 1)", Lens(3, 1.0)),
        ("ModelBall(1, 1, 3)", ModelBall(1.0, 1.0, 3)),
        ("ModelBall(0, 1, 2)", ModelBall(0.0, 1.0, 2)),
        ("Cone(-1, S1, 1)", Cone(-1.0, Sphere(1, 1.0), 1.0)),
        ("Suspension(S1(0.75))", Suspension(Sphere(1, 0.75))),
        ("S3/Z8", _quotient(Sphere(3, 1.0), 8)),
        ("ModelBall(1, 1, 2)/Z8", _quotient(ModelBall(1.0, 1.0, 2), 8)),
        ("Join(Lens(3, 1), S1(0.75))", Join(Lens(3, 1.0), Sphere(1, 0.75))),
        ("Join(I(pi), I(pi))", Join(Interval(math.pi), Interval(math.pi))),
        ("spine_example_quotient(True)", harness.spine_example_quotient(True)),
        ("S2(0.5)", Sphere(2, 0.5)),
        ("Suspension(I(1))", Suspension(Interval(1.0))),
        ("Cone(1, I(1), 1)", Cone(1.0, Interval(1.0), 1.0)),
        ("Join(Suspension(I(0.5)), I(1))", Join(Suspension(Interval(0.5)), Interval(1.0))),
        ("projective_lens_quotient(3, 1)", harness.projective_lens_quotient(3, 1.0)),
        ("Cone(1, S1(0.75), pi/2)/Z8", _quotient(cap075, 8)),
        ("Cone(1, S1(0.75), pi/2)/Z64", _quotient(cap075, 64)),
        ("Cone(-1, S1(0.5), 1)/Z8", _quotient(Cone(-1.0, Sphere(1, 0.5), 1.0), 8)),
        ("Suspension(S1(0.75))/Z8", _quotient(Suspension(Sphere(1, 0.75)), 8)),
        ("Cone(1, S1(0.75), pi/2)/{Id, reflection}", _reflected(cap075)),
    ]


def space_cases():
    """(label, descriptor) for every descriptor whose JSON text is digested."""
    return [
        ("projective_lens_quotient(2, 1)", harness.projective_lens_quotient(2, 1.0)),
        ("projective_lens_quotient(3, 1)", harness.projective_lens_quotient(3, 1.0)),
        ("spine_example_quotient(True)", harness.spine_example_quotient(True)),
        ("spine_example_quotient(False)", harness.spine_example_quotient(False)),
    ]


def scalar_quotient_cases():
    """(label, quotient) for every quotient whose scalar distances are digested."""
    cap075 = Cone(1.0, Sphere(1, 0.75), math.pi / 2)
    cap = Cone(1.0, Sphere(1, 1.0), 1.0)
    return [(f"Cone(1, S1(0.75), pi/2)/Z{m}", _quotient(cap075, m)) for m in (8, 64, 256)] + [
        ("S1(0.75)/Z64", _quotient(Sphere(1, 0.75), 64)),
        ("Cone(-1, S1(0.5), 1)/Z8", _quotient(Cone(-1.0, Sphere(1, 0.5), 1.0), 8)),
        ("Suspension(S1(0.75))/Z8", _quotient(Suspension(Sphere(1, 0.75)), 8)),
        ("S3/Z256", _quotient(Sphere(3, 1.0), 256)),
        ("Cone(1, S1, 1)/Z64", _quotient(cap, 64)),
        ("Cone(0, S1, 1)/Z8", _quotient(Cone(0.0, Sphere(1, 1.0), 1.0), 8)),
        ("Cone(-1, S1, 1)/Z8", _quotient(Cone(-1.0, Sphere(1, 1.0), 1.0), 8)),
        ("S1/Z64", _quotient(Sphere(1, 1.0), 64)),
        ("Suspension(S1)/Z8", _quotient(Suspension(Sphere(1, 1.0)), 8)),
        ("Join(S3, cap)/Z8", _quotient(Join(Sphere(3, 1.0), cap), 8)),
    ]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(docs) -> str:
    return _sha(serialize.stable_dumps(docs).encode())


def _report_doc(report) -> dict:
    doc = report.to_json()
    doc.pop("wall_time_s", None)
    return doc


def records_digests(seed: int) -> tuple:
    """Digests of the `run_all` reports, with and without the audit records,
    and {entry id: (digest of that entry's report, digest of its records)}."""
    docs = [_report_doc(report) for report in harness.run_all(seed=seed)]
    full = _digest(docs)
    per_entry = {doc["config"]["example_id"]: (_digest(doc), _digest(doc["records"])) for doc in docs}
    for doc in docs:
        doc["records"] = [r for r in doc["records"] if AUDIT_RECORD not in r["name"]]
    return full, _digest(docs), per_entry


def net_digests(space) -> tuple:
    """sha256 of the net's `net_to_bytes`, sha256 of its `write_net` CSV, and
    whether `read_net` gives back the same bytes."""
    net = nets.epsilon_net(space, NET_EPSILON, NET_SEED, allow_degrade=True)
    canonical = serialize.net_to_bytes(net)
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "net.csv"
        serialize.write_net(net, csv)
        h = hashlib.sha256()
        with open(csv, "rb") as f:  # streamed: a 5000-point CSV is over 200 MB
            while chunk := f.read(1 << 20):
                h.update(chunk)
        csv_digest = h.hexdigest()
        same = serialize.net_to_bytes(serialize.read_net(csv)) == canonical
    return _sha(canonical), csv_digest, same


def space_digest(space) -> tuple:
    """sha256 of the descriptor's stable JSON text, and whether its reload
    has the same text and, element by element, the same group."""
    text = serialize.stable_dumps(serialize.space_to_json(space))
    reloaded = serialize.space_from_json(serialize.space_to_json(space))
    elements = [serialize.stable_dumps(g.to_json()) for g in space.action.elements]
    same = (serialize.stable_dumps(serialize.space_to_json(reloaded)) == text
            and [serialize.stable_dumps(g.to_json()) for g in reloaded.action.elements] == elements)
    return _sha(text.encode()), same


def scalar_quotient_digest(space) -> str:
    """sha256 of scalar `distance` over SCALAR_PAIRS seeded pairs of base points."""
    rng = np.random.default_rng(SCALAR_SEED)
    P = space.base.random_points(SCALAR_PAIRS, rng)
    Q = space.base.random_points(SCALAR_PAIRS, rng)
    return _sha(np.array([distance(space, p, q) for p, q in zip(P, Q)]).tobytes())


def main():
    for seed in SEEDS:
        full, without_audits, per_entry = records_digests(seed)
        print(f"run_all seed={seed}  {full}")
        print(f"run_all seed={seed} without audit records  {without_audits}")
        for eid, (digest, records) in per_entry.items():
            print(f"entry {eid} seed={seed}  {digest}")
            print(f"entry {eid} seed={seed} records  {records}")
    for dim in DIMS:
        doc = _report_doc(harness.run_example("ex3_4", dim=dim))
        print(f"entry ex3_4 dim={dim} seed=42  {_digest(doc)}")
        print(f"entry ex3_4 dim={dim} seed=42 records  {_digest(doc['records'])}")
    for label, space in net_cases():
        digest, csv_digest, same = net_digests(space)
        print(f"net {label}  {digest}")
        print(f"net-csv {label}  {csv_digest}  reload {'equal' if same else 'differs'}")
    for label, space in space_cases():
        digest, same = space_digest(space)
        print(f"space-json {label}  {digest}  reload {'equal' if same else 'differs'}")
    for label, space in scalar_quotient_cases():
        print(f"scalar-quotient {label}  {scalar_quotient_digest(space)}")


if __name__ == "__main__":
    main()
