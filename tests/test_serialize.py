"""Descriptor JSON: stored generators, old element-list files, malformed payloads;
stored nets whose matrix and metadata disagree; the CLI's fixed mmap threshold."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import alexgeo
from alexgeo import actions, cli, nets, serialize
from alexgeo.errors import ConstructionError
from alexgeo.spaces import Cone, Interval, Join, Lens, ModelBall, Quotient, Sphere, Suspension


def _bits(iso):
    return iso.matrix.tobytes() if isinstance(iso, actions.OrthogonalMap) else _bits(iso.base)


class TestGenerators:
    @pytest.mark.parametrize("base", [Sphere(3, 1.0), Cone(1.0, Sphere(1, 1.0), 1.0)])
    def test_cyclic_action_stores_one_generator(self, base):
        cyc = actions.cyclic_approximation(base, 64)
        payload = serialize.space_to_json(Quotient(base, cyc))
        assert payload["action"]["order"] == 64
        assert len(payload["action"]["generators"]) == 1
        reloaded = serialize.space_from_json(json.loads(json.dumps(payload))).action
        assert [_bits(g) for g in reloaded.elements[1:]] == [_bits(g) for g in cyc.elements[1:]]
        assert len(reloaded.generators) == 1

    def test_hand_built_action_stores_every_element(self):
        base = Sphere(1, 1.0)
        elements = actions.cyclic_approximation(base, 4).elements
        payload = actions.action_to_json(actions.GroupAction(base, elements))
        assert len(payload["generators"]) == 3

    def test_old_format_with_every_element_loads(self, tmp_path):
        base = Sphere(3, 1.0)
        cyc = actions.cyclic_approximation(base, 64)
        # an element list serializes every element, as files written before
        # actions kept their generators do
        old = Quotient(base, actions.GroupAction(base, cyc.elements, name=cyc.name))
        assert len(serialize.space_to_json(old)["action"]["generators"]) == 63
        net = nets.epsilon_net(old, 0.35, 3)
        csv = tmp_path / "old.csv"
        serialize.write_net(net, csv)
        loaded = serialize.read_net(csv)
        assert [_bits(g) for g in loaded.space.action.elements[1:]] == [
            _bits(g) for g in cyc.elements[1:]
        ]
        assert serialize.net_to_bytes(loaded) == serialize.net_to_bytes(net)

    def test_cyclic_net_round_trips_byte_for_byte(self, tmp_path):
        base = Cone(1.0, Sphere(1, 1.0), 1.0)
        net = nets.epsilon_net(Quotient(base, actions.cyclic_approximation(base, 64)), 0.08, 3)
        csv = tmp_path / "new.csv"
        serialize.write_net(net, csv)
        assert serialize.net_to_bytes(serialize.read_net(csv)) == serialize.net_to_bytes(net)

    @pytest.mark.parametrize("listed", [False, True])
    def test_reload_closes_in_linear_compositions(self, monkeypatch, listed):
        base = Sphere(3, 1.0)
        m = 256
        cyc = actions.cyclic_approximation(base, m)
        action = actions.GroupAction(base, cyc.elements) if listed else cyc
        payload = serialize.space_to_json(Quotient(base, action))
        calls = []
        compose = actions.compose

        def counting(*args):
            calls.append(1)
            return compose(*args)

        monkeypatch.setattr(actions, "compose", counting)
        reloaded = serialize.space_from_json(payload)
        assert reloaded.action.order == m
        assert len(calls) <= 2 * m

    def test_closure_of_two_generators(self):
        base = Sphere(1, 1.0)
        rot = actions.OrthogonalMap(actions.rotation_matrix(np.pi / 3.0))
        refl = actions.OrthogonalMap(actions.circle_reflection_matrix())
        action = actions.group_from_generators(base, [rot, refl])
        assert action.order == 12  # the dihedral group of the hexagon
        assert action.generators == (rot, refl)
        assert action.elements[1:3] == (rot, refl)
        assert actions.validate_action(base, action, n_pairs=50).passed


class TestMalformed:
    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "sphere"},
            {"kind": "sphere", "dim": "two"},
            {"kind": "cone", "k": 1.0, "r0": 1.0},
            {"kind": "join", "left": {"kind": "sphere", "dim": 1}, "right": [1]},
            {"kind": "quotient", "base": {"kind": "sphere", "dim": 1},
             "action": {"generators": [{"type": "rotation"}]}},
            {"kind": "quotient", "base": {"kind": "sphere", "dim": 1},
             "action": {"generators": [{"type": "rotation", "order": 4}], "order": "four"}},
            ["sphere"],
        ],
    )
    def test_descriptor_raises_construction_error(self, payload):
        with pytest.raises(ConstructionError):
            serialize.space_from_json(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {"generators": [{"type": "rotation"}]},
            {"generators": [{"type": "hopf", "order": None}]},
            {"generators": [{"type": "orthogonal"}]},
            {"generators": "rotation"},
        ],
    )
    def test_action_raises_construction_error(self, payload):
        base = Sphere(3, 1.0) if "hopf" in json.dumps(payload) else Sphere(1, 1.0)
        with pytest.raises(ConstructionError):
            actions.action_from_json(base, payload)

    @pytest.mark.parametrize("order", [0, -4, 2.5, True, "4", float("inf")])
    @pytest.mark.parametrize("kind,dim", [("rotation", 1), ("hopf", 3)])
    def test_generator_order_must_be_a_positive_integer(self, tmp_path, capsys, kind, dim, order):
        payload = {"kind": "quotient", "base": {"kind": "sphere", "dim": dim},
                   "action": {"generators": [{"type": kind, "order": order}]}}
        with pytest.raises(ConstructionError, match="integer order"):
            serialize.space_from_json(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        rc = cli.main(["construct", "--space", str(bad), "--out", str(tmp_path / "net.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_generator_times_must_be_an_integer(self):
        payload = {"kind": "quotient", "base": {"kind": "sphere", "dim": 1},
                   "action": {"generators": [{"type": "rotation", "order": 4, "times": 1.5}]}}
        with pytest.raises(ConstructionError, match="integer times"):
            serialize.space_from_json(payload)

    @pytest.mark.parametrize("text", ['{"kind": "sphere"}', '{"kind": '])
    def test_cli_exits_2_with_a_message(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = cli.main(["construct", "--space", str(bad), "--out", str(tmp_path / "net.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestReadNetValidation:
    @pytest.fixture()
    def stored(self, tmp_path):
        net = nets.epsilon_net(Lens(2, 1.0), 0.3, 42)
        csv = tmp_path / "net.csv"
        serialize.write_net(net, csv)
        return net, csv

    def _edit_meta(self, csv, edit):
        meta_path = csv.with_suffix(".csv.json")
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))

    def test_valid_net_loads(self, stored):
        net, csv = stored
        assert np.array_equal(serialize.read_net(csv).dist, net.dist)

    def test_matrix_smaller_than_metadata_n(self, stored):
        net, csv = stored
        np.savetxt(csv, net.dist[:3, :3], delimiter=",", fmt="%.17g")
        with pytest.raises(ConstructionError, match="shape"):
            serialize.read_net(csv)

    def test_non_square_matrix(self, stored):
        net, csv = stored
        np.savetxt(csv, net.dist[:, :-1], delimiter=",", fmt="%.17g")
        with pytest.raises(ConstructionError, match="shape"):
            serialize.read_net(csv)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix(self, stored, bad):
        net, csv = stored
        np.savetxt(csv, np.full_like(net.dist, bad), delimiter=",", fmt="%.17g")
        with pytest.raises(ConstructionError, match="non-finite"):
            serialize.read_net(csv)
        D = net.dist.copy()
        D[2, 5] = bad
        np.savetxt(csv, D, delimiter=",", fmt="%.17g")
        with pytest.raises(ConstructionError, match="non-finite"):
            serialize.read_net(csv)

    def test_boundary_flag_count(self, stored):
        _, csv = stored
        self._edit_meta(csv, lambda m: m["is_boundary"].pop())
        with pytest.raises(ConstructionError, match="boundary flags"):
            serialize.read_net(csv)

    def test_coordinate_count(self, stored):
        _, csv = stored
        self._edit_meta(csv, lambda m: m["coords"]["t"].pop())
        with pytest.raises(ConstructionError, match="coordinates"):
            serialize.read_net(csv)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_coordinate_fields_disagree(self, stored, side):
        # `t` still counts n points, so only the record's own length check catches this
        _, csv = stored
        self._edit_meta(csv, lambda m: m["coords"][side].pop())
        with pytest.raises(ConstructionError, match="coordinates"):
            serialize.read_net(csv)

    @pytest.mark.parametrize("edit, match", [
        (lambda m: m["coords"].pop("left"), "missing field 'left'"),
        (lambda m: m.__setitem__("coords", [1.0, 2.0]), "mistyped"),
    ])
    def test_malformed_coordinates(self, stored, edit, match):
        _, csv = stored
        self._edit_meta(csv, edit)
        with pytest.raises(ConstructionError, match=match):
            serialize.read_net(csv)

    @pytest.mark.parametrize("edit, match", [
        (lambda c: c.__setitem__("t", 0.5), "join latitude coordinates must be a list of numbers"),
        (lambda c: c.__setitem__("right", [[s] for s in c["right"]]), "interval coordinates must be a list"),
        (lambda c: c["left"].__setitem__(0, [2.0]), "not a unit vector"),
    ], ids=["scalar-latitude", "interval-rows", "non-unit-sphere-row"])
    def test_coordinate_leaf_shapes(self, stored, edit, match):
        _, csv = stored
        self._edit_meta(csv, lambda m: edit(m["coords"]))
        with pytest.raises(ConstructionError, match=match):
            serialize.read_net(csv)

    def test_sphere_rows_one_entry_too_wide(self, tmp_path):
        # the extra entry would leave net.point(0) off the lens's S^1 factor
        net = nets.epsilon_net(Lens(3, 1.0), 0.3, 42)
        csv = tmp_path / "lens3.csv"
        serialize.write_net(net, csv)
        self._edit_meta(csv, lambda m: [row.append(0.0) for row in m["coords"]["left"]])
        with pytest.raises(ConstructionError, match="sphere coordinates must be rows of 2 numbers"):
            serialize.read_net(csv)

    @pytest.mark.parametrize("space, edit", [
        (Cone(1.0, Sphere(1, 1.0), 1.0), lambda c: c["t"].__setitem__(-1, 5.0)),
        (Join(Sphere(1, 1.0), Interval(1.0)), lambda c: c["right"].__setitem__(0, float("nan"))),
        (Join(Sphere(1, 1.0), Interval(1.0)), lambda c: c["t"].__setitem__(0, -0.5)),
        (Suspension(Sphere(1, 1.0)), lambda c: c["u"].__setitem__(0, 4.0)),
    ], ids=["cone-radial", "nan-interval", "join-latitude", "colatitude"])
    def test_coordinate_out_of_range(self, tmp_path, space, edit):
        csv = tmp_path / "net.csv"
        serialize.write_net(nets.epsilon_net(space, 0.3, 42), csv)
        self._edit_meta(csv, lambda m: edit(m["coords"]))
        with pytest.raises(ConstructionError, match="outside"):
            serialize.read_net(csv)
        assert cli.main(["invariants", "--net", str(csv)]) == 2

    @pytest.mark.parametrize("value", ["a", [0.1, 0.2]], ids=["string", "list"])
    def test_coordinate_that_is_no_number(self, tmp_path, value):
        csv = tmp_path / "net.csv"
        serialize.write_net(nets.epsilon_net(Interval(1.0), 0.3, 42), csv)
        self._edit_meta(csv, lambda m: m["coords"].__setitem__(1, value))
        with pytest.raises(ConstructionError):
            serialize.read_net(csv)
        assert cli.main(["invariants", "--net", str(csv)]) == 2

    def test_missing_n(self, stored):
        _, csv = stored
        self._edit_meta(csv, lambda m: m.pop("n"))
        with pytest.raises(ConstructionError, match="'n'"):
            serialize.read_net(csv)

    @pytest.mark.parametrize("command", ["invariants", "verify"])
    def test_cli_exits_2_on_a_mismatched_matrix(self, stored, capsys, command):
        net, csv = stored
        np.savetxt(csv, net.dist[:3, :3], delimiter=",", fmt="%.17g")
        argv = [command, "--net", str(csv)] + (["--check", "metric"] if command == "verify" else [])
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


LENS, BALL = Lens(3, 1.0), ModelBall(1.0, 1.0, 2)


def _ball_quotient():
    return Quotient(BALL, actions.cyclic_approximation(BALL, 8))


class TestKindBoundary:
    """A lens is a join and a model ball a cone, but each keeps its own JSON kind."""

    @pytest.mark.parametrize("make, path", [
        (lambda: LENS, ()),
        (lambda: BALL, ()),
        (lambda: Join(LENS, Sphere(1, 0.75)), ("left",)),
        (lambda: Cone(1.0, LENS, 1.0), ("base",)),
        (lambda: Suspension(LENS), ("base",)),
        (_ball_quotient, ("base",)),
    ], ids=["lens", "model-ball", "join-factor", "cone-base", "suspension-base", "quotient-base"])
    def test_round_trip_keeps_class_and_kind(self, make, path):
        space = make()
        payload = json.loads(json.dumps(serialize.space_to_json(space)))
        reloaded = serialize.space_from_json(payload)
        node, again, node_payload = space, reloaded, payload
        for name in path:
            node, again, node_payload = getattr(node, name), getattr(again, name), node_payload[name]
        assert type(again) is type(node)
        assert node_payload["kind"] == {Lens: "lens", ModelBall: "model_ball"}[type(node)]
        assert serialize.space_to_json(reloaded) == payload
        if isinstance(space, Quotient):
            assert reloaded.action.rotation_order == 8
        else:
            assert reloaded == space

    def test_subclass_but_not_equal_to_the_plain_construction(self):
        assert isinstance(LENS, Join)
        assert LENS != Join(Sphere(1, 1.0), Interval(1.0))
        assert isinstance(BALL, Cone)
        assert BALL != Cone(1.0, Sphere(1, 1.0), 1.0)

    def test_parameters_are_read_only(self):
        assert (LENS.dim, LENS.alpha, BALL.dim) == (3, 1.0, 2)
        with pytest.raises(AttributeError):
            LENS.alpha = 2.0
        with pytest.raises(AttributeError):
            BALL.dim = 3


_FREED_MATRICES = """
import sys
import numpy as np
from alexgeo import cli

def rss_mb():
    with open("/proc/self/status") as f:
        return next(int(ln.split()[1]) for ln in f if ln.startswith("VmRSS")) / 1024

if sys.argv[1] == "fixed":
    cli._map_large_blocks()
base = rss_mb()
for n in (1500, 1400, 1500):  # matrices of 18.0, 15.7 and 18.0 MB, each touched, then freed
    D = np.ones((n, n))
    del D
print(rss_mb() - base)
"""


class TestCliMmapThreshold:
    """`cli.main` fixes glibc's mmap threshold, so a freed n x n matrix leaves the process."""

    @pytest.mark.skipif(not Path("/proc/self/status").exists()
                        or not hasattr(ctypes.CDLL(None), "mallopt"), reason="needs glibc on Linux")
    def test_freed_matrices_are_returned(self):
        # With glibc's moving threshold the second and third matrices come from
        # the heap and about 18 MB stays resident after they are freed.
        src = Path(alexgeo.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", _FREED_MATRICES, "fixed"], check=True, text=True,
                             capture_output=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert float(out) < 4.0

    def test_main_sets_it_and_skips_a_library_without_mallopt(self, monkeypatch, tmp_path):
        calls = []

        class Glibc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        space = tmp_path / "interval.json"
        space.write_text(json.dumps(serialize.space_to_json(Interval(1.0))))
        argv = ["construct", "--space", str(space), "--epsilon", "0.3", "--out", str(tmp_path / "net.csv")]
        for libc in (Glibc(), object()):
            monkeypatch.setattr(cli.ctypes, "CDLL", lambda name, libc=libc: libc)
            assert cli.main(argv) == 0
        assert calls == [(-3, 4 << 20), (-1, 8 << 20)]
