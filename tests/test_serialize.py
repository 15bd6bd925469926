"""Descriptor JSON: stored generators, old element-list files, malformed payloads,
the text each kind writes and the stored values its constructor rejects;
stored nets whose matrix and metadata disagree; nets loaded by replay and by
parsing, and `verify --check replay`; the CSV writer's bytes against
`np.savetxt`; bad net files at the CLI; the CLI's fixed mmap threshold."""

import ctypes
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import alexgeo
from alexgeo import actions, cli, harness, nets, serialize, spaces
from alexgeo.errors import ConstructionError
from alexgeo.spaces import (
    PI,
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
        payload = actions.GroupAction(base, elements).to_json()
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


class TestStableDumps:
    def test_numpy_values_keep_their_text(self):
        # the text the former recursive converter wrote for the same object
        obj = {
            "b": (np.float64(0.1), np.float32(0.1), np.int64(-7), np.bool_(True), np.bool_(False)),
            "a": {"z": np.arange(3), "y": np.array([[0.5, math.nan], [np.inf, -0.0]]), "x": [(1, 2.5), ()]},
            "c": np.float64(math.nan),
            "d": [np.array([True, False]), np.array([], dtype=float), None, "s", np.float64(1e-300)],
            "e": np.float32(3.4028235e38),
        }
        assert serialize.stable_dumps(obj) == (
            '{"a":{"x":[[1,2.5],[]],"y":[[0.5,NaN],[Infinity,-0.0]],"z":[0,1,2]},'
            '"b":[0.1,0.10000000149011612,-7,true,false],"c":NaN,'
            '"d":[[true,false],[],null,"s",1e-300],"e":3.4028234663852886e+38}'
        )

    @pytest.mark.parametrize("value", [object(), {1, 2}])
    def test_other_objects_are_a_type_error(self, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            serialize.stable_dumps({"k": value})


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


# one descriptor per kind and a quotient of a suspension by a pole swap,
# with the stable JSON text and key order of each
_PINNED = [
    (Sphere(2), ["kind", "dim", "radius"], '{"dim":2,"kind":"sphere","radius":1.0}'),
    (Interval(1.0), ["kind", "length"], '{"kind":"interval","length":1.0}'),
    (Ellipsoid(0.7, 0.5, 0.25), ["kind", "a", "b", "c"], '{"a":0.7,"b":0.5,"c":0.25,"kind":"ellipsoid"}'),
    (Join(Sphere(1, 0.75), Interval(1.0)), ["kind", "left", "right"],
     '{"kind":"join","left":{"dim":1,"kind":"sphere","radius":0.75},"right":{"kind":"interval","length":1.0}}'),
    (Cone(-1.0, Sphere(1), 1.0), ["kind", "k", "base", "r0"],
     '{"base":{"dim":1,"kind":"sphere","radius":1.0},"k":-1.0,"kind":"cone","r0":1.0}'),
    (Suspension(Interval(0.5)), ["kind", "base"], '{"base":{"kind":"interval","length":0.5},"kind":"suspension"}'),
    (Quotient(Sphere(2), actions.GroupAction(Sphere(2), (actions.Identity(), actions.antipodal_map(Sphere(2))))),
     ["kind", "base", "action"],
     '{"action":{"generators":[{"matrix":[[-1.0,-0.0,-0.0],[-0.0,-1.0,-0.0],[-0.0,-0.0,-1.0]],"type":"orthogonal"}],'
     '"name":"","order":2},"base":{"dim":2,"kind":"sphere","radius":1.0},"kind":"quotient"}'),
    (Lens(3, 1.0), ["kind", "dim", "alpha"], '{"alpha":1.0,"dim":3,"kind":"lens"}'),
    (ModelBall(0.0, 1.0, 2), ["kind", "k", "r0", "dim"], '{"dim":2,"k":0.0,"kind":"model_ball","r0":1.0}'),
    (harness.projective_lens_quotient(2, 1.0), ["kind", "base", "action"],
     '{"action":{"generators":[{"base":{"type":"reflection"},"flip":true,"type":"suspension_map"}],'
     '"name":"Z_2","order":2},"base":{"base":{"kind":"interval","length":1.0},"kind":"suspension"},"kind":"quotient"}'),
]


class TestStoredValues:
    """Each kind writes the fields it declares; its constructor checks the stored values."""

    @pytest.mark.parametrize("space, keys, text", _PINNED, ids=[
        "sphere", "interval", "ellipsoid", "join", "cone", "suspension", "quotient", "lens", "model_ball", "nested",
    ])
    def test_json_text_and_key_order(self, space, keys, text):
        payload = serialize.space_to_json(space)
        assert list(payload) == keys
        assert serialize.stable_dumps(payload) == text
        assert serialize.stable_dumps(serialize.space_to_json(serialize.space_from_json(json.loads(text)))) == text

    @pytest.mark.parametrize("dim", [2.7, True, "2"], ids=["fraction", "bool", "string"])
    @pytest.mark.parametrize("payload", [
        {"kind": "sphere"},
        {"kind": "lens", "alpha": 1.0},
        {"kind": "model_ball", "k": 1.0, "r0": 1.0},
    ], ids=["sphere", "lens", "model_ball"])
    def test_dimension_that_is_no_integer(self, tmp_path, capsys, payload, dim):
        payload = {**payload, "dim": dim}
        with pytest.raises(ConstructionError, match="dimension must be an integer"):
            serialize.space_from_json(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert cli.main(["construct", "--space", str(bad), "--out", str(tmp_path / "net.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_integral_values_load(self):
        assert serialize.space_from_json({"kind": "sphere", "dim": 2.0, "radius": 1}) == Sphere(2, 1.0)
        assert serialize.space_from_json({"kind": "lens", "dim": 3.0, "alpha": 1}) == Lens(3, 1.0)
        assert serialize.space_from_json({"kind": "interval", "length": 1}) == Interval(1.0)
        assert serialize.space_from_json({"kind": "ellipsoid", "a": 1, "b": 1, "c": 1}) == Ellipsoid(1.0, 1.0, 1.0)
        assert serialize.space_from_json({"kind": "model_ball", "k": 1, "r0": 1, "dim": 2}) == ModelBall(1.0, 1.0, 2)

    @pytest.mark.parametrize("payload, value", [
        ({"kind": "sphere", "dim": 2, "radius": True}, True),
        ({"kind": "interval", "length": True}, True),
        ({"kind": "ellipsoid", "a": "0.7", "b": 0.5, "c": 0.25}, "0.7"),
        ({"kind": "ellipsoid", "a": 0.7, "b": True, "c": 0.25}, True),
        ({"kind": "ellipsoid", "a": 0.7, "b": 0.5, "c": "0.25"}, "0.25"),
        ({"kind": "cone", "k": "1", "base": {"kind": "sphere", "dim": 1}, "r0": 1.0}, "1"),
        ({"kind": "cone", "k": 1.0, "base": {"kind": "sphere", "dim": 1}, "r0": "1"}, "1"),
        ({"kind": "model_ball", "k": True, "r0": 1.0, "dim": 2}, True),
        ({"kind": "model_ball", "k": 1.0, "r0": True, "dim": 2}, True),
        ({"kind": "lens", "dim": 3, "alpha": True}, True),
    ], ids=["sphere-radius", "interval-length", "ellipsoid-a", "ellipsoid-b", "ellipsoid-c", "cone-k", "cone-r0",
            "model_ball-k", "model_ball-r0", "lens-alpha"])
    def test_real_field_that_is_no_number(self, tmp_path, capsys, payload, value):
        # `float()` would read "1" as 1.0, and a bool passes a range test as 1
        with pytest.raises(ConstructionError, match=f"got {re.escape(repr(value))}"):
            serialize.space_from_json(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert cli.main(["construct", "--space", str(bad), "--out", str(tmp_path / "net.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("alpha", [4.0, 0.0, -0.2], ids=["above-pi", "zero", "negative"])
    def test_lens_angle_out_of_range(self, tmp_path, capsys, alpha):
        # a bad angle fails as every other bad field does, not as a point outside a domain
        payload = {"kind": "lens", "dim": 3, "alpha": alpha}
        with pytest.raises(ConstructionError, match=r"lens angle must lie in \(0, pi\]"):
            serialize.space_from_json(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert cli.main(["construct", "--space", str(bad), "--out", str(tmp_path / "net.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: lens angle")

    def test_radius_defaults_and_unknown_keys_are_ignored(self):
        space = serialize.space_from_json({"kind": "sphere", "dim": 1, "colour": "red"})
        assert space == Sphere(1, 1.0)

    @pytest.mark.parametrize("payload, name", [
        ({"kind": "lens", "alpha": 1.0}, "dim"),
        ({"kind": "model_ball", "k": 1.0, "dim": 2}, "r0"),
        ({"kind": "cone", "k": 1.0, "r0": 1.0}, "base"),
        ({"kind": "join", "left": {"kind": "interval", "length": 1.0}}, "right"),
        ({"kind": "quotient", "base": {"kind": "sphere", "dim": 1}}, "action"),
    ])
    def test_missing_field_is_named(self, payload, name):
        with pytest.raises(ConstructionError, match=f"missing field '{name}'"):
            serialize.space_from_json(payload)

    @pytest.mark.parametrize("declared", [4.5, "4", True])
    def test_declared_order_that_is_no_integer(self, tmp_path, capsys, declared):
        payload = {"kind": "quotient", "base": {"kind": "sphere", "dim": 1},
                   "action": {"generators": [{"type": "rotation", "order": 4}], "order": declared}}
        with pytest.raises(ConstructionError, match="declared group order"):
            serialize.space_from_json(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert cli.main(["construct", "--space", str(bad), "--out", str(tmp_path / "net.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_declared_order_true_is_not_one(self):
        # True == 1 in Python, so an identity-only group would match it
        with pytest.raises(ConstructionError, match="declared group order"):
            actions.action_from_json(Sphere(1), {"generators": [{"type": "identity"}], "order": True})
        assert actions.action_from_json(Sphere(1), {"generators": [{"type": "identity"}], "order": 1.0}).order == 1

    @pytest.mark.parametrize("flip", ["false", "true", 0, 1, None])
    def test_flip_that_is_no_boolean(self, tmp_path, capsys, flip):
        payload = {"kind": "quotient", "base": {"kind": "suspension", "base": {"kind": "interval", "length": 1.0}},
                   "action": {"generators": [{"type": "suspension_map", "flip": flip,
                                              "base": {"type": "reflection"}}]}}
        with pytest.raises(ConstructionError, match="flip must be true or false"):
            serialize.space_from_json(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert cli.main(["construct", "--space", str(bad), "--out", str(tmp_path / "net.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flip", [False, True])
    def test_flip_boolean_loads(self, flip):
        base = Suspension(Interval(1.0))
        act = actions.action_from_json(base, {"generators": [{"type": "suspension_map", "flip": flip}]})
        assert act.generators[0].flip is flip
        assert act.order == (2 if flip else 1)


def _edit_meta(csv, edit):
    meta_path = csv.with_suffix(".csv.json")
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))


class TestReadNetValidation:
    @pytest.fixture()
    def stored(self, tmp_path):
        net = nets.epsilon_net(Lens(2, 1.0), 0.3, 42)
        csv = tmp_path / "net.csv"
        serialize.write_net(net, csv)
        return net, csv

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
        _edit_meta(csv, lambda m: m["is_boundary"].pop())
        with pytest.raises(ConstructionError, match="boundary flags"):
            serialize.read_net(csv)

    def test_coordinate_count(self, stored):
        _, csv = stored
        _edit_meta(csv, lambda m: m["coords"]["t"].pop())
        with pytest.raises(ConstructionError, match="coordinates"):
            serialize.read_net(csv)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_coordinate_fields_disagree(self, stored, side):
        # `t` still counts n points, so only the record's own length check catches this
        _, csv = stored
        _edit_meta(csv, lambda m: m["coords"][side].pop())
        with pytest.raises(ConstructionError, match="coordinates"):
            serialize.read_net(csv)

    @pytest.mark.parametrize("edit, match", [
        (lambda m: m["coords"].pop("left"), "missing field 'left'"),
        (lambda m: m.__setitem__("coords", [1.0, 2.0]), "mistyped"),
    ])
    def test_malformed_coordinates(self, stored, edit, match):
        _, csv = stored
        _edit_meta(csv, edit)
        with pytest.raises(ConstructionError, match=match):
            serialize.read_net(csv)

    @pytest.mark.parametrize("edit, match", [
        (lambda c: c.__setitem__("t", 0.5), "join latitude coordinates must be a list of numbers"),
        (lambda c: c.__setitem__("right", [[s] for s in c["right"]]), "interval coordinates must be a list"),
        (lambda c: c["left"].__setitem__(0, [2.0]), "not a unit vector"),
    ], ids=["scalar-latitude", "interval-rows", "non-unit-sphere-row"])
    def test_coordinate_leaf_shapes(self, stored, edit, match):
        _, csv = stored
        _edit_meta(csv, lambda m: edit(m["coords"]))
        with pytest.raises(ConstructionError, match=match):
            serialize.read_net(csv)

    def test_sphere_rows_one_entry_too_wide(self, tmp_path):
        # the extra entry would leave net.point(0) off the lens's S^1 factor
        net = nets.epsilon_net(Lens(3, 1.0), 0.3, 42)
        csv = tmp_path / "lens3.csv"
        serialize.write_net(net, csv)
        _edit_meta(csv, lambda m: [row.append(0.0) for row in m["coords"]["left"]])
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
        _edit_meta(csv, lambda m: edit(m["coords"]))
        with pytest.raises(ConstructionError, match="outside"):
            serialize.read_net(csv)
        assert cli.main(["invariants", "--net", str(csv)]) == 2

    @pytest.mark.parametrize("value", ["a", [0.1, 0.2]], ids=["string", "list"])
    def test_coordinate_that_is_no_number(self, tmp_path, value):
        csv = tmp_path / "net.csv"
        serialize.write_net(nets.epsilon_net(Interval(1.0), 0.3, 42), csv)
        _edit_meta(csv, lambda m: m["coords"].__setitem__(1, value))
        with pytest.raises(ConstructionError):
            serialize.read_net(csv)
        assert cli.main(["invariants", "--net", str(csv)]) == 2

    @pytest.mark.parametrize("key, value", [
        ("n", lambda n: n + 0.5), ("n", str), ("seed", lambda seed: seed + 0.9), ("seed", lambda seed: True),
    ], ids=["n-fraction", "n-string", "seed-fraction", "seed-bool"])
    def test_count_that_is_no_integer(self, stored, capsys, key, value):
        # an n of 11.5 used to load as 11, and a seed of 42.9 as 42
        _, csv = stored
        _edit_meta(csv, lambda m: m.__setitem__(key, value(m[key])))
        with pytest.raises(ConstructionError, match="n and seed must be integers"):
            serialize.read_net(csv)
        assert cli.main(["invariants", "--net", str(csv)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("key, value", [
        ("epsilon", "0.3"), ("epsilon", True), ("epsilon_effective", "0.3"), ("epsilon_effective", True),
    ], ids=["epsilon-string", "epsilon-bool", "effective-string", "effective-bool"])
    def test_resolution_that_is_no_number(self, stored, capsys, key, value):
        # `float()` would read "0.3" as 0.3 and true as 1.0
        _, csv = stored
        _edit_meta(csv, lambda m: m.__setitem__(key, value))
        with pytest.raises(ConstructionError, match="epsilon and epsilon_effective must be numbers"):
            serialize.read_net(csv)
        assert cli.main(["invariants", "--net", str(csv)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_integral_float_counts_load(self, stored):
        net, csv = stored
        _edit_meta(csv, lambda m: m.update(n=float(m["n"]), seed=float(m["seed"])))
        loaded = serialize.read_net(csv)
        assert (loaded.n, loaded.seed) == (net.n, 42)
        assert type(loaded.seed) is int

    def test_missing_n(self, stored):
        _, csv = stored
        _edit_meta(csv, lambda m: m.pop("n"))
        with pytest.raises(ConstructionError, match="'n'"):
            serialize.read_net(csv)

    @pytest.mark.parametrize("command", [["invariants"], ["verify", "--check", "metric"],
                                         ["verify", "--check", "curvature"]],
                             ids=["invariants", "verify", "verify-curvature"])
    def test_cli_exits_2_on_a_mismatched_matrix(self, stored, capsys, command):
        net, csv = stored
        np.savetxt(csv, net.dist[:3, :3], delimiter=",", fmt="%.17g")
        assert cli.main(command + ["--net", str(csv)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def _cyclic(base, m):
    return Quotient(base, actions.cyclic_approximation(base, m))


@pytest.fixture()
def loadtxt_calls(monkeypatch):
    """The number of `np.loadtxt` calls made so far, as a one-element list."""
    calls = [0]
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        calls[0] += 1
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    return calls


class TestReplay:
    """`read_net` rebuilds a digested net from its sidecar and parses the CSV otherwise."""

    @pytest.mark.parametrize("space", [
        Lens(3, 1.0),
        Join(Interval(PI), Interval(PI)),
        ModelBall(1.0, PI / 4, 3),
        Suspension(Sphere(1, 1.0)),
        Cone(-1.0, Sphere(1, 1.0), 1.0),
        Sphere(2, 0.5),
        _cyclic(Cone(1.0, Sphere(1, 1.0), 1.0), 64),
        _cyclic(Sphere(3, 1.0), 8),
    ], ids=["lens", "join-intervals", "model-ball", "suspension", "cone", "sphere",
            "cap-z64", "s3-z8"])
    def test_replay_makes_no_loadtxt_call(self, tmp_path, loadtxt_calls, space):
        net = nets.epsilon_net(space, 0.25, 1, budget=1500, allow_degrade=True)
        csv = tmp_path / "net.csv"
        serialize.write_net(net, csv)
        assert serialize.net_to_bytes(serialize.read_net(csv)) == serialize.net_to_bytes(net)
        assert loadtxt_calls[0] == 0

    @pytest.fixture()
    def stored(self, tmp_path):
        net = nets.epsilon_net(Suspension(Sphere(1, 1.0)), 0.2, 42)
        csv = tmp_path / "net.csv"
        serialize.write_net(net, csv)
        return net, csv

    def test_edited_csv_entry_is_parsed(self, stored, loadtxt_calls):
        net, csv = stored
        D = net.dist.copy()
        D[1, 2] = 0.125
        np.savetxt(csv, D, delimiter=",", fmt="%.17g")
        loaded = serialize.read_net(csv)
        assert loadtxt_calls[0] == 1
        assert loaded.dist[1, 2] == 0.125
        assert loaded.dist.tobytes() == D.tobytes()

    @pytest.mark.parametrize("edit", [
        lambda m: m["digests"].__setitem__("matrix_sha256", "0" * 64),
        lambda m: m.pop("digests"),
        lambda m: m["coords"]["u"].__setitem__(1, 0.25),
        lambda m: m["is_boundary"].__setitem__(0, 1),
    ], ids=["stale-matrix-digest", "no-digests", "edited-coordinate", "edited-flag"])
    def test_sidecar_that_does_not_replay_is_parsed(self, stored, loadtxt_calls, edit):
        net, csv = stored
        _edit_meta(csv, edit)
        loaded = serialize.read_net(csv)
        assert loadtxt_calls[0] == 1
        assert loaded.dist.tobytes() == net.dist.tobytes()

    def test_edited_resolution_builds_no_oversized_grid(self, stored, loadtxt_calls, monkeypatch):
        net, csv = stored
        _edit_meta(csv, lambda m: m.__setitem__("epsilon_effective", 1e-4))

        def refuse(*args, **kwargs):
            raise AssertionError("built a grid whose count does not fit n")

        monkeypatch.setattr(nets, "grid_net", refuse)
        loaded = serialize.read_net(csv)
        assert loadtxt_calls[0] == 1
        assert loaded.dist.tobytes() == net.dist.tobytes()

    def test_ellipsoid_sidecar_fails_at_the_count(self, tmp_path, loadtxt_calls):
        # no net of an ellipsoid is built; a stored one stops at its no-grid count
        E = Ellipsoid(0.7, 1.0 / 3.0, 0.25)
        coords = E.pack([E.canonical_point(), -E.canonical_point()])
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        csv = tmp_path / "net.csv"
        serialize.write_net(nets.FiniteNet(E, coords, np.zeros(2, dtype=bool), D, 0.15, 0.15, 42), csv)
        with pytest.raises(ConstructionError, match="no net grid for Ellipsoid"):
            serialize.read_net(csv)
        assert loadtxt_calls[0] == 0

    @pytest.mark.parametrize("edit, parsed", [
        (lambda m: None, 0),
        (lambda m: m.pop("digests"), 1),
    ], ids=["replay", "parse"])
    def test_loaded_net_is_read_only(self, stored, loadtxt_calls, edit, parsed):
        _, csv = stored
        _edit_meta(csv, edit)
        loaded = serialize.read_net(csv)
        assert loadtxt_calls[0] == parsed
        eccentricity = loaded.eccentricity.copy()
        with pytest.raises(ValueError, match="read-only"):
            loaded.dist[0, 1] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            loaded.is_boundary[0] = True
        assert loaded.eccentricity.tobytes() == eccentricity.tobytes()

    @pytest.mark.parametrize("make", [
        lambda: nets.epsilon_net(Lens(2, 1.0), 0.3, 42),
        lambda: nets.epsilon_net(_cyclic(Sphere(3, 1.0), 8), 0.3, 42),
    ], ids=["plain", "quotient"])
    def test_csv_bytes_are_savetxt_and_digested(self, tmp_path, make):
        net = make()
        csv, ref = tmp_path / "net.csv", tmp_path / "ref.csv"
        meta_path = serialize.write_net(net, csv)
        np.savetxt(ref, net.dist, fmt="%.17g", delimiter=",")
        assert csv.read_bytes() == ref.read_bytes()
        digests = json.loads(meta_path.read_text())["digests"]
        assert digests == {
            "csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest(),
            "matrix_sha256": hashlib.sha256(net.dist.tobytes()).hexdigest(),
        }
        assert "digests" not in serialize.net_metadata(net)


class TestVerifyReplay:
    """`alexgeo verify --check replay` says whether a stored net reloads by replay."""

    @pytest.fixture()
    def csv(self, tmp_path):
        csv = tmp_path / "net.csv"
        serialize.write_net(nets.epsilon_net(Suspension(Sphere(1, 1.0)), 0.2, 42), csv)
        return csv

    def _verify(self, csv, capsys):
        rc = cli.main(["verify", "--check", "replay", "--net", str(csv)])
        return rc, capsys.readouterr().out.strip()

    def test_fresh_file_replays(self, csv, capsys, loadtxt_calls):
        rc, out = self._verify(csv, capsys)
        assert (rc, out) == (0, f"[verify:replay] n={serialize.read_net(csv).n} loaded by replay -> PASS")
        assert loadtxt_calls[0] == 0

    def test_edited_csv_is_parsed(self, csv, capsys, loadtxt_calls):
        D = np.loadtxt(csv, delimiter=",")
        D[1, 2] = 0.125
        np.savetxt(csv, D, delimiter=",", fmt="%.17g")
        rc, out = self._verify(csv, capsys)
        assert rc == 1
        assert out.endswith("loaded by parse: the CSV does not hash to its stored digest -> FAIL")
        assert loadtxt_calls[0] == 2

    def test_sidecar_without_digests_is_parsed(self, csv, capsys):
        _edit_meta(csv, lambda m: m.pop("digests"))
        rc, out = self._verify(csv, capsys)
        assert rc == 1
        assert out.endswith("loaded by parse: the sidecar has no digests -> FAIL")

    def test_source_is_the_path_read_net_takes(self, csv, loadtxt_calls):
        _edit_meta(csv, lambda m: m["digests"].__setitem__("matrix_sha256", "0" * 64))
        net, source = serialize.load_net(csv)
        assert source == "parse: the rebuilt matrix does not hash to its stored digest"
        assert loadtxt_calls[0] == 1
        assert net.dist.tobytes() == serialize.read_net(csv).dist.tobytes()

    def test_needs_a_net(self, capsys):
        assert cli.main(["verify", "--check", "replay"]) == 2
        assert "needs --net" in capsys.readouterr().err


def _savetxt_bytes(D) -> bytes:
    out = io.BytesIO()
    np.savetxt(out, D, delimiter=",", fmt="%.17g")
    return out.getvalue()


def _power_of_ten_neighbours(k_lo, k_hi):
    p = np.array([float(f"1e{k}") for k in range(k_lo, k_hi + 1)])
    return np.stack([np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)], axis=1)


class TestCsvWriter:
    """`serialize._csv_bytes`, the writer of every net CSV, gives the bytes of
    ``np.savetxt(fmt="%.17g", delimiter=",")``: fixed-notation entries by the
    exact numpy path, the rest by Python's own formatting."""

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                      elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    def test_any_matrix(self, D):
        assert serialize._csv_bytes(D) == _savetxt_bytes(D)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(26).integers(0, 2**64, 100_000, dtype=np.uint64)
        D = bits.view(np.float64).reshape(-1, 100)
        assert serialize._csv_bytes(D) == _savetxt_bytes(D)

    def test_every_fixed_exponent(self):
        # magnitudes 1e-7..1e18 with both signs, so every (sign, exponent) layout runs
        rng = np.random.default_rng(26)
        D = 10.0 ** rng.uniform(-7.0, 18.0, (1000, 100)) * rng.choice([-1.0, 1.0], (1000, 100))
        assert serialize._csv_bytes(D) == _savetxt_bytes(D)

    def test_short_decimals(self):
        # trailing zeros to strip, and integers that lose their point
        rng = np.random.default_rng(26)
        scale = 10.0 ** rng.integers(0, 6, (500, 40))
        D = np.rint(rng.uniform(-1e5, 1e5, (500, 40)) * scale) / scale
        assert serialize._csv_bytes(D) == _savetxt_bytes(D)

    def test_powers_of_ten_and_their_neighbours(self):
        D = _power_of_ten_neighbours(-6, 18)
        assert serialize._csv_bytes(D) == _savetxt_bytes(D)
        assert serialize._csv_bytes(-D) == _savetxt_bytes(-D)

    def test_ends_of_the_fixed_range(self):
        D = np.array([[0.0, -0.0, 1e-4, -1e-4, 1e16, -1e16, np.nextafter(1e-4, 0.0),
                       np.nextafter(1e16, 0.0), np.nan, np.inf, -np.inf, 5e-324]])
        assert serialize._csv_bytes(D) == _savetxt_bytes(D)

    @pytest.mark.parametrize("D", [
        np.array([[0.5]]),
        np.array([[0.0]]),
        np.array([[-3.0]]),
        np.array([[0.1, 2.5, 1e-5, 0.0, 3.141592653589793, 12.0, -7e-3]]),
    ], ids=["1x1", "1x1-zero", "1x1-negative", "one-row"])
    def test_small_shapes(self, D):
        assert serialize._csv_bytes(D) == _savetxt_bytes(D)

    def test_negative_and_tiny_entries(self):
        rng = np.random.default_rng(26)
        D = rng.normal(size=(60, 50)) * 10.0 ** rng.integers(-9, 3, (60, 50))
        assert (D < 0).any() and (np.abs(D) < 1e-4).any()
        assert serialize._csv_bytes(D) == _savetxt_bytes(D)

    @pytest.mark.parametrize("space, epsilon", [
        (Sphere(2, 0.5), 0.3),
        (Interval(1.0), 0.05),
        (Join(Interval(PI), Interval(PI)), 0.3),
        (Cone(-1.0, Sphere(1, 1.0), 1.0), 0.2),
        (Suspension(Sphere(1, 1.0)), 0.2),
        (_cyclic(Sphere(3, 1.0), 8), 0.3),
        (Lens(3, 1.0), 0.3),
        (ModelBall(1.0, PI / 4, 3), 0.2),
    ], ids=["sphere", "interval", "join", "cone", "suspension", "quotient", "lens", "model_ball"])
    def test_one_net_per_kind(self, tmp_path, space, epsilon):
        net = nets.epsilon_net(space, epsilon, 1)
        csv = tmp_path / "net.csv"
        serialize.write_net(net, csv)
        assert csv.read_bytes() == _savetxt_bytes(net.dist)

    def test_written_in_blocks_and_hashed_as_written(self, tmp_path, monkeypatch):
        net = nets.epsilon_net(Lens(3, 1.0), 0.3, 1)
        assert net.n > spaces.row_block(net.n) // 8  # more rows than one block
        blocks = []
        csv_bytes = serialize._csv_bytes
        monkeypatch.setattr(serialize, "_csv_bytes", lambda block: blocks.append(block.shape) or csv_bytes(block))

        def refuse(path):
            raise AssertionError("write_net read its CSV back")

        monkeypatch.setattr(serialize, "_file_sha256", refuse)
        csv = tmp_path / "net.csv"
        meta_path = serialize.write_net(net, csv)
        assert len(blocks) > 1 and sum(rows for rows, _ in blocks) == net.n
        assert json.loads(meta_path.read_text())["digests"]["csv_sha256"] == \
            hashlib.sha256(csv.read_bytes()).hexdigest()


class TestBadNetFiles:
    """A missing or unreadable net or descriptor file exits 2 with a message."""

    @pytest.fixture()
    def csv(self, tmp_path):
        csv = tmp_path / "net.csv"
        serialize.write_net(nets.epsilon_net(Interval(1.0), 0.3, 42), csv)
        return csv

    def _exits_2(self, capsys, argv, match):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err

    def test_missing_net(self, tmp_path, capsys):
        self._exits_2(capsys, ["invariants", "--net", str(tmp_path / "missing.csv")],
                      "cannot read net metadata")

    def test_deleted_csv(self, csv, capsys):
        csv.unlink()
        self._exits_2(capsys, ["invariants", "--net", str(csv)], "cannot read net matrix")

    def test_sidecar_not_json(self, csv, capsys):
        csv.with_suffix(".csv.json").write_text("{not json")
        self._exits_2(capsys, ["invariants", "--net", str(csv)], "is not valid JSON")

    def test_sidecar_a_json_list(self, csv, capsys):
        csv.with_suffix(".csv.json").write_text("[1, 2]")
        self._exits_2(capsys, ["invariants", "--net", str(csv)], "is not a JSON object")

    def test_csv_cell_not_a_number(self, csv, capsys):
        text = csv.read_text().split(",", 1)
        csv.write_text("abc," + text[1])
        self._exits_2(capsys, ["verify", "--check", "metric", "--net", str(csv)],
                      "is not a numeric CSV")

    def test_missing_descriptor(self, tmp_path, capsys):
        self._exits_2(capsys, ["construct", "--space", str(tmp_path / "nope.json"),
                               "--out", str(tmp_path / "net.csv")], "cannot read descriptor")

    @pytest.mark.parametrize("text, match", [("{not json", "is not valid JSON"), ('["sphere"]', "is not a JSON object")],
                             ids=["not-json", "json-list"])
    def test_descriptor_that_is_no_json_object(self, tmp_path, capsys, text, match):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        self._exits_2(capsys, ["construct", "--space", str(bad), "--out", str(tmp_path / "net.csv")],
                      f"descriptor {bad} {match}")


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
