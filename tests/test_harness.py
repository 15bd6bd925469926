"""Ellipse solver, report plumbing, catalogue wiring, CLI surface."""

import dataclasses
import json
import math
import operator
import subprocess
import sys
import types

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe

from alexgeo import cli, harness, invariants, nets, serialize, spaces
from alexgeo.errors import AlexgeoError, ConstructionError
from alexgeo.harness import (
    CATALOGUE,
    ExperimentConfig,
    emit_report,
    half_perimeter,
    run_example,
    solve_ellipse_parameter,
)

PI = math.pi
HALF_PI = math.pi / 2.0

# frozen from the complete-elliptic-integral oracle:
# 2 a E(1 - c^2/a^2) = pi/2 at c = 1/4 solved by Brent to 1e-14
A_STAR_ORACLE = 0.6965549642104465


class TestEllipseSolver:
    def test_half_perimeter_degenerates_to_circle(self):
        for a in (0.25, 0.7, 1.0 / 3.0):
            assert half_perimeter(a, a) == pytest.approx(PI * a, abs=1e-15)

    def test_half_perimeter_matches_elliptic_integral(self):
        # a below c too, where c is the major semi-axis
        for a in (1.0 / 3.0, 0.5, A_STAR_ORACLE, 0.75, 0.4, 0.55, 0.7, 0.2, 0.1, 1e-3):
            major, minor = max(a, 0.25), min(a, 0.25)
            want = 2.0 * major * ellipe(1.0 - minor**2 / major**2)
            assert half_perimeter(a, 0.25) == pytest.approx(want, abs=1e-15)
            assert half_perimeter(0.25, a) == half_perimeter(a, 0.25)

    @pytest.mark.parametrize("a", [1.0 / 3.0, 0.5, A_STAR_ORACLE, 0.75], ids=["b", "mid", "a_star", "c_over_b"])
    def test_half_perimeter_matches_arc_length_quadrature(self, a):
        # the arc length integral of (a cos t, c sin t) over half a turn, an oracle
        # that shares no step with the arithmetic-geometric mean
        want, err = quad(lambda t: math.hypot(a * math.sin(t), 0.25 * math.cos(t)), 0.0, PI,
                         epsabs=1e-13, epsrel=1e-13)
        assert half_perimeter(a, 0.25) == pytest.approx(want, abs=err)

    def test_half_perimeter_is_homogeneous(self):
        for t in (1e-3, 0.5, 7.0, 1e3):
            for a in (1.0 / 3.0, A_STAR_ORACLE, 2.0):
                assert half_perimeter(t * a, t * 0.25) == pytest.approx(t * half_perimeter(a, 0.25), rel=4e-16)

    def test_half_perimeter_between_classical_bounds(self):
        # pi (x + y) / 2 <= half perimeter <= pi sqrt((x^2 + y^2) / 2), equal on circles;
        # the flat limit 2x is below both
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(1e-3, 2.0, size=(200, 2)).tolist():
            h = half_perimeter(x, y)
            assert max(2.0 * max(x, y), PI * (x + y) / 2.0) <= h * (1.0 + 1e-15)
            assert h <= PI * math.sqrt((x * x + y * y) / 2.0) * (1.0 + 1e-15)

    def test_half_perimeter_increases_across_the_bracket(self):
        # the bisection takes the half perimeter to be increasing in a on (b, c/b)
        values = [half_perimeter(a, 0.25) for a in np.linspace(1.0 / 3.0, 0.75, 2001).tolist()]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))

    def test_half_perimeter_flat_limit(self):
        # a needle ellipse: the sum still stops, at twice the long semi-axis.  The
        # excess over 2a is below an ulp here; what is left is a0^2 - sum cancelling
        # down to about M(a0, b0), some 1e-3 of a0 at b0/a0 = 1e-300
        for ratio in (1e-8, 1e-12, 1e-300):
            assert half_perimeter(1.0, ratio) == pytest.approx(2.0, rel=1e-12)
            assert half_perimeter(ratio, 3.0) == pytest.approx(6.0, rel=1e-12)

    def test_bracket_straddles_target(self):
        assert half_perimeter(1.0 / 3.0, 0.25) < HALF_PI < half_perimeter(0.75, 0.25)

    def test_solution_hits_target_and_bounds(self):
        sol = solve_ellipse_parameter(tol=1e-10)
        assert abs(sol.half_perimeter - HALF_PI) <= 1e-8
        assert 1.0 / 3.0 < sol.a_star < 0.75
        assert sol.curvature_ok
        assert sol.a_star == pytest.approx(A_STAR_ORACLE, abs=1e-9)

    def test_bad_bracket_raises(self):
        with pytest.raises(ConstructionError):
            solve_ellipse_parameter(b=0.7, c=0.69)

    @pytest.mark.parametrize("bad", [0.0, -1.0 / 3.0, math.nan, math.inf])
    def test_bad_semi_axis_raises(self, bad):
        # at b = 0 the bracket end c/b divided by zero; below 0 the bisection
        # returned a negative a*; a NaN would never stop the mean's sum
        for call in (lambda: half_perimeter(bad, 0.25), lambda: half_perimeter(0.25, bad),
                     lambda: solve_ellipse_parameter(b=bad), lambda: solve_ellipse_parameter(c=bad)):
            with pytest.raises(ConstructionError, match="semi-axes must be positive and finite"):
                call()


class TestTipDistanceProvenance:
    """The steps of ex3_3's tip-distance provenance, checked on the tuned ellipsoid."""

    E = spaces.Ellipsoid(A_STAR_ORACLE, 1.0 / 3.0, 0.25)

    @staticmethod
    def project(points):
        # P(x, y, z) = (x, sqrt(y^2 + z^2))
        points = np.asarray(points)
        return np.column_stack([points[:, 0], np.hypot(points[:, 1], points[:, 2])])

    def test_projection_is_one_lipschitz(self):
        rng = np.random.default_rng(11)
        P, Q = (np.asarray(self.E.random_points(2000, rng)) for _ in range(2))
        moved = np.linalg.norm(self.project(P) - self.project(Q), axis=1)
        assert np.all(moved <= np.linalg.norm(P - Q, axis=1) * (1.0 + 1e-15))

    def test_projection_lands_above_the_arch(self):
        # with b >= c, x^2/a^2 + (y^2 + z^2)/c^2 >= 1 on the surface
        X = self.project(self.E.random_points(2000, np.random.default_rng(12)))
        assert np.all((X[:, 0] / self.E.a) ** 2 + (X[:, 1] / self.E.c) ** 2 >= 1.0 - 1e-12)

    def test_the_xz_cross_section_joins_the_tips_on_the_surface(self):
        t = np.linspace(0.0, PI, 257)
        arch = np.column_stack([self.E.a * np.cos(t), np.zeros_like(t), self.E.c * np.sin(t)])
        self.E.check_coords(arch)
        steps = np.linalg.norm(np.diff(arch, axis=0), axis=1).sum()
        # the inscribed polygon falls short of the arch length by O(1/n^2)
        assert steps < half_perimeter(self.E.a, self.E.c) < steps + 1e-5


class TestReports:
    def test_unknown_id_rejected_lists_catalogue(self):
        with pytest.raises(ConstructionError, match="ex3_1"):
            ExperimentConfig(example_id="nope")

    def test_report_round_trip(self, tmp_path):
        rep = run_example("ex3_2")
        path = tmp_path / "rep.json"
        emit_report(rep, path)
        loaded = json.loads(path.read_text())
        assert loaded["pass"] is True
        assert loaded["config"]["example_id"] == "ex3_2"
        assert loaded["records"][0]["provenance"]
        # rewriting yields the same structure
        emit_report(rep, tmp_path / "rep2.json")
        assert json.loads((tmp_path / "rep2.json").read_text()) == loaded

    def test_records_identical_across_reruns(self):
        r1 = run_example("ex3_2")
        r2 = run_example("ex3_2")
        a = serialize.stable_dumps([r.to_json() for r in r1.records])
        b = serialize.stable_dumps([r.to_json() for r in r2.records])
        assert a == b

    def test_empty_record_list_serializes(self, tmp_path):
        rep = harness.ExperimentReport(config={"example_id": "ex3_2"}, records=[])
        path = emit_report(rep, tmp_path / "empty.json")
        loaded = json.loads(path.read_text())
        assert loaded["records"] == [] and loaded["pass"] is True

    def test_catalogue_is_complete(self):
        assert set(CATALOGUE) == {
            "ex3_1", "ex3_2", "ex3_3", "ex3_4", "ex3_5", "ex3_6", "ex3_7",
            "ex3_8", "ex3_9", "lens_volume", "cone_rigidity", "ball_convexity",
            "join_reassoc",
        }

    def test_dim_selector(self):
        for dim, kept, dropped in ((2, "susp", "S^1(1)"), (3, "S^1(1)", "susp")):
            rep = run_example("ex3_4", ExperimentConfig(example_id="ex3_4", dim=dim))
            names = [r.name for r in rep.records]
            assert len(names) == 3, names  # one radius record and one net's two audit records
            assert any(kept in n for n in names)
            assert not any(dropped in n for n in names)


def _record(example_id, name):
    (rec,) = [r for r in run_example(example_id).records if r.name == name]
    return rec


class TestOraclesCanFail:
    """The batched embedding oracles fail on a planted error in either distance path."""

    def test_planted_error_in_the_join_formula(self, monkeypatch):
        formula = spaces.Join.formula
        monkeypatch.setattr(spaces.Join, "formula",
                            lambda self, A, B, cross: formula(self, A, B, cross) + 1e-9)
        rec = _record("join_reassoc", "circle join vs round 3-sphere")
        assert not rec.passed
        assert rec.observed == pytest.approx(1e-9, rel=1e-3)

    def test_planted_error_in_scalar_join_distance(self, monkeypatch):
        join_distance = spaces.Join.distance
        monkeypatch.setattr(spaces.Join, "distance", lambda self, p, q: join_distance(self, p, q) + 1e-9)
        rec = _record("join_reassoc", "circle join vs round 3-sphere")
        assert not rec.passed
        assert rec.observed == pytest.approx(1e-9, rel=1e-3)


@pytest.fixture(scope="module")
def catalogue():
    """`run_all` at seed 42: ({entry id: the JSON of its records}, {entry id: its `nets.epsilon_net` calls})."""
    built, running = {}, []
    epsilon_net, run_example_ = nets.epsilon_net, harness.run_example

    def counted_net(*args, **kwargs):
        built[running[-1]] = built.get(running[-1], 0) + 1
        return epsilon_net(*args, **kwargs)

    def tracked_run_example(example_id, *args, **kwargs):
        running.append(example_id)
        return run_example_(example_id, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nets, "epsilon_net", counted_net)
        mp.setattr(harness, "run_example", tracked_run_example)
        reports = harness.run_all(seed=42)
    return {rep.config["example_id"]: [r.to_json() for r in rep.records] for rep in reports}, built


RECORD_COUNTS = {
    "ex3_1": 8, "ex3_2": 1, "ex3_3": 6, "ex3_4": 6, "ex3_5": 6, "ex3_6": 6, "ex3_7": 6,
    "ex3_8": 6, "ex3_9": 6, "lens_volume": 7, "cone_rigidity": 7, "ball_convexity": 8,
    "join_reassoc": 4,
}

# the thresholds that judge the fifteen checks which used to print tolerance
# 0.0; the edge-spine dual pair is now two records, one per threshold
PRINTED_THRESHOLDS = {
    ("ex3_1", "antipodal dual pair on S^2(1/2)"): 3 * 0.05,
    ("ex3_5", "edge set nonempty and touches boundary flags"): 0.47637940058281447,
    ("ex3_5", "spine contains the soul"): 0.47637940058281447,
    ("ex3_6", "soul lies in the spine"): 0.4828819500584811,
    ("ex3_7", "edge-spine dual pair (latitude slices): pair defect"): 1e-12,
    ("ex3_7", "edge-spine dual pair (latitude slices): decomposition defect"): 0.7243229250877217,
    ("ex3_8", "diagonal action passes the isometry audit (order 8 spot check)"): 1e-9,
    ("ex3_8", "rad (cap/Z_m) below pi/2 plus resolution"): 0.1,
    **{("ball_convexity", f"k={k} ball {check}"): 1e-3
       for k in ("-1", "0", "1") for check in ("convex at its own profile", "rejects an inflated profile")},
    **{("ball_convexity", f"lens faces fail every positive profile (n={n})"): 1e-3 for n in (2, 3)},
}

RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt}


class TestCheckRecords:
    def test_record_count_per_entry(self, catalogue):
        assert {eid: len(recs) for eid, recs in catalogue[0].items()} == RECORD_COUNTS

    def test_one_audit_record_pair_per_net(self, catalogue):
        records, built = catalogue
        assert built == {"ex3_1": 2, "ex3_4": 2, "ex3_5": 1, "ex3_6": 1, "ex3_7": 1,
                         "ex3_8": 1, "ex3_9": 1}
        for eid, recs in records.items():
            for audit in ("triangle defect", "symmetry and diagonal defect"):
                count = sum(r["name"].endswith(f": metric audit ({audit})") for r in recs)
                assert count == built.get(eid, 0), (eid, audit)

    def test_pass_follows_from_the_printed_fields(self, catalogue):
        judged = 0
        for recs in catalogue[0].values():
            for r in recs:
                if r["expected"] == "pass":  # a flag: the verdict of a named rule
                    continue
                if isinstance(r["expected"], str):
                    relation, bound = r["expected"].split()
                    passed = RELATIONS[relation](r["observed"], float(bound))
                else:
                    passed = abs(r["expected"] - r["observed"]) <= r["tolerance"]
                assert passed == r["pass"], r
                judged += 1
        assert judged == sum(RECORD_COUNTS.values()) - 11

    def test_formerly_hidden_thresholds_are_printed(self, catalogue):
        printed = {(eid, r["name"]): r["tolerance"] for eid, recs in catalogue[0].items() for r in recs}
        assert len(PRINTED_THRESHOLDS) == 16
        for key, tol in PRINTED_THRESHOLDS.items():
            assert printed[key] == pytest.approx(tol, rel=1e-12, abs=0.0), key

    def test_empty_edge_set_fails_the_spine_records(self, monkeypatch):
        monkeypatch.setattr(invariants, "edge_set",
                            lambda net, soul, tol=None: invariants.IndexSetResult(np.array([], dtype=int)))
        for eid, name in (("ex3_5", "spine contains the soul"), ("ex3_6", "soul lies in the spine")):
            records = run_example(eid).records
            assert len(records) == RECORD_COUNTS[eid]
            (rec,) = [r for r in records if r.name == name]
            assert not rec.passed and rec.observed == "fail"

    def test_tip_distance_is_the_half_perimeter_at_a_star(self, catalogue):
        (rec,) = [r for r in catalogue[0]["ex3_3"] if r["name"].startswith("tip distance")]
        sol = solve_ellipse_parameter(tol=1e-10)
        assert rec["observed"] == half_perimeter(sol.a_star, 0.25) and rec["pass"]
        assert (rec["expected"], rec["tolerance"]) == (HALF_PI, 1e-8)
        assert "diameter" not in rec["name"] + rec["provenance"]

    def test_tip_distance_fails_under_a_wrong_a_star(self, monkeypatch):
        # the solver reports a* + 1e-6 with its old half-perimeter: only the
        # record that reads the tips of that ellipsoid can see it
        sol = solve_ellipse_parameter(tol=1e-10)
        monkeypatch.setattr(harness, "solve_ellipse_parameter",
                            lambda tol: dataclasses.replace(sol, a_star=sol.a_star + 1e-6))
        failed = [r.name for r in run_example("ex3_3").records if not r.passed]
        assert failed == ["tip distance d((a*, 0, 0), (-a*, 0, 0))"]

    def test_run_all_has_no_thread_pool(self):
        with pytest.raises(AlexgeoError, match="workers"):
            harness.run_all(workers=2)


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "alexgeo.cli", *args], capture_output=True, text=True
    )


class TestCli:
    def test_example_usage_error_lists_catalogue(self):
        res = _cli("example")
        assert res.returncode == 2
        assert "ex3_4" in res.stderr and "lens_volume" in res.stderr

    def test_single_example_exit_code_and_report(self, tmp_path):
        out = tmp_path / "rep.json"
        res = _cli("example", "--id", "ex3_2", "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert json.loads(out.read_text())["pass"] is True

    def test_report_does_not_depend_on_its_path(self, tmp_path, monkeypatch):
        # with the clock stopped, two --out paths must get the same bytes
        monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        paths = [tmp_path / "a.json", tmp_path / "elsewhere" / "b.json"]
        paths[1].parent.mkdir()
        for path in paths:
            assert cli.main(["example", "--id", "lens_volume", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_construct_invariants_verify_round_trip(self, tmp_path):
        space = tmp_path / "lens.json"
        space.write_text(json.dumps({"kind": "lens", "dim": 2, "alpha": 2.0}))
        csv = tmp_path / "net.csv"
        res = _cli("construct", "--space", str(space), "--epsilon", "0.08",
                   "--out", str(csv))
        assert res.returncode == 0, res.stderr
        res = _cli("invariants", "--net", str(csv), "--out", str(tmp_path / "inv.json"))
        assert res.returncode == 0, res.stderr
        payload = json.loads((tmp_path / "inv.json").read_text())
        assert payload["radius"] == pytest.approx(HALF_PI, abs=0.16)
        for check in ("metric", "curvature"):
            res = _cli("verify", "--check", check, "--net", str(csv))
            assert res.returncode == 0, res.stderr
            assert f"[verify:{check}]" in res.stdout and "PASS" in res.stdout

    @pytest.mark.parametrize("check", ["metric", "curvature"])
    def test_verify_seed_reaches_the_matrix_audits(self, tmp_path, capsys, check):
        # 748 points: both audits sample, the metric audit above 600 points
        csv = tmp_path / "net.csv"
        serialize.write_net(nets.epsilon_net(spaces.Lens(3, 1.0), 0.2, 0), csv)
        net = serialize.read_net(csv)
        audit = nets.verify_metric if check == "metric" else nets.verify_curvature
        witnesses = set()
        for seed in (0, 7):
            assert cli.main(["verify", "--check", check, "--net", str(csv), "--seed", str(seed)]) == 0
            expected = audit(net, seed=seed)
            assert not expected.exhaustive
            assert f"witness={expected.witness} " in capsys.readouterr().out
            witnesses.add(expected.witness)
        assert len(witnesses) == 2

    def test_verify_checks_and_options(self, capsys):
        parser = cli.build_parser()
        for check in ("metric", "curvature", "replay", "convexity", "trace"):
            assert parser.parse_args(["verify", "--check", check]).check == check
        for argv in (["--check", "hinge"], ["--check", "metric", "--hinges", "5"],
                     ["--check", "metric", "--epsilon", "0.1"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["verify"] + argv)
        assert "--check {metric,curvature,replay,convexity,trace}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--check", "metric"],
        ["--check", "curvature"],
        ["--check", "convexity"],
        ["--check", "convexity", "--space", "{lens}", "--probes", "0"],
        ["--check", "trace", "--step", "0"],
        ["--check", "trace", "--paths", "0"],
        ["--check", "trace", "--paths", "-3"],
    ], ids=["metric-no-net", "curvature-no-net", "convexity-no-space", "probes-0", "step-0",
            "paths-0", "paths-negative"])
    def test_verify_rejects_what_it_cannot_run(self, tmp_path, capsys, argv):
        lens = tmp_path / "lens.json"
        lens.write_text(json.dumps({"kind": "lens", "dim": 2, "alpha": 2.0}))
        assert cli.main(["verify"] + [a.format(lens=lens) for a in argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    def test_construct_on_an_ellipsoid_exits_2(self, tmp_path):
        space = tmp_path / "ellipsoid.json"
        space.write_text(json.dumps({"kind": "ellipsoid", "a": 0.7, "b": 1.0 / 3.0, "c": 0.25}))
        res = _cli("construct", "--space", str(space), "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "error: no net grid for Ellipsoid: it has no closed-form distance\n"
        assert not (tmp_path / "x.csv").exists()

    def test_import_loads_no_scipy(self):
        code = ("import sys, alexgeo, alexgeo.cli, alexgeo.harness; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"

    def test_capacity_error_surfaces(self, tmp_path):
        space = tmp_path / "lens3.json"
        space.write_text(json.dumps({"kind": "lens", "dim": 3, "alpha": 1.0}))
        res = _cli("construct", "--space", str(space), "--epsilon", "0.05",
                   "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2
        assert "budget" in res.stderr
