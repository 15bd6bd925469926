"""Ellipse solver, report plumbing, catalogue wiring, CLI surface."""

import json
import math
import operator
import subprocess
import sys
import types

import numpy as np
import pytest
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
        assert half_perimeter(0.25, 0.25) == pytest.approx(PI * 0.25, abs=1e-12)

    def test_half_perimeter_matches_elliptic_integral(self):
        for a in (0.4, 0.55, 0.7):
            want = 2.0 * a * ellipe(1.0 - 0.25**2 / a**2)
            assert half_perimeter(a, 0.25) == pytest.approx(want, abs=1e-10)

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
    "ex3_1": 8, "ex3_2": 1, "ex3_3": 8, "ex3_4": 6, "ex3_5": 6, "ex3_6": 6, "ex3_7": 6,
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
        assert built == {"ex3_1": 2, "ex3_3": 1, "ex3_4": 2, "ex3_5": 1, "ex3_6": 1, "ex3_7": 1,
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

    def test_capacity_error_surfaces(self, tmp_path):
        space = tmp_path / "lens3.json"
        space.write_text(json.dumps({"kind": "lens", "dim": 3, "alpha": 1.0}))
        res = _cli("construct", "--space", str(space), "--epsilon", "0.05",
                   "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2
        assert "budget" in res.stderr
