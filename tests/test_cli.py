import argparse
import hashlib
import json
import os
import shlex

import pytest

from algdeg import cli, spinmx
from algdeg.canon import (
    Bases, ProjectivePoint, basis_Mstar, basis_MstarP, eta, intersection_table,
)
from algdeg.exactla import Subspace
from algdeg.cli import main
from algdeg.gfield import make_field
from algdeg.report import Report
from algdeg.structvec import StructureVector


def run(argv):
    return main(argv)


def test_dims_table(capsys):
    assert run(["dims", "--n", "3", "--field", "3"]) == 0
    out = capsys.readouterr().out
    for d in (18, 9, 6, 12, 24, 21, 15):
        assert f"dim {d:>4}" in out


def test_dims_rejects_n2():
    with pytest.raises(SystemExit) as exc:
        run(["dims", "--n", "2", "--field", "3"])
    assert exc.value.code == 2


def test_field_spec_rejects_junk():
    with pytest.raises(SystemExit) as exc:
        run(["dims", "--n", "3", "--field", "q"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["dims", "--n", "3", "--field", "4"])
    assert exc.value.code == 2


def test_canon_list_is_rejected():
    # `algdeg dims` is the one dimension-table command
    with pytest.raises(SystemExit) as exc:
        run(["canon", "--list", "--n", "3", "--field", "3"])
    assert exc.value.code == 2


def test_canon_check_intersections():
    assert run(["canon", "--n", "3", "--field", "5"]) == 0


def test_spin_eta_expect_U(capsys):
    assert run(["spin", "--vector", "eta", "--n", "3", "--field", "5",
                "--expect", "U"]) == 0
    assert "dim 6" in capsys.readouterr().out


@pytest.mark.parametrize("vector", ["unit000", "eps0", "unit999"])
def test_spin_rejects_index_outside_range(vector):
    assert run(["spin", "--vector", vector, "--n", "3", "--field", "3"]) == 2


@pytest.mark.parametrize("vector", ["eps", "epst", "eps~", "unit1a2"])
def test_spin_refuses_a_malformed_vector_name_by_name(vector, capsys):
    assert run(["spin", "--vector", vector, "--n", "3", "--field", "3"]) == 2
    assert f"unknown vector name {vector!r}" in capsys.readouterr().err


def test_spin_json_vector_must_match_field_and_n():
    argv = ["spin", "--n", "3", "--field", "3", "--expect", "U", "--vector"]
    assert run(argv + [json.dumps(eta(make_field(3), 3).to_json())]) == 0
    assert run(argv + [json.dumps(eta(make_field(5), 3).to_json())]) == 2
    assert run(argv + [json.dumps(eta(make_field(3), 4).to_json())]) == 2


def test_spin_json_vector_rejects_raw_codes_outside_the_field():
    gf9 = make_field(3, 2)
    payload = eta(gf9, 3).to_json()
    argv = ["spin", "--n", "3", "--field", "3^2", "--vector"]
    assert run(argv + [json.dumps(payload)]) == 0
    for bad in (-1, 9, 12, 1.5, "1"):
        payload["coords"][5] = bad
        assert run(argv + [json.dumps(payload)]) == 2


@pytest.mark.parametrize("payload", [
    {"n": 3},
    {"n": 3, "field": 5, "coords": []},
    {"n": "3", "field": {"char": 5}, "coords": []},
    {"n": 3, "field": {"char": "5"}, "coords": []},
    {"n": 3, "field": {"char": 3, "degree": 2, "modulus": 1}, "coords": []},
    {"n": 3, "field": {"char": 5}, "coords": 0},
    {"n": 3, "field": {"char": 0}, "coords": [[1]] * 27},
])
def test_spin_json_vector_of_the_wrong_shape_is_a_usage_error(payload, capsys):
    assert run(["spin", "--n", "3", "--field", "5", "--vector", json.dumps(payload)]) == 2
    assert "internal error" not in capsys.readouterr().err


def test_spin_wrong_expectation_fails():
    assert run(["spin", "--vector", "eta", "--n", "3", "--field", "5",
                "--expect", "N"]) == 1


@pytest.mark.parametrize("name", ["MstarP:1", "Mstar(1)", "MstarP:x,1"])
def test_spin_malformed_point_is_a_usage_error_before_any_spin(name, monkeypatch, capsys):
    def no_spin(*args):
        raise AssertionError("spun before the expectation was resolved")

    monkeypatch.setattr(spinmx, "spin", no_spin)
    assert run(["spin", "--n", "3", "--field", "3", "--vector", "unit123",
                "--expect", name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(name) in err and "internal error" not in err


def test_survey_mstar(tmp_path):
    path = tmp_path / "survey.json"
    assert run(["--json", str(path), "survey", "--module", "Mstar",
                "--n", "3", "--field", "3"]) == 0
    data = json.loads(path.read_text())
    dims = data["claims"][0]["data"]["dims"]
    assert dims == [0, 3, 3, 3, 3, 6]


def test_survey_mstar_over_gf9_is_its_closed_form(tmp_path):
    # GF(9) rows are lists, so this runs the survey's composition factors and
    # covers on list rows: 0, M* and its ten projective pieces
    path = tmp_path / "survey.json"
    assert run(["--json", str(path), "survey", "--module", "Mstar",
                "--n", "3", "--field", "3^2"]) == 0
    members = [Subspace.from_json(m) for m in json.loads(path.read_text())["claims"][0]
               ["data"]["members"]]
    ctx = make_field(3, 2)
    pieces = {basis_MstarP(ctx, 3, p) for p in ProjectivePoint.enumerate(ctx)}
    assert len(pieces) == 10
    assert members[0].dim == 0 and members[-1] == basis_Mstar(ctx, 3)
    assert len(members) == 12 and set(members[1:-1]) == pieces


def test_survey_of_k_at_n4_over_gf3_needs_no_carrier_cap(tmp_path):
    # 3^24 vectors in the carrier; the cover walk finds 0, M*(1,-1), U and K
    path = tmp_path / "survey.json"
    assert run(["--json", str(path), "survey", "--module", "K",
                "--n", "4", "--field", "3"]) == 0
    data = json.loads(path.read_text())
    assert data["config"] == {"field": "3", "module": "K", "n": 4}
    assert len(data["claims"][0]["data"]["members"]) == 4


def test_survey_records_its_seed_and_passes_none(monkeypatch, tmp_path):
    seen = []
    survey = spinmx.survey_submodules
    monkeypatch.setattr(spinmx, "survey_submodules",
                        lambda *a, **kw: seen.append((len(a), kw)) or survey(*a, **kw))
    path = tmp_path / "r.json"
    assert run(["--json", str(path), "survey", "--module", "U", "--n", "3", "--field", "3",
                "--seed", "7"]) == 0
    assert seen == [(1, {})]
    assert json.loads(path.read_text())["seed"] == 7


# (command, exit code): each one reaches the random kernel-vector test, the
# semilinear module being ungraded and each GF(2) factor having one torus class
SEED_FREE_COMMANDS = [
    ("gamma --n 3 --field 2^3", 0),
    ("gamma --n 4 --field 2^2", 0),
    ("series --n 3 --field 2 --chain 0,K,C", 1),
]


@pytest.mark.parametrize("command,code", SEED_FREE_COMMANDS)
def test_kernel_vector_verdicts_do_not_move_with_the_seed(command, code, tmp_path, capsys):
    reports, outs = [], []
    for seed in (1, 2):
        path = tmp_path / f"seed{seed}.json"
        assert run(["--no-timing", "--json", str(path), "--seed", str(seed)]
                   + command.split()) == code
        data = json.loads(path.read_text())
        assert data.pop("seed") == seed
        reports.append(data)
        outs.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert outs[0] == outs[1]


def test_series_certified():
    assert run(["series", "--chain", "0,Mstar(1,-1),U,K",
                "--n", "4", "--field", "3"]) == 0


def test_series_reports_reducible_first_factor(capsys):
    # over GF(4) at n = 3 the chain 0 < U < N < C starts with a reducible factor
    assert run(["series", "--chain", "0,U,N,C", "--n", "3", "--field", "2^2"]) == 1
    out = capsys.readouterr().out
    assert "factor 0: dim 6 -> reducible" in out


def test_series_with_a_reducible_factor_is_falsified_even_if_another_is_inconclusive(
        tmp_path, monkeypatch, capsys):
    # M* (dim 6) gets the real test, which finds a witness, and Lambda/M*
    # (dim 21) is given an inconclusive verdict
    real = spinmx.norton_irreducible

    def stub(handle):
        if handle.label == "factor1":
            return spinmx.NortonResult("inconclusive", None, None)
        res = real(handle)
        assert res.verdict == "reducible"
        return res

    monkeypatch.setattr(spinmx, "norton_irreducible", stub)
    path = tmp_path / "r.json"
    assert run(["--json", str(path), "--no-timing", "series", "--chain", "0,Mstar,Lambda",
                "--n", "3", "--field", "5"]) == 1
    out = capsys.readouterr().out
    assert "factor 0: dim 6 -> reducible" in out
    assert "factor 1: dim 21 -> inconclusive" in out
    claim = json.loads(path.read_text())["claims"][0]
    assert claim["status"] == "falsified"
    assert not claim["data"]["certified"] and not claim["data"]["conclusive"]


def test_lattice_gf5():
    assert run(["lattice", "--n", "3", "--field", "5"]) == 0


def test_degen_q():
    assert run(["degen", "q", "--lambda", "eta", "--q", "1,1,2",
                "--n", "3", "--field", "5"]) == 0


def test_degen_q_needs_weights():
    assert run(["degen", "q", "--lambda", "eta", "--n", "3", "--field", "5"]) == 2


@pytest.mark.parametrize("mode, lam", [("reach-eta", "eta"), ("reach-delta", "delta")])
def test_degen_refuses_weights_outside_mode_q(mode, lam, capsys):
    # a reach ignores the weights, so taking them would record a setting that
    # did nothing; without --q each command exits 0
    assert run(["degen", mode, "--lambda", lam, "--q", "1,2,3",
                "--n", "3", "--field", "5"]) == 2
    assert "--q applies to mode 'q' only" in capsys.readouterr().err


def test_degen_reach_eta():
    assert run(["degen", "reach-eta", "--lambda", "eta",
                "--n", "3", "--field", "5"]) == 0


def test_degen_reach_delta():
    assert run(["degen", "reach-delta", "--lambda", "delta",
                "--n", "3", "--field", "5"]) == 0


def test_gamma_gf4():
    assert run(["gamma", "--n", "3", "--field", "2^2"]) == 0


def test_gamma_skips_odd_char(capsys):
    assert run(["gamma", "--n", "3", "--field", "5"]) == 0
    assert "skipped" in capsys.readouterr().out


def test_gf2_claims_skipped(capsys):
    assert run(["canon", "--n", "3", "--field", "2"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out


def test_report_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["--json", str(path), "--no-timing", "canon",
                    "--n", "3", "--field", "5"]) == 0
    assert a.read_text() == b.read_text()


def test_report_is_one_line_from_the_c_encoder(tmp_path, monkeypatch):
    if json.encoder.c_make_encoder is None:
        pytest.skip("this interpreter has no C JSON encoder")

    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("the report went through the pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    r = Report("canon", {"n": 3, "field": "5"}, 0)
    r.timed(intersection_table, Bases(make_field(5), 3))
    text = r.dumps()
    assert text == json.dumps(r.to_json(), sort_keys=True, separators=(",", ":"))
    assert "\n" not in text
    assert json.loads(text) == r.to_json()
    assert json.loads(r.dumps(with_timing=False)) == r.to_json(with_timing=False)
    path = tmp_path / "r.json"
    r.write(path)
    assert path.read_text() == text + "\n"


def test_report_exit_codes():
    r = Report("x", {}, 0)
    r.add({"id": "a", "anchor": "x", "status": "verified", "data": {}})
    assert r.exit_code == 0
    r.add({"id": "b", "anchor": "x", "status": "inconclusive", "data": {}})
    assert r.exit_code == 3
    r.add({"id": "c", "anchor": "x", "status": "falsified", "data": {}})
    assert r.exit_code == 1
    with pytest.raises(ValueError):
        r.add({"id": "d", "anchor": "x", "status": "nope"})


def test_verify_all_default_grid():
    # the default grid is the product's own acceptance run (small sample count)
    assert run(["verify-all", "--samples", "2"]) == 0


def test_report_schema_round_trip(tmp_path):
    path = tmp_path / "r.json"
    assert run(["--json", str(path), "dims", "--n", "3", "--field", "5"]) == 0
    data = json.loads(path.read_text())
    assert data["schema"] == "algdeg-report/2"
    assert data["tool"] == "algdeg"
    assert {"id", "anchor", "status", "data"} <= set(data["claims"][0])
    _assert_one_timing_record_per_claim(data)


def test_verify_all_ids_unique_and_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["--json", str(path), "--no-timing",
                    "verify-all", "--samples", "2"]) == 0
    assert a.read_text() == b.read_text()
    data = json.loads(a.read_text())
    ids = [c["id"] for c in data["claims"]]
    assert len(ids) == len(set(ids))


def test_inconclusive_norton_verdict_is_not_falsified(tmp_path, monkeypatch):
    # with no draws the kernel-vector test gives up on the quotient by M**,
    # 15-dimensional over GF(25), while its dimension check holds; at a line
    # cap of 0 the weight-space test declines and hands over to the draws
    monkeypatch.setattr(spinmx, "NORTON_ATTEMPTS", 0)
    monkeypatch.setattr(spinmx, "LINE_CAP", 0)
    path = tmp_path / "r.json"
    assert run(["--json", str(path), "--no-timing", "verify-all", "--n-list", "3",
                "--fields", "5^2", "--seed", "130520985369857"]) == 3
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    claim = claims["n3.q5^2.LambdaOverMss.irr"]
    assert claim["status"] == "inconclusive"
    assert claim["data"] == {"verdict": "inconclusive", "dim": 15}


def test_gf25_seed_once_inconclusive_now_verifies(tmp_path):
    # without shifts all 64 draws at this seed were nonsingular, and the
    # verdict was inconclusive (exit 3)
    path = tmp_path / "r.json"
    assert run(["--json", str(path), "--no-timing", "verify-all", "--n-list", "3",
                "--fields", "5^2", "--seed", "130520985369857"]) == 0
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    assert claims["n3.q5^2.LambdaOverMss.irr"]["status"] == "verified"


def _rebind_everywhere(monkeypatch, orig, wrapper):
    """Rebind every algdeg global bound to `orig`, so a call through a name
    imported into another module reaches `wrapper` too."""
    import sys

    for name, m in list(sys.modules.items()):
        if m is not None and (name == "algdeg" or name.startswith("algdeg.")):
            for key, value in list(vars(m).items()):
                if value is orig:
                    monkeypatch.setattr(m, key, wrapper)


def _count_basis_builds(monkeypatch):
    """Count each canon.basis_* call, per projective point for basis_MstarP."""
    from collections import Counter

    from algdeg import canon

    calls = Counter()
    for name in [n for n in vars(canon) if n.startswith("basis_")]:
        orig = getattr(canon, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[(_name,) + tuple(repr(a) for a in args[2:])] += 1
            return _orig(*args, **kwargs)

        _rebind_everywhere(monkeypatch, orig, counted)
    return calls


def test_verify_all_cell_builds_each_basis_once(monkeypatch, capsys):
    calls = _count_basis_builds(monkeypatch)
    assert run(["verify-all", "--n-list", "4", "--fields", "5", "--samples", "2"]) == 0
    capsys.readouterr()
    assert {key[0] for key in calls} >= {"basis_C", "basis_K", "basis_Mstar", "basis_U",
                                         "basis_MstarP"}
    assert max(calls.values()) == 1, calls


def test_verify_all_grid_claims_are_its_cells_claims_in_order(tmp_path, capsys):
    def claims(grid):
        path = tmp_path / "r.json"
        assert run(["--json", str(path), "--no-timing", "verify-all", "--samples", "2",
                    "--seed", "5"] + grid) == 0
        return json.loads(path.read_text())["claims"]

    joined = [c for f in ("3", "5") for n in ("3", "4")
              for c in claims(["--n-list", n, "--fields", f])]
    assert claims(["--n-list", "3,4", "--fields", "3,5"]) == joined
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify-all", "--n-list", "3", "--fields", "5", "--samples", "2", "--seed", "3"],
    ["dims", "--n", "4", "--field", "5"],
    ["series", "--chain", "0,U,K", "--n", "3", "--field", "5"],
    ["lattice", "--n", "3", "--field", "2^2", "--seed", "2"],
])
def test_repeated_main_calls_share_one_parser_and_write_identical_reports(
        argv, tmp_path, monkeypatch, capsys):
    builds = []
    build_parser = cli.build_parser

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["--no-timing", "--json", str(path)] + argv) == 0
    capsys.readouterr()
    assert len(builds) == 1
    assert a.read_bytes() == b.read_bytes()


def test_unwritable_report_path_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    assert run(["dims", "--n", "3", "--field", "3", "--json", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "internal error" not in err
    assert not path.exists()


def test_a_missing_report_folder_is_refused_before_the_command_runs(tmp_path, monkeypatch,
                                                                     capsys):
    path = tmp_path / "missing" / "r.json"

    def never(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_dims", never)
    assert run(["dims", "--n", "3", "--field", "3", "--json", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: cannot write the report: "
                   f"[Errno 2] No such file or directory: {str(path)!r}\n")


def test_an_empty_report_path_is_refused_before_the_command_runs(monkeypatch, capsys):
    def never(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_dims", never)
    assert run(["dims", "--n", "3", "--field", "3", "--json", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot write the report: [Errno 2] No such file or directory: ''\n"


def test_internal_error_exits_4(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_dims", crash)
    assert run(["dims", "--n", "3", "--field", "3"]) == 4
    assert "RuntimeError: boom" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["degen", "reach-eta", "--n", "3", "--field", "5", "--lambda", "eta"],
    ["verify-all", "--n-list", "3", "--fields", "5", "--samples", "2"],
])
def test_pipeline_disagreeing_with_its_closed_form_is_an_internal_error(
        argv, monkeypatch, capsys):
    from algdeg import degen
    closed_form = degen._g5_closed_form

    def one_coordinate_off(lam, spec):
        coords = list(closed_form(lam, spec).coords)
        coords[0] = lam.ctx.add(coords[0], lam.ctx.one())
        return StructureVector(lam.ctx, lam.n, coords)

    monkeypatch.setattr(degen, "_g5_closed_form", one_coordinate_off)
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert "closed form disagree" in err and "internal error" in err


@pytest.mark.parametrize("argv", [
    ["gamma", "--n", "3", "--field", "2^2"],
    ["verify-all", "--n-list", "3", "--fields", "2^2", "--samples", "2"],
    ["lattice", "--n", "3", "--field", "5"],
])
def test_each_command_builds_one_generator_set(argv, monkeypatch, capsys):
    calls = []
    orig = spinmx.standard_generators

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    _rebind_everywhere(monkeypatch, orig, counted)
    assert run(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1, calls


def test_verify_all_timing_keys_are_claim_ids(tmp_path):
    path = tmp_path / "r.json"
    assert run(["--json", str(path), "verify-all", "--fields", "3,5", "--samples", "2"]) == 0
    data = json.loads(path.read_text())
    _assert_one_timing_record_per_claim(data)


def _assert_one_timing_record_per_claim(data):
    timed = [cid for record in data["timing"] for cid in record["claims"]]
    assert sorted(timed) == sorted(c["id"] for c in data["claims"])
    assert all(record["seconds"] >= 0 for record in data["timing"])


def test_verify_all_rejects_samples_below_one():
    with pytest.raises(SystemExit) as exc:
        run(["verify-all", "--n-list", "3", "--fields", "5", "--samples", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("grid", [["--n-list", "3,3", "--fields", "3"],
                                  ["--n-list", "3", "--fields", "3,3^1"],
                                  ["--n-list", "3,4,3", "--fields", "5"]])
def test_verify_all_rejects_repeated_grid_entries(grid):
    with pytest.raises(SystemExit) as exc:
        run(["verify-all"] + grid)
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lattice_gf25_falsifies_nothing(tmp_path, seed):
    # a Norton verdict may come out inconclusive (exit 3), never falsified
    path = tmp_path / "r.json"
    assert run(["--json", str(path), "--no-timing", "lattice", "--n", "3",
                "--field", "5^2", "--seed", str(seed)]) in (0, 3)
    claims = json.loads(path.read_text())["claims"]
    assert claims and all(c["status"] != "falsified" for c in claims)


# n = 3 vectors over GF(3) as --lambda JSON: 112 + 121 + 211 and 112 + 2*122 + 2*212
GF3_LAMBDA = '{"n":3,"field":{"char":3,"degree":1},"coords":[%s]}'
GF3_ZERO = GF3_LAMBDA % ",".join("0101000001" + "0" * 17)
GF3_NONZERO = GF3_LAMBDA % ",".join("01002000002" + "0" * 16)

# (command, exit code, sha256 of its --no-timing JSON report); the GF(2)
# entries are the skip paths.  The kernel-vector test's draws, shifts and
# witnesses enter the verify-all, gamma and series reports.
PINNED_REPORTS = [
    ("verify-all --seed 7", 0,
     "cb4a64036805cf3626d87ae21627a7accabb85233b4f8383a0f10572aef06a02"),
    ("verify-all --n-list 3 --fields 2^3,3^2,7,5^2 --seed 11", 0,
     "3a992b7cf12637007309a18f289c555464cfcef5ab9a0b3fb93775af0ed46435"),
    ("verify-all --n-list 3 --fields 5^2 --seed 130520985369857", 0,
     "8049b0ad6448a9234e91112fb2a3b5b6d13b5a324b01fcee160e666c29520306"),
    ("verify-all --n-list 3 --fields 2,3 --seed 3", 0,
     "009b96c11d4f31a4ef508223f9de98b43699c667aa946925082a1172e63ae70f"),
    ("lattice --n 4 --field 5", 0,
     "4b18c913e42840435770d15074b173c8c0935a92d09afd29a872e6fa12c55f9b"),
    ("lattice --n 3 --field 2", 0,
     "ea823bc8f332a5e020223f57569f77daa3162875d269bc4c438816ea6cdc3cc5"),
    # MssOverMstar.notU (char | n-1) at n = 4 and LambdaOverMss.notN
    # (char | n+1) at n = 5 over GF(3); the even-n claims of characteristic 2
    ("lattice --n 4 --field 3", 0,
     "0720421dbddaee1b88f660d902020952f2526138c81fad426fc2e53f2fd7ea21"),
    ("lattice --n 5 --field 3", 0,
     "b16bbd08419fff08f15d83eda6e368e2ea37898511e51b8a9d4f8484e55c170e"),
    ("lattice --n 4 --field 2^2", 0,
     "76c459696e9702df008638a5c425ab73f024d2a11f4f184c4e23229b4d64ed49"),
    ("gamma --n 3 --field 2^3", 0,
     "433db17ab72baf4bb404ab51f394a6ea2f7637e0a63b477c29de5e3df7e6eb4d"),
    ("gamma --n 3 --field 3", 0,
     "5e618ff8febdc730e31bf8634e3ca79ed24dae654ed42feaeaf51324c1cbcc54"),
    ("gamma --n 4 --field 2^2", 0,
     "83e306125cc3bd6f33e58b6a29888bbef346add35948915168adc75354f60320"),
    ("canon --n 3 --field 5^2", 0,
     "1a7b00faceea4033096f1c3f1ac9f0865c6c025d9e9011f5893adfa84d7f3471"),
    ("canon --n 3 --field 2", 0,
     "5bc591aa54105d80c605fe542cdef0bd2fa564704d50ce8f3194d7d732b29c2b"),
    ("series --n 4 --field 3 --chain 0,Mstar(1,-1),U,K", 0,
     "639b5dda35ecbd76b86270d71d696a6e4c17611b9eef98ec9e6232023f50cc3a"),
    ("series --n 3 --field 2^2 --chain 0,K,C", 1,
     "906eb2e80b07854acded67344e28d7c20bd307a801724a4e6a1d8935949df2f6"),
    ("survey --n 3 --field 3 --module K", 0,
     "ce7f30c31df46f81700112f13c7b9e0042b9a6f74b7ac092aa734a430920ef04"),
    ("dims --n 4 --field 5", 0,
     "45a7d2f5007254a46706b3afc198966d166fdd4569ef5d48e230d099be6c3ec4"),
    ("spin --n 3 --field 5 --vector eta --expect U", 0,
     "fe1e7cf083f0edc1b11473a813007861eac79fcf4da97267ce03f41d4dcc569f"),
    ("spin --n 3 --field 5 --vector delta --expect N", 0,
     "ff89a62b9d723aa4250df8bb33786ba27b39879bc33b52779b8de7ba858d5f5f"),
    ("spin --n 3 --field 5 --vector eta", 0,
     "89e3b74e5500dfb9332d5350ef686725d135e62012f7bd2ebd20090986a18f15"),
    ("degen q --n 3 --field 5 --lambda eta --q 1,2,3", 0,
     "496b78642fd5c96751629e95563cb4089b6d787ada2e8de1e75f022b91929100"),
    ("degen q --n 3 --field 5 --lambda delta --q 0,0,0", 0,
     "1e9aa89e501b6f520108608933c4edc54097dc579a0068b27b7f8047ab8358af"),
    ("degen reach-eta --n 3 --field 5 --lambda eta", 0,
     "232bcce2931d64dbb9cb7b39956f924227342163617111afd93a34be93d1f8f5"),
    ("degen reach-delta --n 3 --field 5 --lambda delta", 0,
     "9352876531a96888ab694208e61b8a685b3bd2edb76674a8420fb97c440997a3"),
    ("degen reach-eta --n 3 --field 2 --lambda eta", 0,
     "80676a047db36f23305268e4f18ff656316babd9e319e2d97ca734597e60899c"),
    # a certificate's z, zeta and basis change on the gf3-zero and
    # gf3-nonzero branches and on list rows, which no suite report carries
    ("degen reach-delta --n 3 --field 3 --lambda " + GF3_ZERO, 0,
     "5999381be8ae9c3cf2910d3756ea7ad86410dc30dec6057ba38f2db60d8e2526"),
    ("degen reach-delta --n 3 --field 3 --lambda " + GF3_NONZERO, 0,
     "297bb564d94d3caf4e325be7687477963e89b81060a6d7f66a988a8b4f607004"),
    ("degen reach-eta --n 3 --field 3^2 --lambda eta", 0,
     "4401aee6c6286974e7a86a0856c6c7ac3ca2ad31769c4de504f690c788427c12"),
]


def test_no_timing_reports_match_pinned_digests(tmp_path, capsys):
    """The --no-timing JSON report of each command is pinned byte for byte.

    A deliberate change to a report updates its digest here and records the
    change in CHANGES.md.
    """
    path = tmp_path / "r.json"
    mismatches = []
    for command, code, digest in PINNED_REPORTS:
        got_code = run(["--no-timing", "--json", str(path)] + command.split())
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        if (got_code, got) != (code, digest):
            mismatches.append((command, got_code, got))
    capsys.readouterr()
    assert mismatches == []


SUMMARY_RUNS = {
    "dims": ["--n", "3", "--field", "3"],
    "canon": ["--n", "3", "--field", "2"],
    "spin": ["--n", "3", "--field", "5", "--vector", "eta"],
    "survey": ["--n", "3", "--field", "3", "--module", "Mstar"],
    "series": ["--n", "3", "--field", "2^2", "--chain", "0,K,C"],
    "lattice": ["--n", "3", "--field", "2"],
    "degen": ["reach-eta", "--n", "3", "--field", "5", "--lambda", "eta"],
    "gamma": ["--n", "3", "--field", "3"],
    "verify-all": ["--n-list", "3", "--fields", "2"],
}


def test_every_subcommand_ends_with_the_summary(capsys):
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(SUMMARY_RUNS)
    for name, argv in SUMMARY_RUNS.items():
        assert run([name] + argv) in (0, 1)
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("summary: "), name
        assert sum(line.startswith("summary: ") for line in lines) == 1, name


WORKFLOW = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        ".github", "workflows", "tests.yml")


def workflow_commands():
    """Each `python -m algdeg.cli` and console-script `algdeg` command line of the
    CI workflow, split by `shlex` from the program name on."""
    commands = []
    with open(WORKFLOW) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("algdeg ") or " -m algdeg.cli " in line:
                words = shlex.split(line)
                program = "algdeg.cli" if "algdeg.cli" in words else "algdeg"
                commands.append(words[words.index(program):])
    return commands


def test_every_command_of_the_workflow_parses_and_runs_once():
    commands = workflow_commands()
    assert commands, f"no algdeg command found in {WORKFLOW}"
    parser = cli.build_parser()
    for words in commands:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"the workflow runs an invalid command: {shlex.join(words)}")
    repeated = [shlex.join(w) for w in commands if commands.count(w) > 1]
    assert not repeated, f"the workflow runs these commands more than once: {repeated}"
