import argparse
import hashlib
import json

import pytest

from algdeg import cli, spinmx
from algdeg.canon import ProjectivePoint, basis_Mstar, basis_MstarP, eta
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


def test_survey_passes_its_seed(monkeypatch):
    seen = []
    survey = spinmx.survey_submodules
    monkeypatch.setattr(spinmx, "survey_submodules",
                        lambda handle, **kw: seen.append(kw) or survey(handle, **kw))
    assert run(["survey", "--module", "U", "--n", "3", "--field", "3", "--seed", "7"]) == 0
    assert seen == [{"seed": 7}]


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

    def stub(handle, seed):
        if handle.label == "factor1":
            return spinmx.NortonResult("inconclusive", None, None)
        res = real(handle, seed)
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
    assert data["schema"] == "algdeg-report/1"
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


# (command, exit code, sha256 of its --no-timing JSON report); the GF(2)
# entries are the skip paths.  The kernel-vector test's draws, shifts and
# witnesses enter the verify-all, gamma and series reports.
PINNED_REPORTS = [
    ("verify-all --seed 7", 0,
     "a40b42f980b89137cca8d8d6a9db1b1204a92a37f818e4ef710fb46cdb9c887e"),
    ("verify-all --n-list 3 --fields 2^3,3^2,7,5^2 --seed 11", 0,
     "4499940b88ed3f5772934aa8e177b6d2a0c50daf126f720b44a52de36e971664"),
    ("verify-all --n-list 3 --fields 5^2 --seed 130520985369857", 0,
     "e6f1bf6cbe86119f9e9663e49a3892509a11b249f54ea8408e2260d270608d1b"),
    ("verify-all --n-list 3 --fields 2,3 --seed 3", 0,
     "3df3d514ad1cad2def41acdbb9cff1734b8467a1162b6628f01a917272f711cc"),
    ("lattice --n 4 --field 5", 0,
     "3af72863f947d25fb9daf4495208a8abf61c0ca1fbe970f9266b98bbfcd6982e"),
    ("lattice --n 3 --field 2", 0,
     "ff8e7c6ef6ca9176aefc565e854a9a01568140e6d8823cbbc1fc5ff50ee695f4"),
    ("gamma --n 3 --field 2^3", 0,
     "d07fa64d3ff16af527273a5f33bf154849530305361a9e7eab0d8b17add0466b"),
    ("gamma --n 3 --field 3", 0,
     "8ebf9dc47763c53c781e3c34677d4d4a8dffa9a96982fb591c85f0643b08c11f"),
    ("canon --n 3 --field 5^2", 0,
     "110acccf8a621918d88280f68ba75de7f6da69bb67c892c09545cecaf96f7fde"),
    ("canon --n 3 --field 2", 0,
     "202ce712c9ed3e6baf8684e319d93f1bd5451c3e16030e8dd51d9192b6ca1c0e"),
    ("series --n 4 --field 3 --chain 0,Mstar(1,-1),U,K", 0,
     "c250e19160cc4a2936123c71b3b7a698aa058514ea619b5aef4050b9f26d4f54"),
    ("series --n 3 --field 2^2 --chain 0,K,C", 1,
     "c0d785315ab23b16b4d833716809047320985b56c3485b39a6685b2e64fbc627"),
    ("survey --n 3 --field 3 --module K", 0,
     "acbb39f03ac57d4d2c193e7b75614babb8daf313addcebb8016dce8409eff781"),
    ("dims --n 4 --field 5", 0,
     "9140fafdba9046d0dc7a4f7d736aa6ed57f083a8c685e0f993cfc9b3f61a021f"),
    ("spin --n 3 --field 5 --vector eta --expect U", 0,
     "ff8142a049dbff13527a0002203efe320d7304cb4f34648361fa5acac1cb290a"),
    ("spin --n 3 --field 5 --vector delta --expect N", 0,
     "804b456e29b13f7d7c3e5c56f7df8e517a78295fbb710799d8bf0adafaf1b3f0"),
    ("spin --n 3 --field 5 --vector eta", 0,
     "435af8c2e1e651e5084127674fa209fd6c21c858da6f2cbc15ea28caa74dc113"),
    ("degen q --n 3 --field 5 --lambda eta --q 1,2,3", 0,
     "7a4992f9e74bf8421f121246a14bdaaca994b067f5133d9af7cd8d978e28d1c8"),
    ("degen q --n 3 --field 5 --lambda delta --q 0,0,0", 0,
     "0461247de9cd4e21e58d16c6ef66a8950393b18546dffa0b4342c5fd71dfcf36"),
    ("degen reach-eta --n 3 --field 5 --lambda eta", 0,
     "4378264620ce146135e3a463894184c14ac4f114a7c92868f0c748a450b0a5c3"),
    ("degen reach-delta --n 3 --field 5 --lambda delta", 0,
     "75f060d5c4c81510055041158f4363ffb267b101c0c1461b6d876216285de4bc"),
    ("degen reach-eta --n 3 --field 2 --lambda eta", 0,
     "9958c50d9767ebac53590b0d3ad8c0bb00ac8a6b2b1f18247fd1cf694dd79787"),
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
