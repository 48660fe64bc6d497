import json

import pytest

from algdeg import cli
from algdeg.canon import eta
from algdeg.cli import main
from algdeg.gfield import make_field
from algdeg.report import Report


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


def test_survey_mstar(tmp_path):
    path = tmp_path / "survey.json"
    assert run(["--json", str(path), "survey", "--module", "Mstar",
                "--n", "3", "--field", "3"]) == 0
    data = json.loads(path.read_text())
    dims = data["claims"][0]["data"]["dims"]
    assert dims == [0, 3, 3, 3, 3, 6]


def test_series_certified():
    assert run(["series", "--chain", "0,Mstar(1,-1),U,K",
                "--n", "4", "--field", "3"]) == 0


def test_series_reports_reducible_first_factor(capsys):
    # over GF(4) at n = 3 the chain 0 < U < N < C starts with a reducible factor
    assert run(["series", "--chain", "0,U,N,C", "--n", "3", "--field", "2^2"]) == 1
    out = capsys.readouterr().out
    assert "factor 0: dim 6 -> reducible" in out


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


def test_inconclusive_norton_verdict_is_not_falsified(tmp_path):
    # on this seed the kernel-vector test gives up on the quotient by M**
    # while its dimension check holds
    path = tmp_path / "r.json"
    assert run(["--json", str(path), "--no-timing", "verify-all", "--n-list", "3",
                "--fields", "5^2", "--seed", "130520985369857"]) == 3
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    claim = claims["n3.q5^2.LambdaOverMss.irr"]
    assert claim["status"] == "inconclusive"
    assert claim["data"]["verdict"] == "inconclusive"


def test_internal_error_exits_4(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_dims", crash)
    assert run(["dims", "--n", "3", "--field", "3"]) == 4
    assert "RuntimeError: boom" in capsys.readouterr().err


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
