import json

import pytest

from torsion6 import cli
from torsion6.forms import format_form, parse_form, sigma
from torsion6.nil import StructureEquations, betti_vector
from torsion6.orbits import classify_form


def run(argv):
    return cli.run(argv)


def test_classify_is_thin_wrapper():
    status, payload, _ = run(["classify", "--form", "e125+e345"])
    assert status == 0
    direct = json.loads(classify_form(parse_form("e125+e345")).to_json())
    assert payload["result"] == direct
    assert payload["result"]["strictType"] == "W4"
    assert payload["result"]["isoLabel"] == "u2_0"


def test_classify_parse_error_exits_2():
    status, payload, _ = run(["classify", "--form", "e999"])
    assert status == 2
    assert "error" in payload


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit):
        run(["classify", "--form", "e125", "--frobnicate"])
    assert cli.main(["classify", "--form", "e125", "--frobnicate"]) == 2


def test_family_case_x_isotropy():
    status, payload, _ = run(["family", "--case", "X",
                              "--beta1", "2", "--beta2", "1"])
    assert status == 0
    assert payload["result"]["isoDim"] == 3
    assert payload["result"]["isoLabel"] == "so3"
    assert payload["result"]["strictType"] == "W3"


def test_family_invalid_params_exit_2():
    status, payload, _ = run(["family", "--case", "X", "--b1", "1",
                              "--b2", "1"])
    assert status == 2


def test_sigma_matches_library():
    status, payload, _ = run(["sigma", "--form", "e125-e345"])
    assert status == 0
    want = format_form(sigma(parse_form("e125-e345")))
    assert payload["result"]["sigma"] == want


def test_clifford_reports_square():
    status, payload, _ = run(["clifford", "--form=-e125-e346"])
    assert status == 0
    assert payload["result"]["isScalarSquare"] is True
    assert payload["result"]["square"] == "2"
    assert payload["result"]["criterionHolds"] is True


def test_spinors_trivial_holonomy():
    status, payload, _ = run(["spinors", "--form", "e125+e345",
                              "--holonomy", "none"])
    assert status == 0
    assert payload["result"]["parallelSpinors"] == 8
    spec = payload["result"]["spectrum"]
    assert len(spec) == 8 and spec == sorted(spec)


def test_isotropy_lists_basis():
    status, payload, _ = run(["isotropy", "--form", "3e135+e146+e236+e245"])
    assert status == 0
    assert payload["result"]["dim"] == 3
    assert payload["result"]["label"] == "so3"
    assert len(payload["result"]["basis"]) == 3


def test_example_matches_catalog():
    status, payload, _ = run(["example", "e3-so3"])
    assert status == 0
    res = payload["result"]
    assert res["mismatches"] == []
    assert (res["norms"]["t2"], res["norms"]["t12"]) == ("1/4", "3/4")
    assert res["lambda"] == "0"


def test_example_bad_params_exit_2():
    status, payload, _ = run(["example", "sl2c-so3", "--set", "p=-1"])
    assert status == 2
    assert "p > 0" in payload["error"]


def test_example_unknown_parameter_exits_2():
    status, payload, _ = run(["example", "s3xs3-t2", "--set", "s=1",
                              "--set", "t=1", "--set", "foo=1"])
    assert status == 2
    assert "foo" in payload["error"]


def test_example_float_decimal_params():
    # 0.1 is coerced to 1/10, the value the expected invariants assume
    status, payload, _ = run(["example", "s3xs3-t2", "--set", "s=0.1",
                              "--set", "t=0.1", "--backend", "float"])
    assert status == 0
    assert payload["result"]["mismatches"] == []
    assert payload["result"]["params"] == {"s": "1/10", "t": "1/10"}


def test_sweep_propagates_point_errors():
    status, payload, _ = run(["sweep", "s3xs3-t2", "--grid",
                              '[{"s": 1, "t": 1}, {"s": 0, "t": 1},'
                              ' {"s": "x", "t": 1}]'])
    assert status == 0
    pts = payload["result"]["points"]
    assert pts[0]["mismatches"] == []
    assert "s > 0" in pts[1]["error"]
    assert pts[2]["params"] == {"s": "x", "t": "1"}
    assert "x" in pts[2]["error"]


def test_sweep_bad_grid_exit_2():
    status, payload, _ = run(["sweep", "s3xs3-t2", "--grid", "{oops"])
    assert status == 2


def test_betti_shorthand_and_text_agree():
    status, payload, _ = run(["betti", "--shorthand", "(0,0,0,0,12,34)"])
    assert status == 0
    text = "de5 = e12\nde6 = e34\n"
    status2, payload2, _ = run(["betti", "--equations", text])
    assert payload["result"]["betti"] == payload2["result"]["betti"]
    want = betti_vector(StructureEquations.from_shorthand("(0,0,0,0,12,34)"))
    assert payload["result"]["betti"] == list(want)


def test_tables_empty_and_invalid():
    status, payload, _ = run(["tables"])
    assert status == 0
    assert payload["result"]["tables"] == {}
    status, _, _ = run(["tables", "7"])
    assert status == 2


def test_tables_3_matches():
    status, payload, _ = run(["tables", "3"])
    assert status == 0
    assert payload["result"]["diffs"] == []
    rows = payload["result"]["tables"]["3"]
    assert len(rows) == 8
    assert all(r["dims"] == r["expected"] for r in rows)


def test_tables_5_nil_rows():
    status, payload, _ = run(["tables", "5"])
    assert status == 0
    got = {r["family"]: tuple(r["got"][1:3])
           for r in payload["result"]["tables"]["5"] if "family" in r}
    assert got["i"] == (5, 11)
    assert got["iii"] == (4, 8)
    assert got["ii"] == (5, 9)


def test_tables_all_full_check():
    status, payload, _ = run(["tables", "--all"])
    assert status == 0
    assert payload["result"]["diffs"] == []
    assert set(payload["result"]["tables"]) == {"1", "2", "3", "4", "5", "6"}


def test_invariants():
    status, payload, _ = run(["invariants", "--max-degree", "4"])
    assert status == 0
    assert payload["result"]["dims"] == [[1, 0], [2, 2], [3, 0], [4, 6]]
    assert payload["result"]["total"] == 8


def test_json_output_deterministic():
    _, _, a = run(["classify", "--form", "e125+e345", "--json"])
    _, _, b = run(["classify", "--form", "e125+e345", "--json"])
    assert a == b
    json.loads(a)
    _, _, c = run(["tables", "3", "--json"])
    _, _, d = run(["tables", "3", "--json"])
    assert c == d


def test_env_var_backend(monkeypatch):
    monkeypatch.setenv(cli.BACKEND_ENV, "float")
    status, payload, _ = run(["clifford", "--form", "e125+e345"])
    assert payload["backend"] == "float"
    assert payload["result"]["criterionValue"] == 2.0
    monkeypatch.delenv(cli.BACKEND_ENV)
    status, payload, _ = run(["clifford", "--form", "e125+e345"])
    assert payload["backend"] == "rational"
    assert payload["result"]["criterionValue"] == "2"


def test_main_prints_and_returns(capsys):
    assert cli.main(["sigma", "--form", "e125"]) == 0
    out = capsys.readouterr().out
    assert "sigma" in out
    assert cli.main(["classify", "--form", "e999"]) == 2
    err = capsys.readouterr().err
    assert "error" in err
