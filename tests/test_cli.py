import json

import pytest

from braidrack.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_preset_list(capsys):
    code, out = run(capsys, "rack", "preset-list")
    assert code == 0
    assert "D3" in out and "Aff(9,2)" in out


def test_rack_info_json(capsys):
    code, out = run(capsys, "--format", "json", "rack", "info", "T")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 4
    assert data["degree"] == 3
    assert data["k"] == {"3": 3}
    assert data["m"] == 3


def test_rack_iso(capsys):
    code, out = run(capsys, "--format", "json", "rack", "iso", "Aff(7,3)", "Aff(7,5)")
    assert code == 0
    assert json.loads(out)["isomorphic"] is False


def test_rack_info_from_file(tmp_path, capsys):
    f = tmp_path / "d3.json"
    f.write_text('{"size": 3, "table": [[1, 3, 2], [3, 2, 1], [2, 1, 3]]}')
    code, out = run(capsys, "--format", "json", "rack", "info", str(f))
    assert code == 0
    assert json.loads(out)["degree"] == 2


def test_census_formats(capsys):
    code, out = run(capsys, "--format", "json", "hurwitz", "census", "D3")
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == {"1": 3, "8": 3}
    assert data["formula_agrees"] is True
    code, out = run(capsys, "--format", "csv", "hurwitz", "census", "D3")
    assert code == 0
    assert "1,3" in out and "8,3" in out


def test_orbit_export(capsys):
    code, out = run(capsys, "hurwitz", "orbit", "D3", "--seed", "1,1,2")
    assert code == 0
    data = json.loads(out)
    assert data["arity"] == 3 and len(data["tuples"]) == 8


@pytest.mark.parametrize("seed, bad", [("0,1,2", "0"), ("1,9,2", "9")])
def test_orbit_seed_out_of_range_is_an_error(capsys, seed, bad):
    code = main(["hurwitz", "orbit", "D3", "--seed", seed])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "seed entry %s is out of range 1..3" % bad in captured.err


def test_relation_letter_out_of_range_is_an_error(tmp_path, capsys):
    f = tmp_path / "rels.json"
    f.write_text(json.dumps([{"terms": [{"word": "`a", "coeff": "1"}]}]))
    code = main(["nichols", "quotient", "--cocycle", "d3char2", "--relations", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "word '`a' has a letter outside a..c" in err


def test_immunity_command(capsys):
    code, out = run(capsys, "--format", "json", "immunity", "T")
    assert code == 0
    data = json.loads(out)
    assert data["8"]["min_plague"] == 3
    assert data["8"]["immunity"] == "3/8"
    assert data["12"]["immunity"] == "1/3"


def test_nichols_dims_default_minus1(capsys):
    code, out = run(capsys, "--format", "json", "nichols", "dims", "D3", "--max-degree", "4")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 3, 4, 3, 1]


def test_nichols_dims_with_cocycle_preset(capsys):
    code, out = run(
        capsys, "--format", "json", "nichols", "dims", "--cocycle", "d3char2",
        "--max-degree", "4",
    )
    assert code == 0
    data = json.loads(out)
    assert data["field"] == "Fp(2)[t]/(t^2+t+1)"
    assert data["dims"] == [1, 3, 7, 12, 18]


def test_nichols_cubic(capsys):
    code, out = run(capsys, "--format", "json", "nichols", "cubic", "D3", "--max-degree", "4")
    assert code == 0
    data = json.loads(out)
    assert data["kernel_total"] == 9
    assert data["cond3"] is True
    assert any(b["optimal"] for b in data["blocks"])


def test_nichols_quotient_preset_relations(capsys):
    code, out = run(
        capsys, "--format", "json", "nichols", "quotient", "--cocycle", "d3char2",
        "--relations", "d3char2", "--max-degree", "6",
    )
    assert code == 0
    assert json.loads(out)["dims"] == [1, 3, 7, 12, 18, 24, 29]


def test_nichols_quotient_relations_file(tmp_path, capsys):
    rels = [
        {"degree": 2, "terms": [{"word": "ab", "coeff": "1"}, {"word": "bc", "coeff": "q^2"}, {"word": "ca", "coeff": "q"}]},
        {"degree": 2, "terms": [{"word": "ac", "coeff": "1"}, {"word": "cb", "coeff": "q^2"}, {"word": "ba", "coeff": "q"}]},
        {"degree": 3, "terms": [{"word": "aaa", "coeff": "1"}]},
        {"degree": 3, "terms": [{"word": "bbb", "coeff": "1"}]},
        {"degree": 3, "terms": [{"word": "ccc", "coeff": "1"}]},
    ]
    f = tmp_path / "rels.json"
    f.write_text(json.dumps(rels))
    code, out = run(
        capsys, "--format", "json", "nichols", "quotient", "--cocycle", "d3char2",
        "--relations", str(f), "--max-degree", "6",
    )
    assert code == 0
    # without the degree-12 relation the quotient agrees up to degree 6
    assert json.loads(out)["dims"] == [1, 3, 7, 12, 18, 24, 29]


def test_nichols_dims_with_cocycle_file(tmp_path, capsys):
    cocycle = {
        "rack": "D3",
        "field": "QQ",
        "values": [["-1", "-1", "-1"]] * 3,
    }
    f = tmp_path / "cocycle.json"
    f.write_text(json.dumps(cocycle))
    code, out = run(
        capsys, "--format", "json", "nichols", "dims", "--cocycle", str(f),
        "--max-degree", "4",
    )
    assert code == 0
    assert json.loads(out)["dims"] == [1, 3, 4, 3, 1]


def test_malformed_cocycle_scalar_is_named_in_the_error(tmp_path, capsys):
    cocycle = {
        "rack": "D3",
        "field": "QQ[t]/(t^2+t+1)",
        "values": [["1+-t", "-1", "-1"]] + [["-1", "-1", "-1"]] * 2,
    }
    f = tmp_path / "cocycle.json"
    f.write_text(json.dumps(cocycle))
    code = main(["nichols", "dims", "--cocycle", str(f), "--max-degree", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "'1+-t'" in err


def test_nichols_integral(capsys):
    code, out = run(capsys, "--format", "json", "nichols", "integral", "--preset", "d3char2")
    assert code == 0
    assert json.loads(out)["nonzero"] is True


def test_classify_command(capsys):
    code, out = run(
        capsys, "--format", "json", "classify", "--degree", "3", "--k3-max", "6",
        "--size-max", "9",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert data[0]["isomorphic_to"] == "T"


def test_classify_isomorphism_fault_is_an_error(capsys, monkeypatch):
    # a fault in the preset lookup must not read as "isomorphic to nothing"
    from braidrack import cli

    def broken(r1, r2, witness=False):
        raise RuntimeError("broken isomorphism test")

    monkeypatch.setattr(cli, "is_isomorphic", broken)
    code = main(["--format", "json", "classify", "--degree", "3", "--k3-max", "6",
                 "--size-max", "9"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert "broken isomorphism test" in captured.err


def test_error_exit_code(capsys):
    code = main(["rack", "info", "not-a-preset"])
    assert code == 2


def test_corrupted_rack_file_is_an_error(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"size": 3, "table": [[1, 1, 2], [3, 2, 1], [2, 1, 3]]}')
    code = main(["rack", "info", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "not a permutation" in err


def test_verify_paper_runs_serially_by_default(capsys, monkeypatch):
    from braidrack import verify

    seen = []

    def fake_verify_paper(*args, **kwargs):
        seen.append((args, kwargs))
        return verify.Report("quick")

    monkeypatch.setattr(verify, "verify_paper", fake_verify_paper)
    code, _ = run(capsys, "--format", "json", "verify-paper")
    assert code == 0
    # the CLI passes the profile only; verify_paper has one serial loop
    assert seen == [((), {"profile": "quick"})]


def test_verify_paper_exits_2_on_a_section_error(capsys, monkeypatch):
    from braidrack import verify

    def check_immunity(report):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "check_immunity", check_immunity)
    code = main(["verify-paper", "--profile", "quick"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "Traceback" in err and "RuntimeError: boom" in err
    assert "[ERROR] check_immunity / error (error, " in out
    assert "computed='RuntimeError: boom'" in out
    assert "[ok] P11-truncations / C-sign-1" in out
    assert out.splitlines()[-1].startswith("38 checks, 1 mismatches, ")


def test_verify_paper_exits_1_on_a_mismatch(capsys, monkeypatch):
    from braidrack import verify

    def wrong(report):
        report.add("P0", "wrong", "closed-form", 1, 2)

    for name in [n for n in vars(verify) if n.startswith("check_")]:
        monkeypatch.setattr(verify, name, wrong)
    code, out = run(capsys, "--format", "json", "verify-paper")
    assert code == 1
    assert len(json.loads(out)["entries"]) == 9


def test_verify_paper_quick_json(capsys):
    code, out = run(capsys, "--format", "json", "verify-paper", "--profile", "quick")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(e["match"] for e in data["entries"])
    # payload is stable across runs apart from the runtime fields
    code2, out2 = run(capsys, "verify-paper", "--profile", "quick", "--format", "json")
    data2 = json.loads(out2)
    strip = lambda d: [
        {k: v for k, v in e.items() if k != "runtime_ms"} for e in d["entries"]
    ]
    assert strip(data) == strip(data2)
