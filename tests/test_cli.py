import hashlib
import json
import time

import pytest

from braidrack import hilbert, verify
from braidrack.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_preset_list(capsys):
    code, out = run(capsys, "rack", "preset-list")
    assert code == 0
    assert "D3" in out and "Aff(9,2)" in out


@pytest.mark.parametrize("argv", [
    ["rack", "info", "nosuch"], ["nichols", "dims", "nosuch"], ["hurwitz", "census", "nosuch"],
])
def test_an_unknown_rack_preset_is_named(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: unknown rack preset 'nosuch'\n"


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


@pytest.mark.parametrize("command", [["rack", "info"], ["immunity"]], ids=["rack-info", "immunity"])
def test_empty_rack_file_is_an_error(tmp_path, capsys, command):
    # both commands crashed inside the rack code on an empty table
    f = tmp_path / "empty.json"
    f.write_text('{"size": 0, "table": []}')
    code = main(command + [str(f)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: a rack needs at least one element\n"


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



def test_relation_repeating_a_word_is_an_error(tmp_path, capsys):
    # ab - ab is the zero relation; keeping only the last term would read -ab
    f = tmp_path / "rels.json"
    f.write_text(json.dumps(
        [{"terms": [{"word": "ab", "coeff": "1"}, {"word": "ab", "coeff": "-1"}]}]))
    code = main(["nichols", "quotient", "D3", "--relations", str(f)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "word 'ab' appears twice in one relation" in captured.err


@pytest.mark.parametrize("argv", [
    ["nichols", "dims", "D3"],
    ["nichols", "quotient", "--cocycle", "d3char2", "--relations", "d3char2"],
])
def test_negative_degree_is_an_error(capsys, argv):
    code = main(argv + ["--max-degree", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "got -1" in captured.err


@pytest.mark.parametrize("degree", ["2", "0", "-1"])
def test_cubic_below_degree_3_is_an_error(capsys, degree):
    # the series is cut at the degree asked for, never silently at 3
    code = main(["nichols", "cubic", "D3", "--max-degree", degree])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "must be >= 3, got %s" % degree in captured.err


@pytest.mark.parametrize("argv", [
    ["nichols", "dims"],
    ["nichols", "dims", "--cocycle", "minus1"],
    ["nichols", "cubic"],
    ["nichols", "quotient", "--relations", "d3char2"],
])
def test_missing_rack_is_named_in_the_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "the rack argument is missing" in captured.err


@pytest.mark.parametrize("command", [
    ["dims"], ["cubic"], ["quotient", "--relations", "d3char2"],
])
@pytest.mark.parametrize("cocycle", ["d3char2", "file"])
def test_rack_next_to_a_cocycle_with_its_own_rack_is_an_error(tmp_path, capsys, command, cocycle):
    if cocycle == "file":
        f = tmp_path / "cocycle.json"
        f.write_text(json.dumps({"rack": "D3", "field": "QQ", "values": [["-1"] * 3] * 3}))
        cocycle = str(f)
    code = main(["nichols", command[0], "T", "--cocycle", cocycle] + command[1:])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--cocycle %s" % cocycle in captured.err and "rack argument T" in captured.err


def test_minus1_cocycle_takes_the_rack_argument(capsys):
    code, out = run(
        capsys, "--format", "json", "nichols", "dims", "T", "--cocycle", "minus1",
        "--max-degree", "3",
    )
    assert code == 0
    assert json.loads(out)["dims"] == [1, 4, 8, 11]


def test_degree0_relation_is_an_error(tmp_path, capsys):
    # a scalar relation makes the ideal everything; it is rejected, not ignored
    f = tmp_path / "rels.json"
    f.write_text(json.dumps([{"terms": [{"word": "", "coeff": "1"}]}]))
    code = main(["nichols", "quotient", "D3", "--relations", str(f)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "degree-0 relations are not supported" in captured.err

def test_immunity_command(capsys):
    code, out = run(capsys, "--format", "json", "immunity", "T")
    assert code == 0
    data = json.loads(out)
    assert data["8"]["min_plague"] == 3
    assert data["8"]["immunity"] == "3/8"
    assert data["12"]["immunity"] == "1/3"


# sha256 of stdout of `--format json immunity R` and `nichols cubic R
# --max-degree 3`: witness indices and block bounds must not drift
GOLDEN_DIGESTS = {
    "T": ("1b00505a6f24fe80f1e890820f564e0c0767b8ecd3bf1e641fdcef53f5327d2b",
          "535ef5d37042608545d50eb58d07e43ec050c2d77b854d82aae0bbffd6428457"),
    "Aff(7,3)": ("f1d26b9f5a82b8bb7475c11a6844f4224a097323cf43a23ca41d19426b76457d",
                 "aea2842c7d8f0d4be5bab5317256a0e8315ae023d893e18a48dbd21982ec541c"),
    "Aff(5,2)": ("01183f30cf74d50ce99244b3eee97c1cc1b2af6aaab4faa7260cb5a640639f09",
                 "3938a525a634a998aa29447bf36db48324478e46e60518e4f8f6a3bdef685018"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_immunity_and_cubic_output_is_pinned(capsys, name):
    outs = [
        run(capsys, "--format", "json", "immunity", name),
        run(capsys, "nichols", "cubic", name, "--max-degree", "3"),
    ]
    assert [code for code, _ in outs] == [0, 0]
    digests = tuple(hashlib.sha256(out.encode()).hexdigest() for _, out in outs)
    assert digests == GOLDEN_DIGESTS[name]


# sha256 of stdout of `--format json immunity R` in a fresh process
FRESH_IMMUNITY_DIGESTS = {
    "A": "30bb1b504113ace635f5556bb06e96af8939e97f5387fbbbdd7c0f1c1df9a016",
    "C": "15b2294974cc93dc18df4e798c8d18214b85c8230279dfda2e8f26ff4a2528be",
}


@pytest.mark.parametrize("name", sorted(FRESH_IMMUNITY_DIGESTS))
def test_immunity_witnesses_do_not_depend_on_earlier_searches(capsys, name):
    # the reference orbits, once filed, are isomorphic to orbits of A and C:
    # their mapped witnesses need not be these orbits' lexicographically least
    verify.check_immunity(verify.Report(profile="quick"))
    code, out = run(capsys, "--format", "json", "immunity", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FRESH_IMMUNITY_DIGESTS[name]


def test_immunity_on_an_orbit_above_the_search_cap_is_an_error(capsys):
    # Aff(7,2) is not braided; its 3-orbits of size 42 and 49 are above
    # percolate.BOUND_ORBIT_CAP, so no exact plague search is started
    start = time.perf_counter()
    code = main(["immunity", "Aff(7,2)"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "3-orbit of size 49" in captured.err and "cap of 24" in captured.err
    assert elapsed < 5


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


def test_nichols_cubic_reports_a_cut_factorization_list(capsys, monkeypatch):
    argv = ("--format", "json", "nichols", "cubic", "T", "--max-degree", "4")
    data = json.loads(run(capsys, *argv)[1])
    assert len(data["factorizations"]) == 2 and "factorizations_complete" not in data
    monkeypatch.setattr(hilbert, "MAX_SOLUTIONS", 1)
    data = json.loads(run(capsys, *argv)[1])
    assert len(data["factorizations"]) == 1 and data["factorizations_complete"] is False


def test_nichols_quotient_preset_relations(capsys):
    code, out = run(
        capsys, "--format", "json", "nichols", "quotient", "--cocycle", "d3char2",
        "--relations", "d3char2", "--max-degree", "6",
    )
    assert code == 0
    assert json.loads(out)["dims"] == [1, 3, 7, 12, 18, 24, 29]


def test_nichols_quotient_reports_retired_relations(capsys):
    args = ("nichols", "quotient", "--cocycle", "d3char2", "--relations", "d3char2",
            "--max-degree", "21")
    code, out = run(capsys, "--format", "json", *args)
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 432
    # [relation index, last degree placed]: ccc at 4, bbb at 7, the
    # degree-12 relation at 13, aaa at 17 and the second 2-relation at 21
    assert data["retired"] == [[4, 4], [3, 7], [5, 13], [2, 17], [1, 21]]
    # the table lists only the dims
    code, out = run(capsys, *args)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["degree", "dim"] and len(lines) == 23
    assert "retired" not in out


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


@pytest.mark.parametrize("fmt, header", [
    ("table", "size  degree  k3  m  isomorphic to"),
    ("csv", "size,degree,k3,m,isomorphic to"),
], ids=["table", "csv"])
@pytest.mark.parametrize("limit", [("--degree", "0"), ("--size-max", "1")],
                         ids=["degree-0", "size-max-1"])
def test_classify_with_no_rack_prints_the_header_only(capsys, fmt, header, limit):
    code, out = run(capsys, "--format", fmt, "classify", *limit)
    assert code == 0
    assert out.splitlines() == [header]


def test_classify_with_no_rack_json(capsys):
    code, out = run(capsys, "--format", "json", "classify", "--degree", "0")
    assert code == 0
    assert json.loads(out) == []


def test_classify_isomorphism_fault_is_an_error(capsys, monkeypatch):
    # a fault in the preset lookup must not read as "isomorphic to nothing"
    from braidrack import racks

    def broken(r1, r2):
        raise RuntimeError("broken isomorphism test")

    monkeypatch.setattr(racks, "is_isomorphic", broken)
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
