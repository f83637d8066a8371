import threading
import time
from fractions import Fraction

import pytest

from braidrack import nichols, verify
from braidrack.percolate import PlagueResult


def test_entry_times_sum_to_at_most_the_section_wall_time():
    t0 = time.perf_counter()
    rep = verify.Report(profile="full")
    verify.check_new_example(rep, "d3char2", "D3-char2", 432, 20, "nonzero")
    wall_ms = (time.perf_counter() - t0) * 1000
    assert rep.ok()
    assert sum(e.runtime_ms for e in rep.entries) <= wall_ms


def _zero_immunity(orbit):
    return PlagueResult(orbit.size, 0, (), Fraction(0), True)


def test_cubic_kernel_raises_immunity_bound_violated(monkeypatch):
    monkeypatch.setattr(nichols, "minimal_plague_cached", _zero_immunity)
    with pytest.raises(nichols.ImmunityBoundViolated):
        nichols.cubic_kernel(verify._structural_spaces()[0][1])


def test_structural_check_separates_bound_violations_from_faults(monkeypatch):
    space = verify._structural_spaces()[0]
    monkeypatch.setattr(verify, "_structural_spaces", lambda: [space])
    real = nichols.cubic_kernel

    def failing_once(error):
        calls = []

        def cubic_kernel(b):
            calls.append(b)
            if len(calls) == 1:
                raise error
            return real(b)

        return cubic_kernel

    monkeypatch.setattr(nichols, "cubic_kernel", failing_once(nichols.ImmunityBoundViolated()))
    rep = verify.Report(profile="full")
    verify.check_structural(rep, twists=0)
    bounds = [e for e in rep.entries if e.name.endswith("-immunity-bounds")]
    assert [e.computed for e in bounds] == [False]

    monkeypatch.setattr(nichols, "cubic_kernel", failing_once(AssertionError("fault")))
    with pytest.raises(AssertionError):
        verify.check_structural(verify.Report(profile="full"), twists=0)


def test_structural_check_completes_when_every_bound_is_violated(monkeypatch):
    space = verify._structural_spaces()[0]
    monkeypatch.setattr(verify, "_structural_spaces", lambda: [space])
    monkeypatch.setattr(nichols, "minimal_plague_cached", _zero_immunity)
    rep = verify.Report(profile="full")
    verify.check_structural(rep, twists=2)
    assert [e.name for e in rep.entries] == [
        "D3-minus1-" + check
        for check in ("YBE", "kernel-identity", "block-diagonality", "immunity-bounds",
                      "twist-invariance", "derivation-biconditional")
    ]
    bounds = [e for e in rep.entries if e.name.endswith("-immunity-bounds")]
    assert [e.computed for e in bounds] == [False]


def check_immunity(report):
    raise RuntimeError("boom")


def test_a_failing_section_becomes_an_error_entry(monkeypatch):
    # the error entry is labelled with the name of the check that raised
    monkeypatch.setattr(verify, "check_immunity", check_immunity)
    rep = verify.verify_paper("quick")
    errors = [e for e in rep.entries if e.provenance == "error"]
    assert rep.errors() == errors
    assert len(errors) == 1
    (err,) = errors
    assert (err.section, err.match, err.computed) == ("check_immunity", False, "RuntimeError: boom")
    assert not rep.ok()
    # every other section still ran: the 45 quick entries less P2's 8
    others = [e for e in rep.entries if e is not err]
    assert len(others) == 37 and all(e.match for e in others)
    assert "P2-immunity" not in {e.section for e in others}
    sections = list(dict.fromkeys(e.section for e in rep.entries))
    assert sections[:3] == ["P1-census", "check_immunity", "P3-kernels"]
    assert sections[-1] == "P11-truncations"


def test_error_entry_names_the_certificate_and_keeps_earlier_entries():
    def half_done(report, name):
        report.add("half", "first", "closed-form", 1, 1)
        raise KeyError(name)

    rep = verify.Report(profile="full")
    rep.run(half_done, "t-new")
    first, err = rep.entries
    assert first.match and first.name == "first"
    assert err.section == "half_done('t-new',)"
    assert err.computed == "KeyError: 't-new'"
    assert rep.errors() == [err] and rep.failures() == [err]


def test_sections_run_in_order_on_one_thread(monkeypatch):
    seen = []
    for name in [n for n in vars(verify) if n.startswith("check_")]:
        def record(report, *args, _name=name):
            seen.append((_name, args[:1], threading.get_ident()))
        monkeypatch.setattr(verify, name, record)
    rep = verify.verify_paper("full")
    assert rep.entries == []
    assert [(n, a) for n, a, _ in seen] == [
        ("check_census", ()), ("check_immunity", ()), ("check_one_orbit_kernels", ()),
        ("check_eight_orbit_bounds", ()), ("check_d3_minus1", ()),
        ("check_negative_controls", ()), ("check_classification", ()),
        ("check_inequality", ()), ("check_truncations", ()),
        ("check_new_example", ("d3char2",)), ("check_new_example", ("t-new",)),
        ("check_t_series", ()), ("check_structural", ()),
    ]
    assert {t for _, _, t in seen} == {threading.get_ident()}


@pytest.mark.parametrize("profile", ["ful", "Quick", "", None])
def test_unknown_profile_is_rejected(profile):
    with pytest.raises(ValueError):
        verify.verify_paper(profile)


def test_verify_paper_accepts_no_worker_count():
    # the keyword stays for callers that pass threads=1; nothing else runs
    for threads in (0, 2, 4):
        with pytest.raises(ValueError):
            verify.verify_paper("quick", threads=threads)
