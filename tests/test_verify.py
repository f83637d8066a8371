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
