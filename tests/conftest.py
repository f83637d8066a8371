import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running certificate checks")


@pytest.fixture
def plague_searches(monkeypatch):
    """Sizes of the orbits given the exact plague search, in order, with
    percolate.orbit_plague's filed classes emptied first."""
    from braidrack import percolate

    monkeypatch.setattr(percolate, "_FILED", {})
    searched = []
    real = percolate.minimal_plague

    def counting(o):
        searched.append(o.size)
        return real(o)

    monkeypatch.setattr(percolate, "minimal_plague", counting)
    return searched


@pytest.fixture
def blocks_in_parts(monkeypatch):
    """force(k) runs every later graded-engine degree with k >= 2 grade
    blocks in k processes, through the runner's private threshold and part
    count; force(1) keeps every degree in-process."""
    from braidrack import nichols

    def force(parts):
        monkeypatch.setattr(nichols, "_FORK_SECONDS", 0.0 if parts > 1 else float("inf"))
        monkeypatch.setattr(nichols, "_PARTS", parts)

    return force


@pytest.fixture(scope="session")
def t_new_certificate():
    """The heavy quotient computation, shared between test modules."""
    from braidrack.hilbert import expand_product
    from braidrack.nichols import NicholsEngine
    from braidrack.presentations import (
        Presentation,
        integral_preset,
        quotient_dims,
        relation_in_kernel,
    )

    space, rels, integral, chain = integral_preset("t-new")
    p = Presentation(space, rels)
    eng = NicholsEngine(space)
    return {
        "space": space,
        "relations": rels,
        "integral": integral,
        "chain": chain,
        "in_kernel": relation_in_kernel(p, engine=eng),
        "quotient_dims": quotient_dims(p, 26),
        "nichols_dims_6": eng.dims(6),
        "expected": expand_product([(6, 1)] * 4 + [(2, 2)] * 2, 26),
    }


@pytest.fixture(scope="session")
def d3_char2_certificate():
    from braidrack.hilbert import expand_product
    from braidrack.nichols import NicholsEngine
    from braidrack.presentations import (
        Presentation,
        integral_preset,
        quotient_dims,
        relation_in_kernel,
    )

    space, rels, integral, chain = integral_preset("d3char2")
    p = Presentation(space, rels)
    eng = NicholsEngine(space)
    return {
        "space": space,
        "relations": rels,
        "integral": integral,
        "chain": chain,
        "in_kernel": relation_in_kernel(p, engine=eng),
        "quotient_dims": quotient_dims(p, 22),
        "nichols_dims_8": eng.dims(8),
        "expected": expand_product([(3, 1), (4, 1), (6, 1), (6, 2)], 22),
    }
