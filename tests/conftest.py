from itertools import product

import pytest

from pathidem import oracle
from pathidem.algebra import AlgElem, vertex_idempotent
from pathidem.oracle import BudgetExceeded, OracleBudget
from pathidem.reps import Representation
from pathidem.rings import Ring
from pathidem.sweep import q_a3, q_arrow, q_isolated


@pytest.fixture
def f2():
    return Ring("Fp", 2)


@pytest.fixture
def f3():
    return Ring("Fp", 3)


@pytest.fixture
def f5():
    return Ring("Fp", 5)


@pytest.fixture
def z6():
    return Ring("Zn", 6)


@pytest.fixture
def rationals():
    return Ring("Q")


@pytest.fixture
def arrow():
    return q_arrow()


@pytest.fixture
def a3():
    return q_a3()


@pytest.fixture
def two_isolated():
    return q_isolated(2)


def full_reps(q, ring, budget=OracleBudget(), skip=None):
    """Every representation with total dimension <= budget: all matrix tuples
    in row-major counter order over the field elements, per dimension vector
    in the order of `enumerate_reps`. `enumerate_reps` yields a subsequence,
    one or more reps per isomorphism class; tests of functions on arbitrary
    reps take their inputs from here. `skip` is that of `enumerate_reps`: a
    dimension vector it accepts yields the number of its matrix tuples."""
    elems = list(ring.elements())
    count = 0
    for total in range(budget.max_total_dim + 1):
        for dims_vec in sorted(oracle._dim_vectors(len(q.vertices), total)):
            dims = dict(zip(q.vertices, dims_vec))
            shapes = [(eid, dims[dst], dims[src]) for eid, src, dst in q.edges]
            entries = sum(r * c for _, r, c in shapes)
            if skip is not None and skip(dims):
                size = len(elems) ** entries
                count += size
                if count > budget.max_reps:
                    raise BudgetExceeded(f"representation cap {budget.max_reps} exceeded")
                yield size
                continue
            for flat in product(elems, repeat=entries):
                maps, pos = {}, 0
                for eid, r, c in shapes:
                    maps[eid] = tuple(
                        flat[pos + i * c : pos + (i + 1) * c] for i in range(r)
                    )
                    pos += r * c
                count += 1
                if count > budget.max_reps:
                    raise BudgetExceeded(f"representation cap {budget.max_reps} exceeded")
                yield Representation(q, ring, dims, maps)


def conjugate(e, rng):
    """u e u^-1 for u = 1 + n, n a sum of two random path terms (none on a
    quiver without edges)."""
    q, ring = e.quiver, e.ring
    one = vertex_idempotent(q, ring, q.vertices)
    paths = [p for p in q.all_paths() if p.edges]
    terms = {rng.choice(paths): rng.randrange(1, ring.modulus) for _ in range(2)} if paths else {}
    n = AlgElem.make(q, ring, terms)
    # n lies in the arrow ideal, so (1 + n)^-1 = sum of (-n)^k
    inverse, power = one, one
    for _ in range(len(q.vertices)):
        power = power * n.scale(-1)
        inverse = inverse + power
    assert inverse * (one + n) == one
    return (one + n) * e * inverse
