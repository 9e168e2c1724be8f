from fractions import Fraction
from itertools import product

import pytest

from pathidem import oracle
from pathidem.algebra import AlgElem, vertex_idempotent
from pathidem.oracle import BudgetExceeded, OracleBudget
from pathidem.quivers import Path
from pathidem.reps import Representation
from pathidem.rings import Ring
from pathidem.sweep import q_a3, q_arrow, q_isolated

from reference import all_paths, subsets


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
def fresh_plans():
    """An empty `oracle._plan` cache before and after the test, for a test
    that patches what plans are made from (the oracle's listing of dimension
    vectors) or that watches what is planned: the cache lives as long as the
    process."""
    oracle._plan.cache_clear()
    yield
    oracle._plan.cache_clear()


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
    in lexicographic order, that of `enumerate_reps`. `enumerate_reps` yields
    a subsequence, one or more reps per isomorphism class; tests of functions
    on arbitrary reps take their inputs from here. `skip` is that of `enumerate_reps`: a
    dimension vector it accepts yields the number of its matrix tuples."""
    elems = list(ring.elements())
    count = built = 0
    for total in range(budget.max_total_dim + 1):
        # the dimension vectors summing to total, in lexicographic order
        for dims_vec in product(range(total + 1), repeat=len(q.vertices)):
            if sum(dims_vec) != total:
                continue
            dims = dict(zip(q.vertices, dims_vec))
            shapes = [(eid, dims[dst], dims[src]) for eid, src, dst in q.edges]
            entries = sum(r * c for _, r, c in shapes)
            if skip is not None and skip(dims):
                size = len(elems) ** entries
                count += size
                if count > budget.max_reps:
                    raise BudgetExceeded(budget, dims, built)
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
                    raise BudgetExceeded(budget, dims, built)
                built += 1
                yield Representation(q, ring, dims, maps)


def random_coeff(ring, rng):
    """A random coefficient: any residue, or a small fraction over Q."""
    if ring.kind == "Q":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.randrange(ring.modulus)


def conjugate(e, rng):
    """u e u^-1 for u = 1 + n, n a sum of two random path terms (none on a
    quiver without edges), each with a coefficient in 1..m-1 over a ring
    with modulus m, or a nonzero fraction over Q."""
    q, ring = e.quiver, e.ring
    one = vertex_idempotent(q, ring, q.vertices)
    paths = [p for p in all_paths(q) if p.edges]

    def coeff():
        if ring.modulus is None:
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        return rng.randrange(1, ring.modulus)

    terms = {rng.choice(paths): coeff() for _ in range(2)} if paths else {}
    n = AlgElem.make(q, ring, terms)
    # n lies in the arrow ideal, so (1 + n)^-1 = sum of (-n)^k
    inverse, power = one, one
    for _ in range(len(q.vertices)):
        power = power * n.scale(-1)
        inverse = inverse + power
    assert inverse * (one + n) == one
    return (one + n) * e * inverse


def path_term_idempotents(q, ring, rng, count):
    """Up to `count` idempotents e_S + sum of x_p * p, drawn by the rule of
    acceptance test 09 over F_p: a path p of length <= 2 may carry x when
    λ_t(p) * x = x and, if s(p) lies in S, λ_s(p) * x = 0. Over a field every
    λ_v on S is 1, so p must run from outside S into S, and any x != 0 will
    do. S runs over every vertex subset, so non-special elements occur too."""
    paths = [r for r in q.paths_up_to(2, limit=500) if not r.is_trivial]
    vertex_sets = list(subsets(q.vertices))
    found = []
    for _ in range(40 * count):
        s = rng.choice(vertex_sets)
        terms = {Path(vertex=v): 1 for v in s}
        for r in paths:
            if q.path_target(r) in s and q.path_source(r) not in s:
                if rng.random() < 0.6:
                    terms[r] = rng.randrange(1, ring.modulus)
        e = AlgElem.make(q, ring, terms)
        if len(e.terms) > len(s) and e not in found:
            found.append(e)
            if len(found) == count:
                break
    return found
