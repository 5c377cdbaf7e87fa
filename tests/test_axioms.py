"""The generator-based axiom check against the exhaustive scan it replaces."""

import itertools

import importlib

import numpy as np
import pytest

from finring.construct import cyclic
from finring.corpus import corpus
from finring.enumeration import enumerate_unital
from finring.table import (
    RingTable,
    _additive_generators,
    _laws_hold_on_generators,
    _row_blocks,
    _scan_axioms,
    _two_variable_violations,
    opposite,
    verify_axioms,
)

table = importlib.import_module("finring.table")
SMALL_CATALOG = [e for e in corpus() if e.order <= 128]
THREE_VARIABLE_LAWS = ("add_associative", "mul_associative", "left_distributive",
                       "right_distributive")


def with_tables(R, add=None, mul=None):
    return RingTable(R.order, R.labels, R.add if add is None else add,
                     R.mul if mul is None else mul, R.zero, R.one)


def single_entry_perturbations(R, rng, count):
    """count seeded copies of R with one entry of add, and count with one of mul, changed."""
    n = R.order
    for which in ("add", "mul"):
        for _ in range(count):
            a, b = (int(i) for i in rng.integers(0, n, size=2))
            t = getattr(R, which).copy()
            t[a, b] = (int(t[a, b]) + int(rng.integers(1, n))) % n
            yield with_tables(R, **{which: t})


def symmetric_add_perturbations(R, rng, count):
    """Copies of R whose addition has x+y = y+x changed to another nonzero value.

    The result keeps commutativity, the identity and an inverse for every
    element (no zero entry is touched), so it reaches the generator check.
    """
    n = R.order
    cells = np.argwhere((R.add != R.zero) & (np.arange(n)[:, None] != R.zero)
                        & (np.arange(n)[None, :] != R.zero))
    for i in rng.choice(len(cells), size=min(count, len(cells)), replace=False):
        a, b = (int(v) for v in cells[i])
        t = R.add.copy()
        new = (int(t[a, b]) + int(rng.integers(1, n))) % n
        if new == R.zero:
            new = int(t[a, b])
        t[a, b] = t[b, a] = new
        yield with_tables(R, add=t)


def assert_agrees(S):
    fast, scan = verify_axioms(S), _scan_axioms(S)
    assert fast == scan
    if not _two_variable_violations(S):
        assert _laws_hold_on_generators(S) == scan.passed


def reference_witnesses(R):
    """First (a, b, c) in lexicographic order breaking each three-variable law, in plain Python."""
    n, add, mul = R.order, R.add.tolist(), R.mul.tolist()
    laws = {
        "add_associative": lambda a, b, c: add[add[a][b]][c] == add[a][add[b][c]],
        "mul_associative": lambda a, b, c: mul[mul[a][b]][c] == mul[a][mul[b][c]],
        "left_distributive": lambda a, b, c: mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]],
        "right_distributive": lambda a, b, c: mul[add[a][b]][c] == add[mul[a][c]][mul[b][c]],
    }
    out = []
    for law in THREE_VARIABLE_LAWS:
        holds = laws[law]
        for w in itertools.product(range(n), repeat=3):
            if not holds(*w):
                out.append((law, w))
                break
    return out


def check_perturbed_catalog_ring(entry):
    R = entry.build()
    assert verify_axioms(R) == _scan_axioms(R)
    rng = np.random.default_rng(R.order)
    count = 4 if R.order >= 128 else 12
    for S in single_entry_perturbations(R, rng, count):
        assert_agrees(S)
    for S in symmetric_add_perturbations(R, rng, count):
        assert_agrees(S)


def check_perturbed_small_rings(order):
    rng = np.random.default_rng(order)
    for R in enumerate_unital(order):
        assert verify_axioms(R).passed
        for S in single_entry_perturbations(R, rng, 24):
            assert_agrees(S)
        for S in symmetric_add_perturbations(R, rng, 24):
            assert_agrees(S)


@pytest.mark.parametrize("entry", SMALL_CATALOG, ids=lambda e: e.name)
def test_fast_check_agrees_with_scan_on_perturbed_catalog_rings(entry):
    check_perturbed_catalog_ring(entry)


@pytest.mark.parametrize("order", [4, 8, 9])
def test_fast_check_agrees_with_scan_on_perturbed_small_rings(order):
    check_perturbed_small_rings(order)


# With 16 entries per take block, every ring of order >= 8 (and Z2 x Z2)
# checks its generators in more than one block, and from order 8 on each
# paired read of a generator block spans more than one row block.
SMALL_TAKE_ENTRIES = 16


def test_the_small_cap_splits_generator_and_row_blocks():
    for entry in SMALL_CATALOG:
        R = entry.build()
        n, k = R.order, len(_additive_generators(R))
        if n >= 8:
            assert len(list(_row_blocks(k, n * n, SMALL_TAKE_ENTRIES))) == k > 1, entry.name
            assert len(list(_row_blocks(n, n, SMALL_TAKE_ENTRIES))) > 1, entry.name


@pytest.mark.parametrize("entry", SMALL_CATALOG, ids=lambda e: e.name)
def test_fast_check_agrees_with_scan_in_small_take_blocks(entry, monkeypatch):
    monkeypatch.setattr(table, "_TAKE_ENTRIES", SMALL_TAKE_ENTRIES)
    check_perturbed_catalog_ring(entry)


@pytest.mark.parametrize("order", [4, 8, 9])
def test_fast_check_agrees_with_scan_on_small_rings_in_small_take_blocks(order, monkeypatch):
    monkeypatch.setattr(table, "_TAKE_ENTRIES", SMALL_TAKE_ENTRIES)
    check_perturbed_small_rings(order)


def test_every_single_entry_change_of_order_four_rings_gets_the_first_witnesses():
    for R in enumerate_unital(4):
        for which in ("add", "mul"):
            for a, b, v in itertools.product(range(4), range(4), range(4)):
                t = getattr(R, which).copy()
                if t[a, b] == v:
                    continue
                t[a, b] = v
                S = with_tables(R, **{which: t})
                rep = verify_axioms(S)
                assert rep == _scan_axioms(S)
                got = [(law, w) for law, w in rep.violations if law in THREE_VARIABLE_LAWS]
                assert got == reference_witnesses(S)


def unital_tables(add, zero, one):
    """Every multiplication on a set of n elements with the given unity and zero."""
    n = len(add)
    free = [(a, b) for a in range(n) for b in range(n) if zero not in (a, b) and one not in (a, b)]
    base = np.zeros((n, n), dtype=np.int16)
    base[one, :] = base[:, one] = np.arange(n)
    base[zero, :] = base[:, zero] = zero
    for values in itertools.product(range(n), repeat=len(free)):
        mul = base.copy()
        for cell, v in zip(free, values):
            mul[cell] = v
        yield RingTable(n, [str(i) for i in range(n)], add, mul, zero, one)


@pytest.mark.parametrize("add", [cyclic(4).add, np.bitwise_xor.outer(np.arange(4), np.arange(4))],
                         ids=["Z4", "Z2xZ2"])
def test_fast_check_agrees_with_scan_on_every_unital_multiplication_of_order_four(add):
    for S in unital_tables(add, 0, 1):
        assert_agrees(S)


def test_fast_check_agrees_with_scan_on_every_unital_bilinear_product_on_f2_cubed():
    # x, y and 1 = e0 form a basis of F2^3 (element i has bits i); the four
    # products of x and y fix a bilinear product, associative or not
    add = np.bitwise_xor.outer(np.arange(8), np.arange(8))
    bits = (np.arange(8)[:, None] >> np.arange(3)) & 1
    for xx, xy, yx, yy in itertools.product(range(8), repeat=4):
        basis = np.array([[1, 2, 4], [2, xx, xy], [4, yx, yy]])
        mul = np.zeros((8, 8), dtype=np.int64)
        for i, j in itertools.product(range(3), repeat=2):
            mul ^= np.outer(bits[:, i], bits[:, j]) * basis[i, j]
        assert_agrees(RingTable(8, [str(i) for i in range(8)], add, mul, 0, 1))


def test_fast_check_agrees_with_scan_on_every_commutative_loop_addition_of_order_four():
    # every symmetric addition with identity 0; where each row also holds a
    # 0, only Light's test stands between a non-associative loop and a pass
    n = 4
    mul = cyclic(n).mul
    upper = [(a, b) for a in range(1, n) for b in range(a, n)]
    for values in itertools.product(range(n), repeat=len(upper)):
        add = np.zeros((n, n), dtype=np.int16)
        add[0, :] = add[:, 0] = np.arange(n)
        for (a, b), v in zip(upper, values):
            add[a, b] = add[b, a] = v
        S = RingTable(n, [str(i) for i in range(n)], add, mul, 0, 1)
        assert_agrees(S)


def test_addition_without_a_generating_set_falls_back_to_the_scan():
    # x + x = 0 and x + y = 0 for distinct nonzero x, y: commutative, with an
    # identity and inverses, but every span is {0, x}, so no log-size G exists
    n = 8
    add = np.zeros((n, n), dtype=np.int16)
    add[0, :] = add[:, 0] = np.arange(n)
    S = with_tables(cyclic(n), add=add)
    assert not _two_variable_violations(S)
    assert _additive_generators(S) is None
    rep = verify_axioms(S)
    assert rep == _scan_axioms(S)
    assert "add_associative" in rep.law_names()


def test_addition_that_is_not_a_group_is_rejected_with_the_scan_witness():
    # Z5 with 1+1 = 3: commutative, with identity and inverses, but
    # (1+1)+3 = 1 while 1+(1+3) = 0
    R = cyclic(5)
    add = R.add.copy()
    add[1, 1] = 3
    S = with_tables(R, add=add)
    assert not _two_variable_violations(S)
    assert not _laws_hold_on_generators(S)
    rep = verify_axioms(S)
    assert rep == _scan_axioms(S)
    assert rep.law_names()[0] == "add_associative"


def test_order_one_ring_has_an_empty_generating_set():
    R = cyclic(1)
    G = _additive_generators(R)
    assert G.dtype == np.intp and G.shape == (0,)
    assert _laws_hold_on_generators(R)
    assert verify_axioms(R).passed


def zero_symmetric_near_ring(add):
    """M0(A): the self-maps of the group A (zero 0) that fix 0, with pointwise
    + and composition (fg)(x) = f(g(x)) as the product.

    (f+g)h = fh+gh holds, but h(f+g) = hf+hg fails as soon as some h is not
    additive, so it is a near-ring with exactly one distributive law.
    """
    m = len(add)
    maps = np.array([(0, *images) for images in itertools.product(range(m), repeat=m - 1)])
    weights = m ** np.arange(m - 2, -1, -1)

    def index(images):
        return images[..., 1:] @ weights

    ids = np.arange(len(maps))
    total = index(add[maps[:, None, :], maps[None, :, :]])
    composed = index(maps[ids[:, None, None], maps[None, :, :]])
    return RingTable(len(maps), [f"f{i}" for i in ids], total, composed,
                     index(np.zeros(m, dtype=int)), index(np.arange(m)))


@pytest.mark.parametrize("add", [cyclic(3).add, np.bitwise_xor.outer(np.arange(4), np.arange(4))],
                         ids=["Z3", "Z2xZ2"])
def test_near_rings_fail_exactly_one_distributive_law(add):
    R = zero_symmetric_near_ring(add)
    assert R.order == len(add) ** (len(add) - 1)
    for S, law in ((R, "left_distributive"), (opposite(R), "right_distributive")):
        assert not _two_variable_violations(S)
        assert not _laws_hold_on_generators(S)
        rep = verify_axioms(S)
        assert rep == _scan_axioms(S)
        assert [name for name in rep.law_names() if name in THREE_VARIABLE_LAWS] == [law]


# -- one-generator violations ---------------------------------------------------
#
# The perturbation oracles change random entries, which break a law at many
# generators at once.  Here one factor of a direct product breaks one law and
# the F2 factors break none, so only the generators of G inside that factor
# see the violation: a generator check that skips one passes some of these.

F2 = (np.bitwise_xor.outer(np.arange(2), np.arange(2)), np.multiply.outer(np.arange(2), np.arange(2)))


def _with_products(add, products):
    """add, and the product with zero 0, unity 1 and the given other products."""
    n = len(add)
    mul = np.zeros((n, n), dtype=np.int64)
    mul[1, :] = mul[:, 1] = np.arange(n)
    for (a, b), v in products.items():
        mul[a, b] = v
    return add, mul


# Z3 with 2*2 = 2: unital and zero-annihilating, neither distributive law
B3 = _with_products(cyclic(3).add, {(2, 2): 2})
# Z2 x Z2 = {0, 1, u, 1+u} with u*u = u*(1+u) = 0, (1+u)*u = u, (1+u)^2 = 1+u:
# x -> xc is additive for each c, c -> xc is not
LEFT_ONLY = _with_products(np.bitwise_xor.outer(np.arange(4), np.arange(4)),
                           {(2, 2): 0, (2, 3): 0, (3, 2): 2, (3, 3): 3})


def _bilinear_on_f2_cubed(xx, xy, yx, yy):
    # the product of test_fast_check_agrees_with_scan_on_every_unital_bilinear_product_on_f2_cubed
    add = np.bitwise_xor.outer(np.arange(8), np.arange(8))
    bits = (np.arange(8)[:, None] >> np.arange(3)) & 1
    basis = np.array([[1, 2, 4], [2, xx, xy], [4, yx, yy]])
    mul = np.zeros((8, 8), dtype=np.int64)
    for i, j in itertools.product(range(3), repeat=2):
        mul ^= np.outer(bits[:, i], bits[:, j]) * basis[i, j]
    return add, mul


# y*y = 1 and every other product of x, y zero: (yy)x = x but y(yx) = 0
NON_ASSOCIATIVE = _bilinear_on_f2_cubed(0, 0, 0, 1)


def direct_product(factors):
    """The RingTable of the product of (add, mul) tables with zero 0 and
    unity 1 each, built by hand: direct_sum would check it.  Element x has
    digit x // stride_i % d_i in factor i, the first factor lowest."""
    sizes = [len(add) for add, _ in factors]
    strides = np.cumprod([1] + sizes[:-1])
    x = np.arange(int(np.prod(sizes)))
    digits = [x // s % d for s, d in zip(strides, sizes)]
    add, mul = (
        sum(s * np.asarray(f[t])[d[:, None], d[None, :]] for s, d, f in zip(strides, digits, factors))
        for t in (0, 1)
    )
    return RingTable(len(x), [str(v) for v in x], add, mul, 0, int(strides.sum()))


def one_factor_products(factor):
    """F2^a x factor x F2^b for a + b + 1 = k = 1..4, the factor at each of k places."""
    for k in range(1, 5):
        for place in range(k):
            yield direct_product([F2] * place + [factor] + [F2] * (k - 1 - place))


@pytest.mark.parametrize(
    "factor, laws",
    [
        (B3, ["left_distributive", "right_distributive"]),
        (LEFT_ONLY, ["left_distributive"]),
        (NON_ASSOCIATIVE, ["mul_associative"]),
    ],
    ids=["B3", "left_distributivity", "mul_associativity"],
)
def test_fast_check_agrees_with_scan_when_one_factor_breaks_a_law(factor, laws):
    orders = []
    for T in one_factor_products(factor):
        rep = verify_axioms(T)
        assert rep == _scan_axioms(T)
        assert [law for law in rep.law_names() if law in THREE_VARIABLE_LAWS] == laws
        assert not _two_variable_violations(T) and not _laws_hold_on_generators(T)
        orders.append(T.order)
    n = len(factor[0])
    assert orders == [n * 2 ** (k - 1) for k in range(1, 5) for _ in range(k)]
