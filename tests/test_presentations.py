"""Quotient-ring builder: parser, stabilization, and verified emission."""

import time
import tracemalloc

import numpy as np
import pytest

from finring.abelian import CoordGroup
from finring.corpus import corpus
from finring.errors import PresentationError
from finring.iso import is_isomorphic
from finring.howell import howell
from finring.presentation import (
    _coset_basis,
    _harvest,
    _ncols,
    _pmul,
    build_from_text,
    bounded_ideal_span,
    build_ring,
    degree_bound,
    parse_presentation,
    presentation_build,
)
from finring.properties import is_reversible, is_symmetric
from finring.table import RingTable, ideal_generated, quotient


# -- relation parser ----------------------------------------------------------


def test_juxtaposition_and_caret_binding():
    # ^ binds to the letter immediately before it, not the whole word
    P = parse_presentation("F2<u,v>/(uv^2)")
    assert P.relations == ((((0, 1, 1), 1),),)


def test_multi_letter_generators_split_longest_first():
    P = parse_presentation("F2<uv,u,v>/(uvu^2)")
    assert P.relations == ((((0, 1, 1), 1),),)
    P = parse_presentation("F2<a,ab,b>/(aab)")
    assert P.relations == ((((0, 1), 1),),)
    with pytest.raises(PresentationError, match="position 8"):
        parse_presentation("F2<u>/(uw)")


def test_parenthesized_power():
    P = parse_presentation("F2<u,v>/((uv)^2)")
    assert P.relations == ((((0, 1, 0, 1), 1),),)


def test_integer_coefficients_and_unary_minus():
    P = parse_presentation("Z4<u,v>/(2-uv,-u)")
    assert P.relations == (
        (((), 2), ((0, 1), 3)),
        (((0,), 3),),
    )


def test_coefficients_reduce_mod_base():
    # 2u + 2u = 4u = 0 in Z4: the relation cancels away entirely
    P = parse_presentation("Z4<u>/(2u+2u,u^2)")
    assert P.relations == ((((0, 0), 1),),)


def test_max_degree_and_generator_fields():
    P = parse_presentation("F2<u,v>/(u^3,v^2)")
    assert P.max_degree() == 3
    assert P.gens == ("u", "v")


@pytest.mark.parametrize(
    "text",
    [
        "Z6<x>/(x^2)",  # unsupported coefficient ring
        "F2(x)/(x)",  # missing generator list
        "F2<u,u>/(u)",  # duplicate generator
        "F2<u1>/(u1)",  # non-alphabetic generator name
        "F2<u>/(w)",  # relation mentions unknown name
        "F2<u>/(u^2)x",  # trailing junk
        "F2<u>/(u\u00b2)",  # superscript digit, not a decimal exponent
    ],
)
def test_parser_rejects_malformed_input(text):
    with pytest.raises(PresentationError):
        parse_presentation(text)


# -- builds at known orders ---------------------------------------------------

KNOWN_ORDERS = [
    ("F2<x>/(x^2)", 4),
    ("F2<u,v>/(u^3,v^3,vu,u^2-uv,v^2-uv)", 16),
    ("Z4<u,v>/(u^3,v^2,vu,u^2-uv,2-uv,2u,2v)", 16),
    ("F2<u,v>/(u^4,uv,vu-u^3,v^2-u^3)", 32),  # rewriting raises word degree
    ("Z4<u,v>/(u^4,uv,vu-u^3,v^2,u^2-2-2u)", 32),
    ("F2<u,v>/(u^3,v^2,u^2+uv+vu,uvu)", 32),
    ("F2<u,v>/(u^2,v^2,uvu-vuv)", 64),
]


@pytest.mark.parametrize("text,order", KNOWN_ORDERS)
def test_builds_at_cross_checked_order(text, order):
    R = build_from_text(text)
    assert R.order == order


def test_build_metadata_cached():
    R = build_from_text("F2<u,v>/(u^3,v^2,u^2+uv+vu,uvu)")
    pb = presentation_build(R)
    assert pb.degree == 2
    assert pb.basis_words == ((), (0,), (1,), (0, 0), (0, 1))
    assert 2 ** len(pb.basis_words) == R.order
    gens = pb.generator_elements
    assert len(gens) == 2
    assert len(set(gens)) == 2
    assert all(g != R.zero and g != R.one for g in gens)
    assert presentation_build(quotient(R, ideal_generated(R, gens))) is None


def test_rebuild_at_higher_degree_gives_isomorphic_ring():
    text = "F2<u,v>/(u^3,v^2,u^2+uv+vu,uvu)"
    R1 = build_from_text(text)
    d = presentation_build(R1).degree
    R2 = build_ring(parse_presentation(text), min_degree=d + 2)
    assert presentation_build(R2).degree >= d + 2
    assert R2.order == R1.order
    assert is_isomorphic(R1, R2).isomorphic is True


# -- the two-generator order-256 family --------------------------------------

FOUR_REL = "F2<u,v>/(u^3,v^3,u^2+v^2+vu,vu^2+uvu+vuv)"
FIVE_REL = "F2<u,v>/(u^3,v^3,u^2+v^2+vu,vu^2+uvu+vuv,u^2vu)"


@pytest.fixture(scope="module")
def four_rel_ring():
    return build_from_text(FOUR_REL)


def test_four_relation_quotient_has_order_512(four_rel_ring):
    assert four_rel_ring.order == 512


def test_four_relation_quotient_is_not_reversible(four_rel_ring):
    R = four_rel_ring
    # independent witness scan: some ab = 0 with ba != 0
    zero_prod = R.mul == R.zero
    assert bool((zero_prod & ~zero_prod.T).any())
    assert is_reversible(R) is False


def test_socle_relation_cuts_512_down_to_the_reversible_256(four_rel_ring):
    R = four_rel_ring
    u, v = presentation_build(R).generator_elements
    w = R.mul[R.mul[R.mul[u, u], v], u]  # the word u^2vu
    assert w != R.zero
    I = ideal_generated(R, [w])
    assert len(I) == 2
    Q = quotient(R, I)
    assert Q.order == 256
    assert is_reversible(Q) is True
    assert is_symmetric(Q) is False


def test_five_relation_text_builds_the_256_ring_directly():
    R = build_from_text(FIVE_REL)
    assert R.order == 256
    assert is_reversible(R) is True


# -- table emission against the tensor oracle --------------------------------


def reference_label(vec, basis_words, gens):
    parts = []
    for c, w in zip(vec, basis_words):
        if not c:
            continue
        word = "".join(gens[i] for i in w) if w else ""
        if not word:
            parts.append(str(int(c)))
        elif c == 1:
            parts.append(word)
        else:
            parts.append(f"{int(c)}{word}")
    return "+".join(parts) if parts else "0"


def reference_tables(R):
    """R rebuilt by the tensor emission: every sum and product of two box
    vectors at once as (n, n, s) arrays, reduced and encoded, and each label
    read off its element's coordinates."""
    pb = presentation_build(R)
    P = pb.presentation
    cb = _coset_basis(P, pb.matrix)
    grp = CoordGroup(cb.ranges)
    V = grp.dec
    mul = grp.encode(cb.reduce(np.einsum("xa,yb,abw->xyw", V, V, cb.T, optimize=True)))
    add = grp.encode(cb.reduce(V[:, None, :] + V[None, :, :]))
    labels = [reference_label(V[x], cb.words, P.gens) for x in range(grp.n)]
    return RingTable(grp.n, labels, add, mul, 0, int(grp.encode(cb.one)))


CATALOG_PRESENTATIONS = {e.name: e.recipe for e in corpus() if "<" in e.recipe}
EMISSION_TEXTS = [
    *CATALOG_PRESENTATIONS.values(),
    FOUR_REL,
    "F3<x>/(x^2)",
    "F3<u,v>/(u^2,v^2,uv+vu)",
    "Z8<x>/(x^2)",
    "Z8<x>/(x^2-2,4x)",
    "Z9<x>/(x^2-3)",
    "Z9<x,y>/(x^2,y^2,xy,yx,3x)",
    "F2<x>/(1)",
]


@pytest.mark.parametrize("text", EMISSION_TEXTS)
def test_emitted_tables_equal_the_tensor_oracle(text):
    R = build_from_text(text)
    assert R.table_equal(reference_tables(R))


def test_the_emission_oracle_covers_torsion_pivots():
    torsion = {}
    for name in ("L32c", "S16Z4a"):
        pb = presentation_build(build_from_text(CATALOG_PRESENTATIONS[name]))
        torsion[name] = len(_coset_basis(pb.presentation, pb.matrix).torsion)
    assert torsion == {"L32c": 3, "S16Z4a": 2}


def test_building_the_512_ring_allocates_no_n_n_s_tensor():
    # an (n, n, s) int64 array at n = 512, s = 9 is 18 MiB on its own
    tracemalloc.start()
    try:
        build_from_text(FOUR_REL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("text", EMISSION_TEXTS)
def test_harvest_is_the_howell_form_of_the_trailing_block(text):
    P = parse_presentation(text)
    reldeg = max(1, P.max_degree())
    for E in range(reldeg, min(reldeg + 3, degree_bound(len(P.gens))) + 1):
        HE = bounded_ideal_span(P, E)
        for d in range(1, E + 1):
            off = HE.ncols - _ncols(HE.ngens, d)
            inside = [i for i, (c, _) in enumerate(HE.pivots) if c >= off]
            H, pivots = howell(HE.rows[inside, off:], HE.q)
            B = _harvest(HE, d)
            assert (B.degree, B.ngens, B.q) == (d, HE.ngens, HE.q)
            assert np.array_equal(B.rows, H) and B.pivots == pivots, (E, d)


# -- failure modes ------------------------------------------------------------


def test_free_algebra_is_reported_as_possibly_infinite():
    with pytest.raises(PresentationError, match="possibly infinite"):
        build_from_text("F2<u>/()")


def test_rejected_candidates_are_reported_with_their_first_two_witnesses(monkeypatch):
    # the two candidates the message names fail their axioms; witnesses are
    # computed for them alone, after the search has given up
    import finring.presentation as presentation

    monkeypatch.setattr(presentation, "degree_bound", lambda gens: 4)
    with pytest.raises(PresentationError) as err:
        build_from_text("Z4<u,v>/(u^4,uv,vu-u^3,v^2,u^3-2)")
    fails = "table fails axioms: [('mul_associative', (2, 4, 4)), ('left_distributive', (4, 4, 4))]"
    assert str(err.value) == (
        "possibly infinite ring: quotient size not stabilized by degree 4; "
        f"candidate D=2 E=4: {fails}; candidate D=3 E=4: {fails}"
    )


def test_relation_degree_beyond_engine_bound():
    with pytest.raises(PresentationError, match="beyond engine bound"):
        build_from_text("F2<u>/(u^11)")


def test_a_product_beyond_the_engine_bound_stops_the_parse():
    # (u+v)^40 has 2^40 words; the parse stops at the first power past degree 10
    t0 = time.perf_counter()
    with pytest.raises(PresentationError, match="relation degree 16 beyond engine bound 10"):
        parse_presentation("F2<u,v>/((u+v)^40)")
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("text", [
    "Z4<u,v,w>/((2(u+v+w)^6)(2(u+v+w)^6))",
    "Z4<u,v>/((2(u+v)^10)(2(u+v)^10))",
])
def test_a_product_whose_long_words_all_cancel_is_quick(text):
    # 2x * 2y = 0 over Z4: every word of the product cancels, none is long
    t0 = time.perf_counter()
    assert parse_presentation(text).relations == ()
    assert time.perf_counter() - t0 < 1


def brute_pmul(a, b, q):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out[w1 + w2] = (out.get(w1 + w2, 0) + c1 * c2) % q
    return {w: c for w, c in out.items() if c}


@pytest.mark.parametrize("q,g", [(2, 1), (4, 2), (9, 3), (8, 2)])
def test_pmul_agrees_with_the_pairwise_product(q, g):
    rng = np.random.default_rng(q * 10 + g)

    def poly():
        words = [tuple(rng.integers(g, size=rng.integers(5))) for _ in range(rng.integers(1, 12))]
        return {w: int(rng.integers(1, q)) for w in words}

    for _ in range(30):
        a, b = poly(), poly()
        want = brute_pmul(a, b, q)
        top = max(map(len, want), default=0)
        assert _pmul(a, b, q, g, 8) == want
        if top:
            with pytest.raises(PresentationError, match=f"relation degree {top} beyond"):
                _pmul(a, b, q, g, top - 1)


def test_the_degree_bound_keeps_the_word_module_within_2047_columns():
    assert [degree_bound(g) for g in range(1, 6)] == [10, 10, 6, 5, 4]
    with pytest.raises(PresentationError, match="relation degree 7 beyond engine bound 6"):
        parse_presentation("F2<u,v,w>/(u^7)")


@pytest.mark.parametrize("text", ["F2<u,v,w>/(u^5)", "F2<u,v,w>/(u^3,v^3,w^3)"])
def test_infinite_three_generator_quotients_stop_at_the_degree_bound(text):
    t0 = time.perf_counter()
    with pytest.raises(PresentationError, match="not stabilized by degree 6"):
        build_from_text(text)
    assert time.perf_counter() - t0 < 2


def test_three_generator_exterior_algebra_builds_within_the_bound():
    t0 = time.perf_counter()
    R = build_from_text("F2<u,v,w>/(u^2,v^2,w^2,uv+vu,uw+wu,vw+wv)")
    assert R.order == 256
    assert time.perf_counter() - t0 < 2


def test_powers_are_taken_by_repeated_squaring():
    # (1+2u)^2 = 1 over Z4, so every power of 1+2u is 1
    P = parse_presentation("Z4<u>/((1+2u)^1000000000)")
    assert P.relations == ((((), 1),),)
