"""Decision procedures: MDS, identity checks, diagonal solving, classification."""

import random
from collections import Counter
from itertools import combinations, product

import pytest

from circmds import props
from circmds.circulant import OddOrder, build, inverse_row, is_circulant
from circmds.field import get_field
from circmds.matgf import (
    Singular,
    det,
    diag_trace,
    identity,
    inverse,
    sandwich,
    submatrix,
    transpose,
)
from circmds.props import (
    MOD4_TWO,
    MOD4_ZERO,
    ODD,
    POW2,
    MdsVerdict,
    MinorLayerTooLarge,
    circulant_semi_pair,
    classification_json,
    classify,
    diagonal_scaling_solve,
    is_involutory,
    is_mds,
    is_nonperiodic,
    is_orthogonal,
    matrix_properties_json,
    order_category,
    power_scalar,
    semi_involutory_check,
    semi_orthogonal_check,
)

GF4 = get_field(2, 0x7)
GF8 = get_field(3, 0xB)
F11D = get_field(8, 0x11D)
F11B = get_field(8, 0x11B)

EX1_ROW = (0x02, 0x03, 0x06)
EX2_ROW = (0x01, 0x0B, 0x0B, 0x0A, 0x99)


def random_matrix(rng, gf, n):
    return [[rng.randrange(gf.order) for _ in range(n)] for _ in range(n)]


# -- MDS ---------------------------------------------------------------------------


def test_aes_matrix_is_mds():
    assert is_mds(F11B, build((0x02, 0x03, 0x01, 0x01))).is_mds


def test_identity_not_mds_with_1x1_witness():
    verdict = is_mds(F11B, identity(3))
    assert not verdict.is_mds
    assert verdict.witness == ((0,), (1,))


def test_gf4_2x2_exhaustive_against_definition():
    # independent characterization: MDS iff a != 0, b != 0, a != b
    for a in GF4.elements():
        for b in GF4.elements():
            expect = a != 0 and b != 0 and a != b
            assert is_mds(GF4, build((a, b))).is_mds is expect


def test_witness_minor_is_singular():
    rng = random.Random(30)
    found = 0
    while found < 25:
        A = random_matrix(rng, GF8, 4)
        verdict = is_mds(GF8, A)
        if verdict.is_mds:
            assert verdict.witness is None
            continue
        rows, cols = verdict.witness
        assert det(GF8, submatrix(A, rows, cols)) == 0
        found += 1


def test_mds_invariant_under_transpose_and_diagonal_scaling():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(2, 5)
        A = random_matrix(rng, GF8, n)
        verdict = is_mds(GF8, A).is_mds
        assert is_mds(GF8, transpose(A)).is_mds is verdict
        d1 = [rng.randrange(1, GF8.order) for _ in range(n)]
        d2 = [rng.randrange(1, GF8.order) for _ in range(n)]
        assert is_mds(GF8, sandwich(GF8, d1, A, d2)).is_mds is verdict


def minor_dets(gf, A):
    """Every square minor's determinant in (size, rows, cols) order, with row
    and column sets as increasing tuples in lexicographic order.  A minor is
    expanded along its first row over the minors one size smaller, with
    `mul_raw` only (every sign is 1 in characteristic 2)."""
    n = len(A)
    dets = {((), ()): 1}
    for size in range(1, n + 1):
        for rows in combinations(range(n), size):
            for cols in combinations(range(n), size):
                d = 0
                for idx, c in enumerate(cols):
                    d ^= gf.mul_raw(A[rows[0]][c], dets[rows[1:], cols[:idx] + cols[idx + 1:]])
                dets[rows, cols] = d
                yield (rows, cols), d


def reference_is_mds(gf, A):
    """The MDS definition: the first singular minor is the witness."""
    for witness, d in minor_dets(gf, A):
        if d == 0:
            return MdsVerdict(False, witness)
    return MdsVerdict(True, None)


def _mds_outcome(verdict):
    if verdict.is_mds:
        return "pass"
    return {1: "1x1", 2: "2x2"}.get(len(verdict.witness[0]), "kxk")


def cauchy_matrix(gf, xs, ys):
    """1/(x_i + y_j): MDS whenever the xs and ys are 2n distinct elements."""
    return [[gf.inv(x ^ y) for y in ys] for x in xs]


# GF(2^8)/0x11D first rows whose first singular minor is large: witness size
# 4 and 6 at order 7, and 5 and 8 at order 8, then one MDS row of each order
LARGE_WITNESS_ROWS = (
    (0x5A, 0xA1, 0x6B, 0x78, 0x20, 0xBA, 0xBF),
    (0xB1, 0xEA, 0xE6, 0x94, 0x47, 0x3C, 0x39),
    (0x37, 0xAD, 0xBB, 0x8B, 0x7A, 0xB7, 0x3F, 0x50),
    (0x3C, 0x23, 0xAF, 0x57, 0x23, 0x27, 0x77, 0x94),
    (0x05, 0xF9, 0xDE, 0x43, 0xD9, 0x82, 0x52),
    (0x38, 0xE5, 0x33, 0xC9, 0x64, 0x2E, 0x84, 0xDA),
)


def test_is_mds_matches_definition_and_witness():
    rng = random.Random(40)
    cases = []
    for gf, orders in ((GF4, range(2, 7)), (GF8, range(2, 5))):
        for n in orders:
            cases += [(gf, build(row)) for row in product(range(gf.order), repeat=n)]
    for n in (5, 6, 7):
        for _ in range(6):
            cases.append((F11D, build([rng.randrange(F11D.order) for _ in range(n)])))
    whirlpool = build((0x01, 0x01, 0x04, 0x01, 0x08, 0x05, 0x02, 0x09))
    cauchy = cauchy_matrix(F11D, range(6), range(6, 12))
    assert is_mds(F11D, whirlpool) and is_mds(F11D, cauchy)
    cases += [(F11D, whirlpool), (F11D, cauchy)]
    cases += [(F11D, build(row)) for row in LARGE_WITNESS_ROWS]
    for gf, n, count in ((GF8, 4, 80), (F11D, 3, 40), (F11D, 5, 20)):
        for _ in range(count):
            cases.append((gf, random_matrix(rng, gf, n)))
    census = Counter()
    witness_sizes = set()
    for gf, A in cases:
        verdict = is_mds(gf, A)
        assert verdict == reference_is_mds(gf, A), (gf.m, A)
        census[is_circulant(A), _mds_outcome(verdict)] += 1
        if verdict.witness is not None:
            witness_sizes.add(len(verdict.witness[0]))
    for outcome in ("1x1", "2x2", "kxk", "pass"):
        assert census[True, outcome] > 0, outcome
    for outcome in ("2x2", "kxk", "pass"):
        assert census[False, outcome] > 0, outcome
    assert {4, 5, 6, 8} <= witness_sizes


def test_is_mds_checks_every_row_set_of_a_non_circulant():
    # the singular minors of A all avoid row 0, so the circulant shortcut
    # (row sets through row 0 only) would wrongly pass it
    rng = random.Random(41)
    while True:
        A = random_matrix(rng, F11D, 4)
        singular = [w for w, d in minor_dets(F11D, A) if d == 0]
        if singular and all(rows[0] != 0 for rows, _ in singular):
            break
    assert not is_circulant(A)
    assert is_mds(F11D, A) == MdsVerdict(False, singular[0])


def test_is_mds_refuses_a_layer_above_the_limit(monkeypatch):
    # the largest layer of a non-circulant 4x4 keeps C(3, 2)*C(4, 2) = 18
    # minors of size 2
    A = cauchy_matrix(F11D, range(4), range(4, 8))
    monkeypatch.setattr(props, "MAX_LAYER_MINORS", 18)
    assert is_mds(F11D, A).is_mds
    monkeypatch.setattr(props, "MAX_LAYER_MINORS", 17)
    with pytest.raises(MinorLayerTooLarge, match="size 2"):
        is_mds(F11D, A)


# -- involutory / orthogonal ----------------------------------------------------------


def test_identity_is_involutory_and_orthogonal():
    assert is_involutory(GF8, identity(4))
    assert is_orthogonal(GF8, identity(4))


def test_aes_matrix_neither_involutory_nor_orthogonal():
    A = build((0x02, 0x03, 0x01, 0x01))
    assert not is_involutory(F11B, A)
    assert not is_orthogonal(F11B, A)


def test_swap_matrix_involutory_with_identity_pair():
    A = [[0, 1], [1, 0]]
    assert is_involutory(GF4, A)
    pair = semi_involutory_check(GF4, A)
    assert pair is not None
    assert pair.d1 == (1, 1) and pair.d2 == (1, 1)


def test_orthogonal_implies_semi_orthogonal_with_identity_pair():
    # circulant(a, a+1) with a+b = 1 is orthogonal at order 2
    A = build((2, 3))
    assert is_orthogonal(GF4, A)
    pair = semi_orthogonal_check(GF4, A)
    assert pair is not None
    assert pair.d1 == (1, 1) and pair.d2 == (1, 1)


# -- diagonal_scaling_solve --------------------------------------------------------------


def test_solve_identity_to_identity():
    pair = diagonal_scaling_solve(GF8, identity(3), identity(3))
    assert pair.d1 == (1, 1, 1)
    assert pair.d2 == (1, 1, 1)
    assert pair.anchors == (0, 1, 2)  # one component per diagonal position


def test_solve_zero_pattern_mismatch():
    A = [[1, 0], [1, 1]]
    B = [[1, 1], [1, 1]]
    assert diagonal_scaling_solve(GF8, A, B) is None


def test_solve_recovers_planted_pair_exactly():
    rng = random.Random(32)
    for gf in (GF8, F11D):
        for _ in range(40):
            n = rng.randrange(1, 5)
            A = random_matrix(rng, gf, n)
            d1 = [rng.randrange(1, gf.order) for _ in range(n)]
            d2 = [rng.randrange(1, gf.order) for _ in range(n)]
            B = sandwich(gf, d1, A, d2)
            pair = diagonal_scaling_solve(gf, A, B)
            assert pair is not None
            assert all(v != 0 for v in pair.d1 + pair.d2)
            assert sandwich(gf, pair.d1, A, pair.d2) == B


def test_solve_rejects_non_factorable_ratio():
    # B/A ratio matrix [[1,1],[1,x]] with x != 1 cannot split as d_i * e_j
    A = [[1, 1], [1, 1]]
    B = [[1, 1], [1, 3]]
    assert diagonal_scaling_solve(GF8, A, B) is None


def test_example1_canonical_pair_frozen():
    A = build(EX1_ROW)
    pair = semi_orthogonal_check(F11D, A)
    assert pair.d1 == (1, 1, 1)
    # canonical d2 entry = (first stated d1 entry) * (stated d2 entry) = E2 * 5A
    assert pair.d2 == (0x3E, 0x3E, 0x3E)
    assert pair.anchors == (0,)


def test_example1_matches_stated_pair_up_to_scalar():
    A = build(EX1_ROW)
    pair = semi_orthogonal_check(F11D, A)
    scale = F11D.mul(pair.d1[0], F11D.inv(0xE2))
    inv_scale = F11D.inv(scale)
    for i in range(3):
        assert pair.d1[i] == F11D.mul(scale, 0xE2)
        assert pair.d2[i] == F11D.mul(inv_scale, 0x5A)


def test_scalar_freedom_orbit():
    A = build(EX1_ROW)
    B = transpose(inverse(F11D, A))
    base = diagonal_scaling_solve(F11D, A, B)
    for c in (0x02, 0x5A, 0xFF):
        cinv = F11D.inv(c)
        d1 = [F11D.mul(c, v) for v in base.d1]
        d2 = [F11D.mul(cinv, v) for v in base.d2]
        assert sandwich(F11D, d1, A, d2) == B


def test_reanchoring_gives_constant_quotient():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randrange(2, 5)
        A = [[rng.randrange(1, GF8.order) for _ in range(n)] for _ in range(n)]
        d1 = [rng.randrange(1, GF8.order) for _ in range(n)]
        d2 = [rng.randrange(1, GF8.order) for _ in range(n)]
        B = sandwich(GF8, d1, A, d2)
        low = diagonal_scaling_solve(GF8, A, B)
        high = diagonal_scaling_solve(GF8, A, B, anchor_pick=max)
        quotients = {GF8.mul(h, GF8.inv(l)) for h, l in zip(high.d1, low.d1)}
        assert len(quotients) == 1
        c = quotients.pop()
        cinv = GF8.inv(c)
        assert all(h == GF8.mul(cinv, l) for h, l in zip(high.d2, low.d2))


# -- semi checks on singular input ----------------------------------------------------------


def test_semi_checks_raise_singular():
    A = build((1, 1, 0))  # zero row sum
    with pytest.raises(Singular):
        semi_orthogonal_check(GF4, A)
    with pytest.raises(Singular):
        semi_involutory_check(GF4, A)


# -- power_scalar -----------------------------------------------------------------------------


def test_power_scalar_constant_diagonal():
    c = 0x57
    assert power_scalar(F11D, [c] * 4, 4) == F11D.pow(c, 4)


def test_power_scalar_example1_stated_pair():
    assert power_scalar(F11D, [0xE2] * 3, 3) == 0x60  # 0xE2 cubed


def test_power_scalar_order2_forces_equal_entries():
    # squaring is injective in characteristic 2, so d^2 all-equal means d constant
    for a in GF8.nonzero_elements():
        result = power_scalar(GF8, [1, a], 2)
        assert (result is not None) is (a == 1)


def test_power_scalar_absent_cases():
    # in GF(8)/0xB: 2^3 = 3 and 4^3 = 5, so the cubes {1, 3, 5} disagree
    assert power_scalar(GF8, [1, 2, 4], 3) is None
    assert power_scalar(GF8, [1, 3], 3) is None
    assert power_scalar(GF8, [0, 0], 2) is None  # zero scalar disallowed


# -- nonperiodicity ----------------------------------------------------------------------------


def test_nonperiodic_examples():
    assert is_nonperiodic([1, 2]) is True
    assert is_nonperiodic([7, 7]) is False
    assert is_nonperiodic([5, 5, 5, 5]) is False
    assert is_nonperiodic([1, 2, 3, 1]) is True  # 1!=3 and 2!=1
    assert is_nonperiodic([1, 2, 1, 4]) is False  # d0 == d2


def test_nonperiodic_odd_order_raises():
    with pytest.raises(OddOrder):
        is_nonperiodic([1, 2, 3])


# -- classification -----------------------------------------------------------------------------


@pytest.mark.parametrize("n,cat", [
    (1, ODD), (2, POW2), (3, ODD), (4, POW2), (5, ODD), (6, MOD4_TWO),
    (8, POW2), (10, MOD4_TWO), (12, MOD4_ZERO), (16, POW2), (20, MOD4_ZERO),
])
def test_order_category(n, cat):
    assert order_category(n) == cat


def test_classify_example1():
    cls = classify(F11D, EX1_ROW)
    assert cls.category == ODD
    assert not cls.singular
    assert cls.mds.is_mds
    assert cls.semi_orthogonal.found
    assert cls.semi_orthogonal.trace_d1 != 0
    assert cls.semi_orthogonal.trace_d2 != 0
    assert cls.semi_orthogonal.k1 is not None
    assert cls.semi_orthogonal.k2 is not None
    assert cls.nonperiodic_d1 is None  # odd order


def test_classify_example2_has_zero_trace_pair():
    # this 5x5 instance is semi-orthogonal MDS, yet both diagonal traces
    # vanish; zero trace is invariant under the scalar orbit, so every
    # representative pair shares it
    cls = classify(F11D, EX2_ROW)
    assert cls.category == ODD
    assert cls.mds.is_mds
    assert cls.semi_orthogonal.found
    assert cls.semi_orthogonal.trace_d1 == 0
    assert cls.semi_orthogonal.trace_d2 == 0


def test_classify_singular_row():
    cls = classify(GF4, (1, 1))
    assert cls.singular
    assert not cls.semi_orthogonal.found
    assert not cls.semi_involutory.found
    assert not cls.mds.is_mds


def test_classify_degenerate_1x1():
    cls = classify(GF8, (5,))
    assert cls.category == ODD
    assert cls.mds.is_mds
    assert not cls.involutory  # 5^2 != 1
    one = classify(GF8, (1,))
    assert one.involutory and one.orthogonal


def test_classification_json_shape():
    doc = classification_json(F11D, classify(F11D, EX1_ROW))
    assert doc["schema_version"] == 1
    assert doc["field"] == {"m": 8, "poly": "0x11D"}
    assert doc["first_row"] == ["0x02", "0x03", "0x06"]
    assert doc["mds"] is True and doc["mds_witness"] is None
    assert doc["semi_orthogonal"]["found"] is True
    assert doc["semi_orthogonal"]["trace_d1"] == "0x01"
    assert doc["semi_orthogonal"]["d1"] == ["0x01", "0x01", "0x01"]
    assert doc["category"] == "ODD"
    assert doc["nonperiodic_d1"] is None


def test_classify_even_order_fills_nonperiodic_flags():
    # scan GF(4) order 2 for a semi-orthogonal instance and check the flags
    seen = False
    for a in GF4.elements():
        for b in GF4.elements():
            cls = classify(GF4, (a, b))
            if cls.semi_orthogonal.found:
                seen = True
                assert cls.nonperiodic_d1 in (True, False)
                assert cls.nonperiodic_d2 in (True, False)
    assert seen


def test_row_and_matrix_records_agree_exhaustively():
    # the two inputs of the property evaluator, record for record: the
    # circulant fast path of a first row against the dense path of its matrix
    with_flags = 0
    for gf, orders in ((GF4, range(1, 6)), (GF8, range(1, 5))):
        for n in orders:
            for row in product(range(gf.order), repeat=n):
                want = classification_json(gf, classify(gf, row))
                got = matrix_properties_json(gf, build(row))
                assert got.pop("circulant") is True
                assert got.pop("matrix") == [[gf.format_element(v) for v in r]
                                             for r in build(row)]
                assert got == want, (gf.m, row)
                with_flags += want["nonperiodic_d1"] is not None
    assert with_flags == 1060


# -- exhaustive cross-check against the brute-force oracle (small) ----------------------------


def test_gf4_n2_solver_agrees_with_oracle():
    from circmds.verify import oracle_semi_search

    for a in GF4.elements():
        for b in GF4.elements():
            A = build((a, b))
            try:
                fast_si = semi_involutory_check(GF4, A)
                fast_so = semi_orthogonal_check(GF4, A)
            except Singular:
                continue
            slow_si = oracle_semi_search(GF4, A, "involutory")
            slow_so = oracle_semi_search(GF4, A, "orthogonal")
            assert (fast_si is None) == (slow_si is None)
            assert (fast_so is None) == (slow_so is None)


# -- circulant fast path against the dense reference ---------------------------------------

AGREEMENT_SPACES = (
    [(2, 0x7, n) for n in range(2, 8)]
    + [(3, 0xB, n) for n in range(2, 6)]
    + [(4, 0x13, 3)]
)


def _agreement_census(space):
    """Check `inverse_row` and `circulant_semi_pair` against the dense inverse
    and the generic solver on every first row of one (m, poly, n) space, and
    count the branch behind each outcome on a nonsingular row."""
    m, poly, n = space
    gf = get_field(m, poly)
    census = Counter()
    for row in product(range(gf.order), repeat=n):
        A = build(row)
        try:
            Ainv = inverse(gf, A)
        except Singular:
            Ainv = None
        assert inverse_row(gf, row) == (None if Ainv is None else tuple(Ainv[0]))
        for relation in ("involutory", "orthogonal"):
            pair = circulant_semi_pair(gf, row, relation)
            if Ainv is None:
                assert pair is None
                continue
            target = Ainv if relation == "involutory" else transpose(Ainv)
            assert pair == diagonal_scaling_solve(gf, A, target), (space, row, relation)
            if all(row):
                if pair is not None:
                    census[relation, "mu=1" if set(pair.d1) == {1} else "mu!=1"] += 1
            elif any((x == 0) != (y == 0) for x, y in zip(row, target[0])):
                census[relation, "pattern-reject"] += 1
            elif pair is not None:
                census[relation, "solver-found"] += 1
    return census


def test_circulant_semi_pair_agrees_with_dense_path_exhaustively():
    census = {space: _agreement_census(space) for space in AGREEMENT_SPACES}
    total = sum(census.values(), Counter())
    for relation in ("involutory", "orthogonal"):
        for branch in ("mu=1", "pattern-reject", "solver-found"):
            assert total[relation, branch] > 0, (relation, branch)
    # semi-orthogonal pairs with a nontrivial root of unity
    assert census[2, 0x7, 6]["orthogonal", "mu!=1"] == 108
    assert census[4, 0x13, 3]["orthogonal", "mu!=1"] == 360
    assert (census[2, 0x7, 6]["involutory", "solver-found"]
            + census[2, 0x7, 6]["orthogonal", "solver-found"]) == 336


def test_circulant_semi_pair_rejects_unknown_relation():
    with pytest.raises(ValueError):
        circulant_semi_pair(GF4, (1, 2), "sideways")
