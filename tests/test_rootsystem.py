import pytest

from tropicone.rootsystem import (
    CartanType,
    RootSystemError,
    cartan_matrix,
    dual_cartan,
    fundamental_weight,
    minuscule_indices,
    positive_roots,
    reflect,
    reflect_root,
    root_table,
    simple_root,
    simple_root_weight,
)


def test_parse_accepts_case_and_whitespace():
    assert CartanType.parse("C3") == CartanType("C", 3)
    assert CartanType.parse("d4") == CartanType("D", 4)
    assert CartanType.parse(" g2 ") == CartanType("G", 2)
    assert str(CartanType.parse("e7")) == "E7"


@pytest.mark.parametrize("bad", ["H3", "C", "3C", "E9", "E5", "F5", "F3", "G3", "B1", "D2", "A0", ""])
def test_parse_rejects(bad):
    with pytest.raises(RootSystemError):
        CartanType.parse(bad)


@pytest.mark.parametrize("family, rank", [("X", 3), ("A", 0), ("E", 9), ("G", 3)])
def test_constructor_rejects(family, rank):
    # parse refuses these before the constructor sees them
    with pytest.raises(RootSystemError):
        CartanType(family, rank)


def test_cartan_matrix_c3(c3):
    assert c3.rows == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert c3.a(2, 3) == -2
    assert c3.a(3, 2) == -1


def test_cartan_matrix_b3(b3):
    assert b3.rows == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))


def test_cartan_matrix_g2(g2):
    assert g2.a(2, 1) == -3
    assert g2.a(1, 2) == -1


def test_cartan_matrix_d4(d4):
    # the central node is 2, attached to 1, 3 and 4
    for j in (1, 3, 4):
        assert d4.a(2, j) == -1
        assert d4.a(j, 2) == -1
    assert d4.a(1, 3) == 0
    assert d4.a(3, 4) == 0


def test_cartan_matrix_f4():
    f4 = cartan_matrix(CartanType.parse("F4"))
    assert f4.rows == ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))


def test_cartan_matrix_e6_branch():
    e6 = cartan_matrix(CartanType.parse("E6"))
    # chain 1..5 plus node 6 hanging off node 3
    assert e6.a(3, 6) == -1 and e6.a(6, 3) == -1
    assert e6.a(5, 6) == 0 and e6.a(1, 6) == 0


def test_dual_cartan_is_transpose(c3, b3):
    assert dual_cartan(b3).rows == c3.rows
    assert dual_cartan(dual_cartan(c3)).rows == c3.rows


def test_fundamental_weight_and_simple_root():
    assert fundamental_weight(3, 2) == (0, 1, 0)
    assert simple_root(4, 4) == (0, 0, 0, 1)
    with pytest.raises(RootSystemError):
        fundamental_weight(3, 4)
    with pytest.raises(RootSystemError):
        simple_root(3, 0)


def test_simple_root_weight_is_cartan_column(c3):
    assert simple_root_weight(c3, 2) == (-1, 2, -1)
    assert simple_root_weight(c3, 3) == (0, -2, 2)


def test_reflect_c3(c3):
    lam2 = fundamental_weight(3, 2)
    assert reflect(c3, 2, lam2) == (1, -1, 1)
    # s_j fixes Lambda_i for j != i
    assert reflect(c3, 1, lam2) == lam2
    assert reflect(c3, 3, lam2) == lam2


def test_reflect_negates_pairing(c3):
    lam = (2, -1, 3)
    for j in (1, 2, 3):
        assert reflect(c3, j, lam)[j - 1] == -lam[j - 1]


def test_reflect_root_g2(g2):
    a1 = simple_root(2, 1)
    a2 = simple_root(2, 2)
    assert reflect_root(g2, 2, a1) == (1, 3)
    assert reflect_root(g2, 1, a2) == (1, 1)
    assert reflect_root(g2, 1, a1) == (-1, 0)


def test_root_sign_predicates(c3, g2):
    # the positivity test is inline in positive_roots and validate_word:
    # nonzero, and no negative coefficient
    roots = positive_roots(c3)
    assert (1, 2, 1) in roots and (2, 2, 1) in roots
    assert (0, 0, 0) not in roots and (1, -1, 0) not in roots
    assert all(reflect_root(c3, j, simple_root(3, j)) not in roots for j in (1, 2, 3))
    assert positive_roots(g2) == {(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)}


@pytest.mark.parametrize(
    "name,count",
    [
        ("A1", 1),
        ("A3", 6),
        ("A5", 15),
        ("B3", 9),
        ("B4", 16),
        ("C3", 9),
        ("C5", 25),
        ("D4", 12),
        ("D5", 20),
        ("G2", 6),
        ("F4", 24),
        ("E6", 36),
        ("E7", 63),
        ("E8", 120),
    ],
)
def test_positive_root_counts(name, count):
    cd = cartan_matrix(CartanType.parse(name))
    roots = positive_roots(cd)
    assert len(roots) == count
    assert all(any(r) and min(r) >= 0 for r in roots)
    # every entry of the root table against reflect_root, on the roots and on the coroots
    table, dual = root_table(cd), dual_cartan(cd)
    assert table.positive == count and len(table.roots) == 2 * count
    assert table.roots[: cd.n] == tuple(simple_root(cd.n, j) for j in range(1, cd.n + 1))
    assert table.roots[count:] == tuple(tuple(-x for x in r) for r in table.roots[:count])
    for j, row in enumerate(table.reflections, start=1):
        for r, s in enumerate(row):
            assert table.roots[s] == reflect_root(cd, j, table.roots[r])
            assert table.coroots[s] == reflect_root(dual, j, table.coroots[r])
    # <beta^vee, beta> = 2, with <alpha_c^vee, alpha_c'> = a_{c,c'}
    for beta, gamma in zip(table.roots, table.coroots):
        assert sum(g * a * b for g, row in zip(gamma, cd.rows) for a, b in zip(row, beta)) == 2


@pytest.mark.parametrize(
    "name,expected",
    [
        ("A3", {1, 2, 3}),
        ("B3", {3}),
        ("C3", {1}),
        ("D4", {1, 3, 4}),
        ("D5", {1, 4, 5}),
        ("E6", {1, 5}),
        ("E7", {1}),
        ("E8", set()),
        ("F4", set()),
        ("G2", set()),
    ],
)
def test_minuscule_indices(name, expected):
    cd = cartan_matrix(CartanType.parse(name))
    assert minuscule_indices(cd) == frozenset(expected)
