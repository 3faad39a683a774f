"""Sensitivity spaces, span geometry, and hull gauge computations."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from semidp import dataspace
from semidp.dataspace import (
    DataspaceSpec,
    OneWayMargins,
    conforming_set,
    hamming_distance,
    semi_adjacent_parameter,
)
from semidp.sensitivity import (
    SensitivitySpace,
    brute_force_sensitivity_space,
    cell_count_query,
    contingency_s_dp,
    contingency_s_semi,
    gauge_norm,
    hull_membership,
    lp_sensitivity,
    matrix_to_csv,
    projection_matrix,
    sensitivity_space_to_csv,
    span_basis,
    validate_projection,
)

V = (1, -1, -1, 1)
NEG_V = (-1, 1, 1, -1)
ZERO4 = (0, 0, 0, 0)

TABLE_SPACE = DataspaceSpec(n=3, levels=(2, 2))
TABLE_INV = OneWayMargins((0, 1))
TABLE_T = ((2, 1), (2, 1))  # margins of the table (1,1,1,0)


def test_two_by_two_generators_exact():
    space = contingency_s_semi(2, 2)
    assert set(space.vectors) == {ZERO4, V, NEG_V}


def test_generator_count_formula():
    # independent enumerate-and-dedupe oracle over raw index matrices
    def oracle_count(r, c):
        mats = set()
        for i, k in itertools.permutations(range(r), 2):
            for j, l in itertools.permutations(range(c), 2):
                m = [[0] * c for _ in range(r)]
                m[i][j] += 1
                m[k][l] += 1
                m[i][l] -= 1
                m[k][j] -= 1
                mats.add(tuple(tuple(row) for row in m))
        return len(mats)

    for r, c in [(2, 2), (2, 3), (3, 3), (3, 4)]:
        space = contingency_s_semi(r, c)
        assert len(space.nonzero()) == oracle_count(r, c)
        assert len(space.nonzero()) == r * (r - 1) * c * (c - 1) // 2

    assert len(contingency_s_semi(2, 3).nonzero()) == 6


def test_generators_preserve_margins():
    for r, c in [(2, 2), (3, 3), (4, 5)]:
        space = contingency_s_semi(r, c)
        for v in space.vectors:
            table = np.array(v).reshape(r, c)
            assert np.all(table.sum(axis=0) == 0)
            assert np.all(table.sum(axis=1) == 0)


def test_lp_sensitivities_all_small_tables():
    for r in range(2, 6):
        for c in range(2, 6):
            space = contingency_s_semi(r, c)
            assert lp_sensitivity(space, 1) == 4.0
            assert lp_sensitivity(space, 2) == 2.0
            assert lp_sensitivity(space, math.inf) == 1.0


def test_single_move_space_shape_and_sensitivities():
    space = contingency_s_dp(2, 2)
    for v in space.nonzero():
        arr = np.array(v)
        assert sorted(arr) == [-1, 0, 0, 1]
    assert lp_sensitivity(space, 1) == 2.0
    assert lp_sensitivity(space, 2) == pytest.approx(math.sqrt(2.0))
    assert lp_sensitivity(space, math.inf) == 1.0


def test_lp_sensitivity_zero_space():
    zero = SensitivitySpace(vectors=(ZERO4,), ambient_dim=4, provenance="zero")
    assert lp_sensitivity(zero, 2) == 0.0


def test_negation_closure_enforced():
    with pytest.raises(ValueError):
        SensitivitySpace(vectors=((1, 0),), ambient_dim=2, provenance="bad")


def test_brute_force_singleton_subset():
    q = cell_count_query(TABLE_SPACE)
    x = ((1, 1), (1, 2), (2, 1))
    space = brute_force_sensitivity_space(TABLE_SPACE, [x], q, radius=1)
    assert set(space.vectors) == {ZERO4}


def test_brute_force_single_move_vectors():
    # radius 1 over the full dataspace: one record moves between two cells
    space = DataspaceSpec(n=2, levels=(2, 2))
    all_datasets = list(
        itertools.product(itertools.product(*(range(1, 3),) * 2), repeat=2)
    )
    q = cell_count_query(space)
    brute = brute_force_sensitivity_space(space, all_datasets, q, radius=1)
    assert set(brute.vectors) == set(contingency_s_dp(2, 2).vectors)


def test_brute_force_two_by_two_margins_matches_generators():
    subset = conforming_set(TABLE_SPACE, TABLE_INV, TABLE_T)
    radius = semi_adjacent_parameter(TABLE_SPACE, TABLE_INV, TABLE_T)
    assert radius == 3
    q = cell_count_query(TABLE_SPACE)
    brute = brute_force_sensitivity_space(TABLE_SPACE, subset, q, radius)
    assert set(brute.vectors) == set(contingency_s_semi(2, 2).vectors)


def test_three_by_three_distance_three_pairs_add_six_entry_vectors():
    # With all margins equal to one, three records can cycle their second
    # feature simultaneously: the pair stays conforming at Hamming distance
    # 3 = a(t) but the table difference touches six cells, so the
    # four-entry generator family is a strict subset of the full
    # distance-limited difference set in the 3x3 case.
    space = DataspaceSpec(n=3, levels=(3, 3))
    inv = OneWayMargins((0, 1))
    t = ((1, 1, 1), (1, 1, 1))
    subset = conforming_set(space, inv, t)
    radius = semi_adjacent_parameter(space, inv, t)
    assert radius == 3
    brute = brute_force_sensitivity_space(space, subset, cell_count_query(space), radius)
    generators = set(contingency_s_semi(3, 3).vectors)
    assert generators < set(brute.vectors)
    extras = set(brute.vectors) - generators
    assert all(sum(1 for x in v if x != 0) == 6 for v in extras)
    # at radius 2 (plain swaps) the generator family is exactly recovered
    brute2 = brute_force_sensitivity_space(space, subset, cell_count_query(space), 2)
    assert set(brute2.vectors) == generators


def _brute_force_oracle(subset, query, radius):
    return {
        tuple(a - b for a, b in zip(query(x), query(y)))
        for x, y in itertools.product(subset, repeat=2)
        if hamming_distance(x, y) <= radius
    }


@pytest.mark.parametrize("block_pairs", [None, 1000, 1])
def test_brute_force_does_not_depend_on_block_size(block_pairs, monkeypatch):
    if block_pairs is not None:
        monkeypatch.setattr(dataspace, "BLOCK_PAIRS", block_pairs)
    inv = OneWayMargins((0, 1))
    for levels, t in [
        ((2, 2), TABLE_T),
        ((2, 3), ((2, 2), (1, 2, 1))),
        ((3, 3), ((2, 1, 1), (1, 2, 1))),
    ]:
        space = DataspaceSpec(n=sum(t[0]), levels=levels)
        subset = conforming_set(space, inv, t)
        q = cell_count_query(space)
        a_t = semi_adjacent_parameter(space, inv, t)
        for radius in sorted({0, 1, 2, a_t}):
            brute = brute_force_sensitivity_space(space, subset, q, radius)
            assert set(brute.vectors) == _brute_force_oracle(subset, q, radius), (t, radius)


def test_group_space_contains_conforming_space():
    # differences over the conforming subset vs over the whole dataspace
    q = cell_count_query(TABLE_SPACE)
    subset = conforming_set(TABLE_SPACE, TABLE_INV, TABLE_T)
    everything = list(
        itertools.product(itertools.product(*(range(1, 3),) * 2), repeat=3)
    )
    for radius in (1, 2, 3):
        semi = brute_force_sensitivity_space(TABLE_SPACE, subset, q, radius)
        group = brute_force_sensitivity_space(TABLE_SPACE, everything, q, radius)
        assert set(semi.vectors) <= set(group.vectors)
        for p in (1, 2, math.inf):
            assert lp_sensitivity(semi, p) <= lp_sensitivity(group, p)
            assert lp_sensitivity(group, p) <= radius * lp_sensitivity(
                brute_force_sensitivity_space(TABLE_SPACE, everything, q, 1), p
            )


def test_span_basis_two_by_two():
    basis = span_basis(contingency_s_semi(2, 2))
    assert basis.s == 1
    assert np.allclose(basis.vectors[0], np.array([0.5, -0.5, -0.5, 0.5]))


def test_span_basis_full_rank_plane():
    space = SensitivitySpace(
        vectors=((1, 0), (-1, 0), (0, 1), (0, -1)), ambient_dim=2, provenance="axes"
    )
    assert span_basis(space).s == 2


def test_span_dimension_matches_independent_rank():
    for r, c in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]:
        space = contingency_s_semi(r, c)
        rank = np.linalg.matrix_rank(space.as_array())
        basis = span_basis(space)
        assert basis.s == rank == (r - 1) * (c - 1)
        assert basis.s < r * c  # margins keep the space rank-deficient


def test_projection_two_by_two_quarter_matrix():
    basis = span_basis(contingency_s_semi(2, 2))
    P = projection_matrix(basis, 4)
    expected = 0.25 * np.array(
        [[1, -1, -1, 1], [-1, 1, 1, -1], [-1, 1, 1, -1], [1, -1, -1, 1]], dtype=float
    )
    assert np.allclose(P, expected, atol=1e-12)
    validate_projection(P, 1)


def test_projection_edge_cases():
    zero = SensitivitySpace(vectors=(ZERO4,), ambient_dim=4, provenance="zero")
    P0 = projection_matrix(span_basis(zero), 4)
    assert np.allclose(P0, np.zeros((4, 4)))

    axes = SensitivitySpace(
        vectors=((1, 0), (-1, 0), (0, 1), (0, -1)), ambient_dim=2, provenance="axes"
    )
    assert np.allclose(projection_matrix(span_basis(axes), 2), np.eye(2))


def test_projection_contracts_and_fixes_span():
    rng = np.random.default_rng(5)
    space = contingency_s_semi(3, 3)
    basis = span_basis(space)
    P = projection_matrix(basis, 9)
    for _ in range(20):
        v = rng.normal(size=9)
        assert np.linalg.norm(P @ v) <= np.linalg.norm(v) + 1e-12
    for v in space.as_array():
        assert np.allclose(P @ v, v, atol=1e-10)


def test_hull_membership_basics():
    space = contingency_s_semi(2, 2)
    assert hull_membership(space, V)
    assert hull_membership(space, ZERO4)
    assert hull_membership(space, np.array(V) * 0.4)
    assert not hull_membership(space, np.array(V) * 1.01)
    assert not hull_membership(space, (1.0, 0.0, 0.0, 0.0))


#: Spaces the scipy-oracle hull tests run on: semi spaces of growing span
#: dimension and a single-move space, whose span is the sum-zero subspace.
ORACLE_SPACES = (
    contingency_s_semi(3, 3),
    contingency_s_semi(2, 3),
    contingency_s_semi(3, 4),
    contingency_s_dp(2, 3),
)


def _oracle_points(space, rng, count, scale):
    """Random span points, then three nonzero vectors of the space scaled
    by 1 - 1e-7 (inside the hull) and 1 + 1e-7 (outside): every nonzero
    vector of these spaces has the same l2 norm, so each is a vertex."""
    basis = span_basis(space)
    points = [rng.normal(size=basis.s) @ basis.vectors * rng.uniform(0.0, scale) for _ in range(count)]
    vertices = [np.array(v, dtype=float) for v in space.nonzero()[:3]]
    near = [(v * (1.0 - 1e-7), True) for v in vertices] + [(v * (1.0 + 1e-7), False) for v in vertices]
    return points, near


def _scipy_member(S, v):
    m = S.shape[0]
    A = np.vstack([S.T, np.ones((1, m))])
    b = np.concatenate([v, [1.0]])
    ref = linprog(
        np.zeros(m), A_eq=A, b_eq=b, bounds=[(0, None)] * m, method="highs",
        options={"primal_feasibility_tolerance": 1e-10},
    )
    return ref.status == 0


def test_hull_membership_against_scipy():
    rng = np.random.default_rng(9)
    for space in ORACLE_SPACES:
        S = space.as_array()
        points, near = _oracle_points(space, rng, 25, 2.0)
        for v in points:
            assert hull_membership(space, v) == _scipy_member(S, v)
        for v, inside in near:
            assert hull_membership(space, v) == inside == _scipy_member(S, v)


def test_hull_tests_refuse_non_finite_points():
    space = contingency_s_semi(2, 2)
    for bad in ((math.nan, 0, 0, 0), (math.inf, -1, -1, 1), (0, 0, 0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            gauge_norm(space, bad)
        with pytest.raises(ValueError, match="finite"):
            hull_membership(space, bad)


def test_gauge_norm_values():
    space = contingency_s_semi(2, 2)
    assert gauge_norm(space, V) == pytest.approx(1.0, abs=1e-9)
    assert gauge_norm(space, (2, -2, -2, 2)) == pytest.approx(2.0, abs=1e-9)
    assert gauge_norm(space, ZERO4) == 0.0
    assert gauge_norm(space, (1, 0, 0, 0)) == math.inf


def test_gauge_norm_axioms_on_span():
    rng = np.random.default_rng(13)
    space = contingency_s_semi(3, 3)
    basis = span_basis(space)
    for _ in range(15):
        u = rng.normal(size=basis.s) @ basis.vectors
        w = rng.normal(size=basis.s) @ basis.vectors
        gu, gw = gauge_norm(space, u), gauge_norm(space, w)
        lam = float(rng.uniform(0.1, 3.0))
        assert gauge_norm(space, lam * u) == pytest.approx(lam * gu, rel=1e-6)
        assert gauge_norm(space, -u) == pytest.approx(gu, rel=1e-6)
        assert gauge_norm(space, u + w) <= gu + gw + 1e-6


def test_gauge_matches_scipy_min_weight():
    rng = np.random.default_rng(31)
    for space in ORACLE_SPACES:
        S = space.as_array().T
        m = S.shape[1]
        points, near = _oracle_points(space, rng, 15, 3.0)
        for v in points + [v for v, _ in near]:
            ref = linprog(np.ones(m), A_eq=S, b_eq=v, bounds=[(0, None)] * m, method="highs")
            assert ref.status == 0
            assert gauge_norm(space, v) == pytest.approx(ref.fun, abs=1e-7)
        for v, inside in near:
            assert gauge_norm(space, v) == pytest.approx(1.0 - 1e-7 if inside else 1.0 + 1e-7, abs=1e-12)


def test_csv_exports():
    space = contingency_s_semi(2, 2)
    text = sensitivity_space_to_csv(space)
    assert text.splitlines()[0].count(",") == 3
    assert len(text.strip().splitlines()) == len(space.vectors)
    P = projection_matrix(span_basis(space), 4)
    assert len(matrix_to_csv(P).strip().splitlines()) == 4
