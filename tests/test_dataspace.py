"""Dataspace enumeration, invariants, and adjacency geometry."""

import functools
import itertools
import resource

import numpy as np
import pytest

from semidp import dataspace
from semidp.dataspace import (
    DataspaceSpec,
    EnumerationCapExceeded,
    JointMargins,
    OneWayMargins,
    conforming_set,
    dataset_from_csv,
    dataset_to_csv,
    hamming_distance,
    indistinguishable_pairs,
    invariant_eval,
    invariant_value_from_json,
    invariant_value_to_json,
    semi_adjacent_bound,
    semi_adjacent_parameter,
)
from semidp.sensitivity import brute_force_sensitivity_space, cell_count_query

# the binary cube {0,1}^3 modeled as one 2-level feature per record,
# with bit b stored as level b + 1
CUBE = DataspaceSpec(n=3, levels=(2,))
CUBE_INV = OneWayMargins((0,))


def bits(*values):
    return tuple((v + 1,) for v in values)


def test_hamming_distance_basics():
    x = bits(0, 1, 1)
    assert hamming_distance(x, x) == 0
    assert hamming_distance(bits(0, 1, 1), bits(1, 1, 0)) == 2
    assert hamming_distance(bits(0, 1, 1), bits(0, 0, 1)) == 1
    with pytest.raises(ValueError):
        hamming_distance(bits(0, 1), bits(0, 1, 1))


def test_hamming_is_a_metric_on_random_triples():
    rng = np.random.default_rng(11)
    space = DataspaceSpec(n=4, levels=(3, 2))
    draws = [
        tuple(tuple(rng.integers(1, l + 1) for l in space.levels) for _ in range(space.n))
        for _ in range(60)
    ]
    for x, y, z in zip(draws[::3], draws[1::3], draws[2::3]):
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert (hamming_distance(x, y) == 0) == (x == y)
        assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


def test_invariant_eval_two_by_two_margins():
    space = DataspaceSpec(n=4, levels=(2, 2))
    x = ((1, 1), (1, 2), (2, 1), (2, 2))
    t = invariant_eval(OneWayMargins((0, 1)), x, space)
    assert t == ((2, 2), (2, 2))

    # margins recover row/column sums of the cell-count table
    y = ((1, 1), (1, 1), (1, 2), (2, 1))
    ty = invariant_eval(OneWayMargins((0, 1)), y, space)
    assert ty == ((3, 1), (3, 1))


def test_invariant_eval_all_rows_identical():
    space = DataspaceSpec(n=5, levels=(3,))
    t = invariant_eval(OneWayMargins((0,)), ((2,),) * 5, space)
    assert t == ((0, 5, 0),)


def test_invariant_eval_joint_margins():
    space = DataspaceSpec(n=3, levels=(2, 2))
    x = ((1, 1), (2, 2), (2, 2))
    t = invariant_eval(JointMargins(((0, 1),)), x, space)
    assert t == ((1, 0, 0, 2),)


def test_invariant_eval_rejects_bad_features():
    space = DataspaceSpec(n=2, levels=(2, 2))
    x = ((1, 1), (2, 2))
    with pytest.raises(ValueError):
        invariant_eval(OneWayMargins((0, 0)), x, space)
    with pytest.raises(ValueError):
        invariant_eval(OneWayMargins((5,)), x, space)


def test_conforming_set_binary_cube():
    sets = conforming_set(CUBE, CUBE_INV, ((1, 2),))
    assert sets == [bits(0, 1, 1), bits(1, 0, 1), bits(1, 1, 0)]
    assert conforming_set(CUBE, CUBE_INV, ((3, 0),)) == [bits(0, 0, 0)]
    # counts not summing to n: infeasible, empty
    assert conforming_set(CUBE, CUBE_INV, ((1, 1),)) == []


def test_conforming_set_returns_a_fresh_list():
    first = conforming_set(CUBE, CUBE_INV, ((1, 2),))
    expected = list(first)
    first.append(bits(1, 1, 1))
    first.reverse()
    assert conforming_set(CUBE, CUBE_INV, ((1, 2),)) == expected
    assert conforming_set(CUBE, CUBE_INV, [[1, 2]]) == expected
    for _ in range(2):  # refusals are never cached
        with pytest.raises(ValueError):
            conforming_set(CUBE, CUBE_INV, ((1, 1, 1),))


def test_conforming_set_members_reproduce_invariant():
    space = DataspaceSpec(n=4, levels=(2, 3))
    inv = OneWayMargins((0, 1))
    t = ((2, 2), (1, 2, 1))
    members = conforming_set(space, inv, t)
    assert members
    for x in members:
        assert invariant_eval(inv, x, space) == t


def test_conforming_set_cap_refusal():
    big = DataspaceSpec(n=10, levels=(10, 10))
    with pytest.raises(EnumerationCapExceeded):
        conforming_set(big, OneWayMargins((0, 1)), ((10,) * 10, (10,) * 10))


def test_semi_adjacent_parameter_worked_values():
    assert semi_adjacent_parameter(CUBE, CUBE_INV, ((1, 2),)) == 2
    assert semi_adjacent_parameter(CUBE, CUBE_INV, ((3, 0),)) == 0

    # 2x2 margins of the table (1,1,1,0): the record (2,2) is feasible only
    # in datasets whose other two records are both (1,1), so a (1,1)-holder
    # in the spread table needs three changes to impersonate it
    space = DataspaceSpec(n=3, levels=(2, 2))
    inv = OneWayMargins((0, 1))
    assert semi_adjacent_parameter(space, inv, ((2, 1), (2, 1))) == 3


def test_semi_adjacent_parameter_singleton_and_empty():
    space = DataspaceSpec(n=2, levels=(2,))
    inv = OneWayMargins((0,))
    assert semi_adjacent_parameter(space, inv, ((2, 0),)) == 0
    with pytest.raises(ValueError):
        semi_adjacent_parameter(space, inv, ((1, 0),))


def test_semi_adjacent_joint_counts_need_two_changes():
    # releasing the full joint cell counts: impersonation always resolves in
    # at most two changes (swap with an existing holder of the target cell)
    space = DataspaceSpec(n=4, levels=(2, 2))
    inv = JointMargins(((0, 1),))
    x = ((1, 1), (1, 2), (2, 1), (2, 2))
    t = invariant_eval(inv, x, space)
    assert semi_adjacent_parameter(space, inv, t) <= 2


def test_semi_adjacent_bound():
    assert semi_adjacent_bound(2) == 3
    assert semi_adjacent_bound(1) == 2
    with pytest.raises(ValueError):
        semi_adjacent_bound(0)


def test_semi_adjacent_parameter_respects_bound_on_random_sweep():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 25:
        p = int(rng.integers(1, 4))
        levels = tuple(int(rng.integers(2, 4)) for _ in range(p))
        n = int(rng.integers(2, 5))
        space = DataspaceSpec(n=n, levels=levels)
        if space.size() > 2_000_000:
            continue
        x = tuple(
            tuple(int(rng.integers(1, l + 1)) for l in levels) for _ in range(n)
        )
        inv = OneWayMargins(tuple(range(p)))
        t = invariant_eval(inv, x, space)
        a = semi_adjacent_parameter(space, inv, t)
        assert a <= semi_adjacent_bound(p)
        assert a == _dense_semi_adjacent_parameter(space, inv, t)
        checked += 1


def test_indistinguishable_pairs():
    conforming = conforming_set(CUBE, CUBE_INV, ((1, 2),))
    pairs2 = indistinguishable_pairs(conforming, 2)
    assert len(pairs2) == 3
    assert indistinguishable_pairs(conforming, 0) == set()
    assert indistinguishable_pairs(conforming, 1) == set()
    # pairs are unordered and canonically sorted
    for a, b in pairs2:
        assert a <= b


def test_dataset_csv_round_trip():
    x = ((1, 2), (2, 1), (2, 2))
    text = dataset_to_csv(x)
    assert text == "1,2\n2,1\n2,2\n"
    assert dataset_from_csv(text) == x


def test_invariant_value_json_round_trip():
    t = ((2, 1), (1, 1, 1))
    text = invariant_value_to_json(t)
    assert invariant_value_from_json(text) == t


@pytest.fixture(params=["default_block", "small_block"])
def block_size(request, monkeypatch):
    """Run a test at the kernel's block size, and again with blocks of a few rows."""
    if request.param == "small_block":
        monkeypatch.setattr(dataspace, "BLOCK_PAIRS", 1000)
    return request.param


@functools.cache
def _dense_semi_adjacent_parameter(space, spec, t):
    """a(t) from the full |S| x |S| distance matrix: the reference algorithm."""
    datasets = conforming_set(space, spec, t)
    if len(datasets) == 1:
        return 0
    codes = np.array(
        [[np.ravel_multi_index(np.subtract(r, 1), space.levels) for r in x] for x in datasets]
    )
    dist = (codes[:, None, :] != codes[None, :, :]).sum(axis=2)
    worst = 0
    for i in range(space.n):
        column = codes[:, i]
        groups = {v: np.nonzero(column == v)[0] for v in np.unique(column)}
        for x_val, x_idx in groups.items():
            for y_val, y_idx in groups.items():
                if x_val != y_val:
                    worst = max(worst, int(dist[np.ix_(x_idx, y_idx)].min(axis=1).max()))
    return worst


def _positive_compositions(n, parts):
    if parts == 1:
        if n >= 1:
            yield (n,)
        return
    for first in range(1, n + 1):
        for rest in _positive_compositions(n - first, parts - 1):
            yield (first,) + rest


def _acceptance_02_instances():
    """Every (space, margins) instance acceptance criterion 02 enumerates."""
    for rows, cols, r, c in [
        ((3, 0), (2, 1), 2, 2),
        ((2, 2, 0), (2, 1, 1), 3, 3),
        ((4, 0), (2, 1, 1), 2, 3),
    ]:
        yield DataspaceSpec(n=sum(rows), levels=(r, c)), (rows, cols)
    for r, c in ((2, 2), (2, 3), (3, 3)):
        for n in range(max(r, c), 6):
            for rows in _positive_compositions(n, r):
                for cols in _positive_compositions(n, c):
                    yield DataspaceSpec(n=n, levels=(r, c)), (rows, cols)


def test_streamed_a_t_equals_dense_on_acceptance_02_instances(block_size):
    inv = OneWayMargins((0, 1))
    count = 0
    for space, t in _acceptance_02_instances():
        assert semi_adjacent_parameter(space, inv, t) == _dense_semi_adjacent_parameter(
            space, inv, t
        ), (space, t)
        count += 1
    assert count == 114


@functools.cache
def _per_block_brute_force(space, spec, t, radius):
    """Brute force by one np.unique per distance block: the reference."""
    subset = conforming_set(space, spec, t)
    values = np.array([cell_count_query(space)(x) for x in subset], dtype=np.int64)
    diffs = set()
    for first, dist in dataspace._hamming_blocks(dataspace._record_codes(subset)):
        ii, jj = np.nonzero(dist <= radius)
        for row in np.unique(values[ii + first] - values[jj], axis=0):
            diffs.add(tuple(int(v) for v in row))
    return tuple(sorted(diffs))


def test_brute_force_equals_per_block_oracle_on_acceptance_02_instances(block_size):
    inv = OneWayMargins((0, 1))
    count = 0
    for space, t in _acceptance_02_instances():
        subset = conforming_set(space, inv, t)
        query = cell_count_query(space)
        for radius in sorted({0, 1, 2, semi_adjacent_parameter(space, inv, t)}):
            got = brute_force_sensitivity_space(space, subset, query, radius)
            assert got.vectors == _per_block_brute_force(space, inv, t, radius), (space, t, radius)
        count += 1
    assert count == 114


def _pairs_oracle(datasets, radius):
    return {
        (a, b) if a <= b else (b, a)
        for a, b in itertools.combinations(datasets, 2)
        if 1 <= hamming_distance(a, b) <= radius
    }


def test_indistinguishable_pairs_match_combinations_oracle(block_size):
    space = DataspaceSpec(n=4, levels=(2, 3))
    conforming = conforming_set(space, OneWayMargins((0, 1)), ((2, 2), (1, 2, 1)))
    rng = np.random.default_rng(5)
    # arbitrary datasets with repeats, not only members of one conforming set
    drawn = [
        tuple(tuple(int(rng.integers(1, l + 1)) for l in space.levels) for _ in range(space.n))
        for _ in range(80)
    ]
    for datasets in (conforming, drawn, drawn[:1], []):
        for radius in range(space.n + 1):
            assert indistinguishable_pairs(datasets, radius) == _pairs_oracle(datasets, radius)


def test_ragged_dataset_lists_raise(block_size):
    ragged = [bits(0, 1), bits(0, 1, 1)]
    with pytest.raises(ValueError):
        indistinguishable_pairs(ragged, 2)
    with pytest.raises(ValueError):
        brute_force_sensitivity_space(CUBE, ragged, cell_count_query(CUBE), 2)


def test_pair_cap_refuses_before_allocating():
    # |S| = 44,100 passes ENUMERATION_CAP (9^7 < 10^7), but a dense |S| x |S|
    # int32 distance matrix would need 7.8 GB
    space = DataspaceSpec(n=7, levels=(3, 3))
    inv = OneWayMargins((0, 1))
    t = ((3, 2, 2), (3, 2, 2))
    before_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    conforming = conforming_set(space, inv, t)
    assert len(conforming) ** 2 > dataspace.PAIR_CAP
    with pytest.raises(EnumerationCapExceeded):
        semi_adjacent_parameter(space, inv, t)
    with pytest.raises(EnumerationCapExceeded):
        brute_force_sensitivity_space(space, conforming, cell_count_query(space), 3)
    with pytest.raises(EnumerationCapExceeded):
        indistinguishable_pairs(conforming, 3)
    growth_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before_kib) / 1024
    assert len(conforming) == 44_100
    assert growth_mb < 200, f"peak RSS grew by {growth_mb:.0f} MB"
