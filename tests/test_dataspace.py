"""Dataspace enumeration, invariants, and adjacency geometry."""

import functools
import gc
import itertools
import math
import operator
import resource
import tracemalloc

import numpy as np
import pytest

from semidp import dataspace
from semidp.dataspace import (
    DataspaceSpec,
    EnumerationCapExceeded,
    JointMargins,
    OneWayMargins,
    conforming_set,
    hamming_distance,
    indistinguishable_pairs,
    invariant_eval,
    semi_adjacent_bound,
    semi_adjacent_parameter,
)
from semidp import sensitivity
from semidp.sensitivity import brute_force_sensitivity_space, cell_count_query

# the binary cube {0,1}^3 modeled as one 2-level feature per record,
# with bit b stored as level b + 1
CUBE = DataspaceSpec(n=3, levels=(2,))
CUBE_INV = OneWayMargins((0,))


def bits(*values):
    return tuple((v + 1,) for v in values)


def _dfs_conforming_set(space, spec, t):
    """Recursive depth-first enumeration over rows, pruned on the remaining
    per-cell budgets: the reference for ``conforming_set``'s order."""
    groups = dataspace._validated_groups(spec, space)
    if any(sum(vec) != space.n for vec in t):
        return []
    row_values = list(itertools.product(*[range(1, l + 1) for l in space.levels]))
    row_cells = [tuple(dataspace._group_cell(row, g, space) for g in groups) for row in row_values]
    remaining = [list(vec) for vec in t]
    out, prefix = [], []

    def recurse(depth):
        if depth == space.n:
            out.append(tuple(prefix))
            return
        for row, cells in zip(row_values, row_cells):
            if any(remaining[gi][cell] == 0 for gi, cell in enumerate(cells)):
                continue
            for gi, cell in enumerate(cells):
                remaining[gi][cell] -= 1
            prefix.append(row)
            recurse(depth + 1)
            prefix.pop()
            for gi, cell in enumerate(cells):
                remaining[gi][cell] += 1

    recurse(0)
    return out


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


@pytest.mark.parametrize("level,message", [
    (1.5, "feature 0's level must be an integer, got 1.5"),
    (2.0, "feature 0's level must be an integer, got 2.0"),
    ("1", "feature 0's level must be an integer, got '1'"),
    (0, "feature 0's level must be >= 1, got 0"),
    (3, "feature 0's level must be <= 2, got 3"),
])
def test_invariant_eval_names_a_level_that_is_no_integer_in_range(level, message):
    space = DataspaceSpec(2, (2, 2))
    with pytest.raises(ValueError, match=f"^{message}$"):
        invariant_eval(OneWayMargins((0, 1)), ((level, 1), (1, 2)), space)
    # numpy integers are integers
    t = invariant_eval(OneWayMargins((0, 1)), ((np.int64(2), 1), (1, np.uint8(2))), space)
    assert t == ((1, 1), (1, 1))


def test_conforming_set_binary_cube():
    sets = conforming_set(CUBE, CUBE_INV, ((1, 2),))
    assert sets == [bits(0, 1, 1), bits(1, 0, 1), bits(1, 1, 0)]
    assert conforming_set(CUBE, CUBE_INV, ((3, 0),)) == [bits(0, 0, 0)]
    # counts not summing to n: infeasible, empty
    assert conforming_set(CUBE, CUBE_INV, ((1, 1),)) == []


def test_conforming_set_equals_dfs_on_acceptance_02_instances():
    inv = OneWayMargins((0, 1))
    count = 0
    for space, t in _acceptance_02_instances():
        assert conforming_set(space, inv, t) == _dfs_conforming_set(space, inv, t), (space, t)
        count += 1
    assert count == 114


def test_conforming_set_equals_dfs_on_random_margins():
    # one-way and joint margins over a random subset of the features, so
    # some features lie outside the invariant
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 60:
        p = int(rng.integers(1, 4))
        levels = tuple(int(rng.integers(1, 4)) for _ in range(p))
        space = DataspaceSpec(n=int(rng.integers(1, 6)), levels=levels)
        if space.size() > 200_000:
            continue
        features = [int(f) for f in rng.permutation(p)[: int(rng.integers(0, p + 1))]]
        if checked % 2:
            cut = int(rng.integers(0, len(features) + 1))
            inv = JointMargins(tuple(g for g in (tuple(features[:cut]), tuple(features[cut:])) if g))
        else:
            inv = OneWayMargins(tuple(features))
        x = tuple(tuple(int(rng.integers(1, l + 1)) for l in levels) for _ in range(space.n))
        t = invariant_eval(inv, x, space)
        members = conforming_set(space, inv, t)
        assert x in members
        assert members == _dfs_conforming_set(space, inv, t), (space, inv, t)
        checked += 1


def test_conforming_set_equals_dfs_when_infeasible_or_singleton():
    space, inv = DataspaceSpec(n=4, levels=(2, 3)), OneWayMargins((0, 1))
    for t in [((2, 2), (1, 1, 1)), ((4, 0), (0, 0, 4)), ((0, 4), (2, 2, 0))]:
        assert conforming_set(space, inv, t) == _dfs_conforming_set(space, inv, t)
    assert conforming_set(space, inv, ((2, 2), (1, 1, 1))) == []
    assert conforming_set(space, inv, ((300, 0), (0, 0, 300))) == []
    assert conforming_set(space, inv, ((4, 0), (0, 0, 4))) == [((1, 3),) * 4]
    # one level per feature: one dataset at any n
    single = DataspaceSpec(n=300, levels=(1, 1))
    assert conforming_set(single, inv, ((300,), (300,))) == [((1, 1),) * 300]


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


@pytest.mark.parametrize("n,levels,message", [
    (2.5, (2, 2), "^n must be an integer, got 2.5$"),
    (2, (2.5, 2), "^levels must be an integer, got 2.5$"),
    (2, (2, 0), "^levels must be >= 1, got 0$"),
])
def test_dataspace_sizes_must_be_integers(n, levels, message):
    with pytest.raises(ValueError, match=message):
        DataspaceSpec(n=n, levels=levels)


def test_invariant_counts_must_be_integers():
    space = DataspaceSpec(n=2, levels=(2,))
    with pytest.raises(ValueError, match=r"^invariant counts must be an integer, got 1\.5$"):
        conforming_set(space, OneWayMargins((0,)), ((1.5, 0.5),))
    with pytest.raises(ValueError, match="^invariant counts must be >= 0, got -1$"):
        conforming_set(space, OneWayMargins((0,)), ((3, -1),))
    assert conforming_set(space, OneWayMargins((0,)), ((1, 1),)) == [((1,), (2,)), ((2,), (1,))]


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


def test_lowered_enumeration_cap_refuses_after_a_cached_success(monkeypatch):
    # the cube has 2^3 = 8 states; the cap is read at call time, ahead of the cache
    t = ((1, 2),)
    assert len(conforming_set(CUBE, CUBE_INV, t)) == 3
    assert semi_adjacent_parameter(CUBE, CUBE_INV, t) == 2
    monkeypatch.setattr(dataspace, "ENUMERATION_CAP", CUBE.size() - 1)
    with pytest.raises(EnumerationCapExceeded):
        conforming_set(CUBE, CUBE_INV, t)
    with pytest.raises(EnumerationCapExceeded):
        semi_adjacent_parameter(CUBE, CUBE_INV, t)


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


def test_unhashable_datasets_are_refused_in_any_order():
    conforming = conforming_set(CUBE, CUBE_INV, ((1, 2),))
    as_lists = [list(dataset) for dataset in conforming]
    assert as_lists == sorted(as_lists)
    for datasets in (as_lists, as_lists[::-1]):
        with pytest.raises(TypeError):
            indistinguishable_pairs(datasets, 2)


def test_record_codes_are_dense_in_order_of_first_appearance():
    # 300 datasets of two records over three distinct records, the third
    # first seen in the last dataset: its id is 2, not its position 598
    x, y, z = ((1,), (2,)), ((2,), (1,)), ((2,), (3,))
    codes = dataspace._record_codes([x, y] * 149 + [x, z])
    assert codes.tolist() == [[0, 1], [1, 0]] * 149 + [[0, 1], [1, 2]]
    assert dataspace._record_codes([]).shape == (0, 0)


def test_distances_past_one_byte_do_not_wrap():
    # 300 records that all differ: the distance is 300, not 300 - 256
    x, y = ((1,),) * 300, ((2,),) * 300
    codes = dataspace._record_codes([x, y, x])
    blocks = list(dataspace._hamming_blocks(codes))
    assert len(blocks) == 1
    assert blocks[0][1].tolist() == [[0, 300, 0], [300, 0, 300], [0, 300, 0]]
    assert indistinguishable_pairs([x, y], 299) == set()
    assert indistinguishable_pairs([x, y], 300) == {(x, y)}


def test_radius_above_255_on_one_byte_distances():
    # n = 5 keeps the distances in one byte; a radius of 256 or more still
    # admits every pair
    space = DataspaceSpec(n=5, levels=(2, 2))
    inv = OneWayMargins((0, 1))
    t = ((3, 2), (2, 3))
    members = conforming_set(space, inv, t)
    query = cell_count_query(space)
    wide = brute_force_sensitivity_space(space, members, query, 256)
    assert wide.vectors == brute_force_sensitivity_space(space, members, query, 5).vectors
    assert indistinguishable_pairs(members, 300) == _pairs_oracle(members, 5)
    assert len(indistinguishable_pairs(members, 300)) == len(members) * (len(members) - 1) // 2


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


@pytest.mark.parametrize("joint", [False, True], ids=["one_way_p3", "joint"])
def test_a_t_equals_dense_on_random_sweeps(joint, block_size):
    # one-way margins over p = 3 features, or joint margins over a random subset
    # of p = 2..3 features; n = 1 and n = 2 leave every dataset its own
    # representative, so they check the scan on every row
    # (the dense oracle holds |S|^2 distances, so sets above 2,000 are drawn again)
    rng = np.random.default_rng(2025 + joint)
    for n in [1, 2, 3, 4, 5] * 8:
        while True:
            p = int(rng.integers(2, 4)) if joint else 3
            space = DataspaceSpec(n=n, levels=tuple(int(rng.integers(2, 4)) for _ in range(p)))
            if space.size() > 250_000:
                continue
            if joint:
                features = [int(f) for f in rng.permutation(p)[: int(rng.integers(1, p + 1))]]
                cut = int(rng.integers(1, len(features) + 1))
                inv = JointMargins(
                    tuple(g for g in (tuple(features[:cut]), tuple(features[cut:])) if g)
                )
            else:
                inv = OneWayMargins((0, 1, 2))
            x = tuple(tuple(int(rng.integers(1, l + 1)) for l in space.levels) for _ in range(n))
            t = invariant_eval(inv, x, space)
            if len(conforming_set(space, inv, t)) <= 2_000:
                break
        assert semi_adjacent_parameter(space, inv, t) == _dense_semi_adjacent_parameter(
            space, inv, t
        ), (space, inv, t)


def _counting_kernel(monkeypatch):
    """Patch the distance kernel to record (rows scanned, |S|) per call; a call
    the kernel refuses records nothing."""
    calls, kernel = [], dataspace._hamming_blocks

    def counting(codes, rows=None):
        blocks = kernel(codes, rows)
        calls.append((len(codes) if rows is None else len(rows), len(codes)))
        return blocks

    monkeypatch.setattr(dataspace, "_hamming_blocks", counting)
    return calls


@pytest.mark.parametrize("levels,n,t,scanned", [
    ((3, 3), 6, ((2, 2, 2), (2, 2, 2)), (99, 8_100)),
    ((2, 2), 6, ((2, 4), (3, 3)), (10, 300)),
])
def test_a_t_scans_one_dataset_per_class(monkeypatch, levels, n, t, scanned):
    # one row per first record and multiset of the others, against all of S
    space, inv = DataspaceSpec(n=n, levels=levels), OneWayMargins((0, 1))
    calls = _counting_kernel(monkeypatch)
    assert semi_adjacent_parameter(space, inv, t) == 3
    assert calls == [scanned]


def test_a_t_refuses_above_the_cap_before_computing(monkeypatch):
    # 99 rows x 8,100 datasets: the cap counts the pairs a(t) scans, not |S|^2
    space, inv = DataspaceSpec(n=6, levels=(3, 3)), OneWayMargins((0, 1))
    t = ((2, 2, 2), (2, 2, 2))
    calls = _counting_kernel(monkeypatch)
    monkeypatch.setattr(dataspace, "PAIR_CAP", 99 * 8_100 - 1)
    with pytest.raises(EnumerationCapExceeded, match="^99 x 8100 dataset pairs"):
        semi_adjacent_parameter(space, inv, t)
    assert calls == []
    monkeypatch.setattr(dataspace, "PAIR_CAP", 99 * 8_100)
    assert semi_adjacent_parameter(space, inv, t) == 3
    assert calls == [(99, 8_100)]


@functools.cache
def _per_block_brute_force(space, spec, t, radius):
    """Brute force by one np.unique per distance block: the reference.

    Each difference row, with entries in [-n, n], is keyed as one mixed-radix
    int64 in base 2n + 1, so the per-block np.unique runs on a 1-d array.
    """
    subset = conforming_set(space, spec, t)
    values = np.array([cell_count_query(space)(x) for x in subset], dtype=np.int64)
    base = 2 * space.n + 1
    assert base ** values.shape[1] < 2**63
    weights = base ** np.arange(values.shape[1] - 1, -1, -1, dtype=np.int64)
    diffs = set()
    for first, dist in dataspace._hamming_blocks(dataspace._record_codes(subset)):
        ii, jj = np.nonzero(dist <= radius)
        keys = np.unique((values[ii + first] - values[jj] + space.n) @ weights)
        rows = keys[:, None] // weights % base - space.n
        diffs.update(map(tuple, rows.tolist()))
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


PAIR_SPACE = DataspaceSpec(n=4, levels=(2, 3))


def _pair_inputs():
    """A conforming set, 80 drawn datasets with repeats, one dataset, none."""
    conforming = conforming_set(PAIR_SPACE, OneWayMargins((0, 1)), ((2, 2), (1, 2, 1)))
    rng = np.random.default_rng(5)
    # arbitrary datasets with repeats, not only members of one conforming set
    drawn = [
        tuple(
            tuple(int(rng.integers(1, l + 1)) for l in PAIR_SPACE.levels)
            for _ in range(PAIR_SPACE.n)
        )
        for _ in range(80)
    ]
    assert len(set(drawn)) < len(drawn)
    return conforming, drawn, drawn[:1], []


def test_indistinguishable_pairs_match_combinations_oracle(block_size):
    space = PAIR_SPACE
    for datasets in _pair_inputs():
        for radius in range(space.n + 1):
            assert indistinguishable_pairs(datasets, radius) == _pairs_oracle(datasets, radius)


def test_pair_view_behaves_as_the_oracle_set(block_size):
    outsider = ((2, 3),) * PAIR_SPACE.n
    not_pairs = [None, 1, "ab", frozenset(), (), (1, 2), ("x", outsider), (outsider,)]
    for datasets in _pair_inputs():
        distinct = sorted(set(datasets))
        assert outsider not in distinct
        for radius in range(PAIR_SPACE.n + 1):
            caller = list(datasets)
            view = indistinguishable_pairs(caller, radius)
            # the view keeps its own copy of the datasets
            caller.reverse()
            caller[:1] = [outsider]
            oracle = _pairs_oracle(datasets, radius)
            assert len(view) == len(oracle)
            assert view == oracle and oracle == view and not view != oracle
            for a, b in itertools.product(distinct + [outsider], repeat=2):
                assert ((a, b) in view) == ((a, b) in oracle), (a, b)
            wrong_length = [(x,) * k for x in distinct[:3] for k in (1, 3)]
            for obj in not_pairs + wrong_length:
                assert obj not in view and obj not in oracle, obj
            listed = list(view)
            assert len(listed) == len(oracle) and set(listed) == oracle
            assert all(a < b for a, b in listed)
            other = _pairs_oracle(datasets, radius - 1) | {(outsider, outsider)}
            assert type(set(view)) is set and set(view) == oracle
            for got, want in [
                (view | other, oracle | other),
                (other | view, other | oracle),
                (view & other, oracle & other),
                (other & view, other & oracle),
                (view - other, oracle - other),
                (other - view, other - oracle),
                (view ^ other, oracle ^ other),
            ]:
                assert type(got) is set and got == want


def test_large_conforming_set_pairs_stay_small():
    # |S| = 8,100 with 939,600 pairs at a(t) = 3: 8 bytes a pair is 7.5 MB,
    # where a set of nested-tuple pairs needs about 100 MB
    space = DataspaceSpec(n=6, levels=(3, 3))
    conforming = conforming_set(space, OneWayMargins((0, 1)), ((2, 2, 2), (2, 2, 2)))
    assert len(conforming) == 8_100
    tracemalloc.start()
    try:
        pairs = indistinguishable_pairs(conforming, 3)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert len(pairs) == 939_600
    assert peak_mb < 40, f"peak allocation {peak_mb:.1f} MB"


@pytest.mark.parametrize("radius", [-1, 2.5, math.nan, math.inf, 2.0, "2", None])
def test_radius_must_be_an_integer_at_least_zero(radius):
    members = conforming_set(CUBE, CUBE_INV, ((1, 2),))
    with pytest.raises(ValueError, match="radius"):
        indistinguishable_pairs(members, radius)
    with pytest.raises(ValueError, match="radius"):
        brute_force_sensitivity_space(CUBE, members, cell_count_query(CUBE), radius)


def test_numpy_integer_radius_is_accepted():
    members = conforming_set(CUBE, CUBE_INV, ((1, 2),))
    assert indistinguishable_pairs(members, np.int64(2)) == _pairs_oracle(members, 2)
    query = cell_count_query(CUBE)
    assert (
        brute_force_sensitivity_space(CUBE, members, query, np.uint8(2)).vectors
        == brute_force_sensitivity_space(CUBE, members, query, 2).vectors
    )


def test_ragged_dataset_lists_raise(block_size):
    ragged = [bits(0, 1), bits(0, 1, 1)]
    with pytest.raises(ValueError):
        indistinguishable_pairs(ragged, 2)
    with pytest.raises(ValueError):
        brute_force_sensitivity_space(CUBE, ragged, cell_count_query(CUBE), 2)


def test_pair_cap_refuses_before_allocating():
    # |S| = 44,100 passes ENUMERATION_CAP (9^7 < 10^7). a(t) scans 129 of its
    # datasets against all of them and answers; brute force and pairs would
    # scan all |S|^2 pairs, 1.9 GB at one byte a distance, and refuse
    space = DataspaceSpec(n=7, levels=(3, 3))
    inv = OneWayMargins((0, 1))
    t = ((3, 2, 2), (3, 2, 2))
    before_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    conforming = conforming_set(space, inv, t)
    assert len(conforming) ** 2 > dataspace.PAIR_CAP
    assert semi_adjacent_parameter(space, inv, t) <= semi_adjacent_bound(2)
    with pytest.raises(EnumerationCapExceeded):
        brute_force_sensitivity_space(space, conforming, cell_count_query(space), 3)
    with pytest.raises(EnumerationCapExceeded):
        indistinguishable_pairs(conforming, 3)
    growth_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before_kib) / 1024
    assert len(conforming) == 44_100
    assert growth_mb < 200, f"peak RSS grew by {growth_mb:.0f} MB"


def test_pair_scans_refuse_before_touching_a_dataset():
    # brute force and pairs refuse |S| = 44,100 before they query, sort, hash
    # or code a single dataset
    space = DataspaceSpec(n=7, levels=(3, 3))
    conforming = conforming_set(space, OneWayMargins((0, 1)), ((3, 2, 2), (3, 2, 2)))
    touched = []

    class Watched(tuple):
        def __hash__(self):
            touched.append("hash")
            return tuple.__hash__(self)

        def __lt__(self, other):
            touched.append("lt")
            return tuple.__lt__(self, other)

    def query(x):
        touched.append("query")
        return cell_count_query(space)(x)

    watched = list(map(Watched, conforming))
    with pytest.raises(EnumerationCapExceeded):
        brute_force_sensitivity_space(space, watched, query, 3)
    with pytest.raises(EnumerationCapExceeded):
        indistinguishable_pairs(iter(watched), 3)
    assert touched == []


def _fresh(datasets):
    """Equal datasets in new objects, which no cached conforming set holds."""
    return [tuple(list(x)) for x in datasets]


def _dense_distances(datasets):
    """The full matrix of Hamming distances, from the datasets themselves."""
    rows = np.array(datasets)
    return (rows[:, None] != rows[None]).any(axis=3).sum(axis=2)


def _dense_brute_force(datasets, query, radius):
    """The brute-force vectors from the full distance matrix: the reference."""
    values = np.array([query(x) for x in datasets], dtype=np.int64)
    i, j = np.nonzero(_dense_distances(datasets) <= radius)
    return tuple(sorted(set(map(tuple, (values[i] - values[j]).tolist()))))


def _radii(space, inv, t):
    return sorted({0, 1, 2, semi_adjacent_parameter(space, inv, t)})


def test_cached_codes_equal_the_general_path_on_acceptance_02_instances():
    # each set as conforming_set returns it (its cached codes read) and as
    # fresh objects (coded afresh); pairs are checked key by key against the
    # dense distance matrix of the sorted members
    inv = OneWayMargins((0, 1))
    count = 0
    for space, t in _acceptance_02_instances():
        members = conforming_set(space, inv, t)
        fresh = _fresh(members)
        assert dataspace._cached_conforming(members) is not None
        assert dataspace._cached_conforming(fresh) is None
        query = cell_count_query(space)
        dist = _dense_distances(members)
        for radius in _radii(space, inv, t):
            want = _per_block_brute_force(space, inv, t, radius)
            assert brute_force_sensitivity_space(space, members, query, radius).vectors == want
            assert brute_force_sensitivity_space(space, fresh, query, radius).vectors == want
            keys = np.flatnonzero(np.triu(dist <= radius, 1))
            for datasets in (members, fresh):
                view = indistinguishable_pairs(datasets, radius)
                assert view._items == tuple(members), (space, t, radius)
                assert np.array_equal(view._keys, keys), (space, t, radius)
        count += 1
    assert count == 114


@pytest.mark.parametrize("joint", [False, True], ids=["one_way_p3", "joint"])
def test_cached_codes_equal_the_general_path_on_random_sweeps(joint):
    # seeds fixed before the first run; sets above 150 datasets are drawn again
    # so that the combinations oracle stays quick
    rng = np.random.default_rng(2029 + joint)
    for n in [1, 2, 3, 4, 5] * 4:
        while True:
            p = int(rng.integers(2, 4)) if joint else 3
            space = DataspaceSpec(n=n, levels=tuple(int(rng.integers(2, 4)) for _ in range(p)))
            if joint:
                features = [int(f) for f in rng.permutation(p)[: int(rng.integers(1, p + 1))]]
                cut = int(rng.integers(1, len(features) + 1))
                inv = JointMargins(
                    tuple(g for g in (tuple(features[:cut]), tuple(features[cut:])) if g)
                )
            else:
                inv = OneWayMargins((0, 1, 2))
            x = tuple(tuple(int(rng.integers(1, l + 1)) for l in space.levels) for _ in range(n))
            t = invariant_eval(inv, x, space)
            if space.size() <= 250_000 and len(conforming_set(space, inv, t)) <= 150:
                break
        members = conforming_set(space, inv, t)
        fresh = _fresh(members)
        query = cell_count_query(space)
        for radius in _radii(space, inv, t):
            want = _dense_brute_force(members, query, radius)
            assert brute_force_sensitivity_space(space, members, query, radius).vectors == want
            assert brute_force_sensitivity_space(space, fresh, query, radius).vectors == want
            pairs = _pairs_oracle(members, radius)
            assert indistinguishable_pairs(members, radius) == pairs, (space, inv, t, radius)
            assert indistinguishable_pairs(fresh, radius) == pairs, (space, inv, t, radius)


def test_a_cached_set_needs_neither_coding_nor_its_query(monkeypatch):
    # with the general path's coding and the cell query refused, brute force
    # and pairs still answer on the lists conforming_set returns
    cases = []
    for space, t in [(PAIR_SPACE, ((2, 2), (1, 2, 1))), (DataspaceSpec(6, (3, 3)), ((2, 2, 2),) * 2)]:
        inv = OneWayMargins((0, 1))
        members, query = conforming_set(space, inv, t), cell_count_query(space)
        radius = semi_adjacent_parameter(space, inv, t)
        cases.append((space, members, query, radius,
                      brute_force_sensitivity_space(space, _fresh(members), query, radius).vectors,
                      indistinguishable_pairs(_fresh(members), radius)._keys))

    def refuse(*args):
        raise AssertionError("the general path ran on a cached set")

    monkeypatch.setattr(dataspace, "_record_codes", refuse)
    monkeypatch.setattr(sensitivity, "_record_codes", refuse)
    monkeypatch.setattr(sensitivity._CellCountQuery, "__call__", refuse)
    for space, members, query, radius, vectors, keys in cases:
        assert brute_force_sensitivity_space(space, members, query, radius).vectors == vectors
        assert np.array_equal(indistinguishable_pairs(members, radius)._keys, keys)


def test_other_lists_and_queries_take_the_general_path():
    inv = OneWayMargins((0, 1))
    members = conforming_set(PAIR_SPACE, inv, ((2, 2), (1, 2, 1)))
    query = cell_count_query(PAIR_SPACE)
    # a dataset of another invariant value, so appending it changes the answers
    outsider = ((2, 3),) * PAIR_SPACE.n
    swapped = [members[1], members[0], *members[2:]]
    replaced = members[:5] + [tuple(list(members[5]))] + members[6:]
    for datasets in (swapped, members + [outsider], replaced, members[:-1]):
        assert dataspace._cached_conforming(datasets) is None
        for radius in range(PAIR_SPACE.n + 1):
            got = brute_force_sensitivity_space(PAIR_SPACE, datasets, query, radius)
            assert got.vectors == _dense_brute_force(datasets, query, radius)
            assert indistinguishable_pairs(datasets, radius) == _pairs_oracle(datasets, radius)
    # a custom query, and the cell query of other levels, are called once a dataset
    calls = []

    def first_record(x):
        calls.append(x)
        return operator.itemgetter(0)(x)

    # levels (2, 4) give the records of (2, 3) other cell indices
    wider = cell_count_query(DataspaceSpec(PAIR_SPACE.n, (2, 4)))
    for custom in (first_record, wider):
        for radius in range(PAIR_SPACE.n + 1):
            got = brute_force_sensitivity_space(PAIR_SPACE, members, custom, radius)
            assert got.vectors == _dense_brute_force(members, custom, radius)
    assert len(calls) == 2 * (PAIR_SPACE.n + 1) * len(members)
    assert all(map(operator.is_, calls, members * 2 * (PAIR_SPACE.n + 1)))


def test_the_registry_holds_only_the_cached_sets():
    cache = dataspace._conforming_cached
    cache.cache_clear()
    gc.collect()
    assert len(dataspace._CONFORMING) == 0
    maxsize = cache.cache_info().maxsize
    space, inv = PAIR_SPACE, OneWayMargins((0, 1))
    values = [((a, PAIR_SPACE.n - a), cols) for a in range(PAIR_SPACE.n + 1)
              for cols in [(1, 2, 1), (2, 1, 1), (1, 1, 2)]]
    assert len(values) > maxsize
    # the callers keep every list, and so every dataset, alive
    held = [conforming_set(space, inv, t) for t in values]
    gc.collect()
    assert 0 < len(dataspace._CONFORMING) <= maxsize
    assert [dataspace._cached_conforming(members) is not None for members in held] == (
        [False] * (len(values) - maxsize) + [True] * maxsize)
    cache.cache_clear()
    gc.collect()
    assert len(dataspace._CONFORMING) == 0
    assert not any(map(dataspace._cached_conforming, held))
