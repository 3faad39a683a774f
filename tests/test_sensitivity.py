"""Sensitivity spaces, span geometry, and hull gauge computations."""

import dataclasses
import functools
import importlib.util
import itertools
import math
import operator
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import semidp
from semidp import dataspace, mechanisms, sensitivity
from semidp.dataspace import (
    DataspaceSpec,
    OneWayMargins,
    conforming_set,
    hamming_distance,
    semi_adjacent_parameter,
)
from semidp.mechanisms import knorm_noise_samples
from semidp.rng import NoiseRng, RngSeed
from semidp.simplex import solve_lp
from semidp.sensitivity import (
    FACET_FILE,
    TABLE_SHAPES,
    HULL_TOL,
    RANK_TOL,
    SensitivitySpace,
    brute_force_sensitivity_space,
    cell_count_query,
    contingency_s_dp,
    contingency_s_semi,
    gauge_norm,
    hull_cones,
    hull_membership,
    lp_sensitivity,
    projection_matrix,
    sensitivity_space_to_csv,
    span_basis,
    table_geometry,
)

V = (1, -1, -1, 1)
NEG_V = (-1, 1, 1, -1)
ZERO4 = (0, 0, 0, 0)

TABLE_SPACE = DataspaceSpec(n=3, levels=(2, 2))
TABLE_INV = OneWayMargins((0, 1))
TABLE_T = ((2, 1), (2, 1))  # margins of the table (1,1,1,0)


def _nonzero(space):
    return [v for v in space.vectors if any(v)]


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
        assert len(_nonzero(space)) == oracle_count(r, c)
        assert len(_nonzero(space)) == r * (r - 1) * c * (c - 1) // 2

    assert len(_nonzero(contingency_s_semi(2, 3))) == 6


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
    for v in _nonzero(space):
        arr = np.array(v)
        assert sorted(arr) == [-1, 0, 0, 1]
    assert lp_sensitivity(space, 1) == 2.0
    assert lp_sensitivity(space, 2) == pytest.approx(math.sqrt(2.0))
    assert lp_sensitivity(space, math.inf) == 1.0


def _loop_semi(r, c):
    """The pure-Python semi builder the cached one replaced: the reference."""
    if r < 2 or c < 2:
        raise ValueError("r and c must both be >= 2")
    d = r * c
    vectors = {(0,) * d}
    for i, k in itertools.permutations(range(r), 2):
        for j, l in itertools.permutations(range(c), 2):
            v = [0] * d
            v[i * c + j] += 1
            v[k * c + l] += 1
            v[i * c + l] -= 1
            v[k * c + j] -= 1
            vectors.add(tuple(v))
    return SensitivitySpace(sorted(vectors), f"contingency_margins({r}x{c})")


def _loop_dp(r, c):
    """The pure-Python dp builder the cached one replaced: the reference."""
    if r < 1 or c < 1:
        raise ValueError("r and c must both be >= 1")
    d = r * c
    vectors = {(0,) * d}
    for a, b in itertools.permutations(range(d), 2):
        v = [0] * d
        v[a] += 1
        v[b] -= 1
        vectors.add(tuple(v))
    return SensitivitySpace(sorted(vectors), f"contingency_single_move({r}x{c})")


@pytest.mark.parametrize("build, oracle", [(contingency_s_semi, _loop_semi), (contingency_s_dp, _loop_dp)])
def test_table_builders_equal_loop_oracle(build, oracle):
    for r in range(-1, 9):
        for c in range(-1, 9):
            try:
                want = oracle(r, c)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    build(r, c)
                continue
            got = build(r, c)
            assert got.vectors == want.vectors, (r, c)
            assert (got.ambient_dim, got.provenance) == (want.ambient_dim, want.provenance)
            assert all(type(x) is int for x in got.vectors[-1])
            assert got == want and hash(got) == hash(want)


def test_table_builders_return_one_object_per_shape():
    assert contingency_s_semi(3, 4) is contingency_s_semi(3, 4)
    assert contingency_s_dp(3, 4) is contingency_s_dp(3, 4)
    assert contingency_s_semi(3, 4) != contingency_s_semi(4, 3)


@pytest.mark.parametrize("kind, build", [("semi", contingency_s_semi), ("dp", contingency_s_dp)])
def test_table_geometry_equals_the_built_space(kind, build):
    # every shape with r, c <= 6, dp 1 x c and 1 x 1 among them
    low = 2 if kind == "semi" else 1
    for r, c in itertools.product(range(low, 7), repeat=2):
        space, geometry = build(r, c), table_geometry(kind, r, c)
        assert (geometry.provenance, geometry.ambient_dim, geometry.num_vectors, geometry.span_dim) == (
            space.provenance, space.ambient_dim, len(space.array), span_basis(space).s), (r, c)
        assert (geometry.delta_1, geometry.delta_2, geometry.delta_inf) == tuple(
            lp_sensitivity(space, p) for p in (1, 2, math.inf)), (r, c)
        z = np.random.default_rng([r, c]).normal(size=(5, r * c))
        P = projection_matrix(span_basis(space), r * c)
        np.testing.assert_allclose(geometry.project(z), z @ P, rtol=0, atol=1e-12)
    assert table_geometry(kind, 3, 4) is table_geometry(kind, 3, 4)
    with pytest.raises(ValueError, match=f"^r and c must both be >= {low}$"):
        table_geometry(kind, low - 1, 3)


def test_table_space_cache_keeps_the_recently_used_spaces_within_its_bytes(monkeypatch):
    def held():
        return sum(space.array.nbytes for space in sensitivity._table_spaces.values())

    sensitivity._table_space.cache_clear()
    a, b = contingency_s_semi(3, 3), contingency_s_semi(3, 4)
    bound = a.array.nbytes + b.array.nbytes
    monkeypatch.setattr(sensitivity, "TABLE_CACHE_BYTES", bound)
    assert contingency_s_semi(3, 3) is a  # b is now the least recently used
    contingency_s_dp(2, 2)
    assert list(sensitivity._table_spaces) == [("semi", 3, 3), ("dp", 2, 2)] and held() <= bound
    rebuilt = contingency_s_semi(3, 4)
    assert rebuilt == b and rebuilt is not b
    assert list(sensitivity._table_spaces) == [("dp", 2, 2), ("semi", 3, 4)] and held() <= bound
    assert contingency_s_semi(3, 4) is rebuilt and contingency_s_semi(3, 3) is not a
    monkeypatch.setattr(sensitivity, "TABLE_CACHE_BYTES", 0)
    assert contingency_s_semi(2, 2) == contingency_s_semi(2, 2) is not contingency_s_semi(2, 2)
    assert held() == 0


def test_table_space_cache_stays_within_its_bytes_under_threads(monkeypatch):
    # eight threads on two cores build and evict four shapes; a lost update
    # would leave the cache past its bound or hand back a wrong space
    shapes = [("semi", 3, 3), ("semi", 3, 4), ("dp", 2, 3), ("dp", 3, 3)]
    want = {shape: sensitivity._build_table_space(*shape) for shape in shapes}
    bound = sum(sorted(space.array.nbytes for space in want.values())[:2])
    sensitivity._table_space.cache_clear()
    monkeypatch.setattr(sensitivity, "TABLE_CACHE_BYTES", bound)
    wrong, finished = [], []

    def work(start):
        for i in range(200):
            shape = shapes[(start + i) % len(shapes)]
            if sensitivity._table_space(*shape) != want[shape]:
                wrong.append(shape)
        finished.append(start)  # not reached when a lookup raised

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and wrong == []
    assert sorted(finished) == list(range(8))
    assert sum(space.array.nbytes for space in sensitivity._table_spaces.values()) <= bound


def test_equal_spaces_hash_equal():
    space = contingency_s_semi(3, 3)
    copy = SensitivitySpace(space.vectors, space.provenance)
    assert copy is not space and copy == space and hash(copy) == hash(space)
    relabelled = SensitivitySpace(copy.array, "other")
    assert relabelled != space


def test_lp_sensitivity_zero_space():
    zero = SensitivitySpace(array=(ZERO4,), provenance="zero")
    assert lp_sensitivity(zero, 2) == 0.0


def test_negation_closure_enforced():
    with pytest.raises(ValueError):
        SensitivitySpace(array=((1, 0),), provenance="bad")


def test_rows_in_any_order_give_one_space():
    space = contingency_s_semi(3, 3)
    order = np.random.default_rng(3).permutation(len(space.array))
    shuffled = SensitivitySpace(space.array[order], space.provenance)
    assert shuffled == space and hash(shuffled) == hash(space)
    # the canonical order is Python's tuple order
    assert shuffled.vectors == space.vectors == tuple(sorted(space.vectors))
    assert [f.name for f in dataclasses.fields(SensitivitySpace)] == ["array", "provenance"]


def test_hash_is_the_same_in_every_process():
    code = "from semidp.sensitivity import contingency_s_semi; print(hash(contingency_s_semi(3, 4)))"
    env = {**os.environ, "PYTHONPATH": str(Path(semidp.__file__).parents[1])}
    outputs = {
        subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": seed},
                       capture_output=True, text=True, check=True).stdout
        for seed in ("1", "2")
    }
    assert outputs == {f"{hash(contingency_s_semi(3, 4))}\n"}


@pytest.mark.parametrize(
    "rows",
    [
        ((1, 0), (1, 0), (-1, 0)),  # duplicate
        (),
        np.zeros((0, 3), dtype=np.int64),
        ((1, 0), (-1,)),  # ragged
    ],
)
def test_invalid_rows_raise(rows):
    with pytest.raises(ValueError):
        SensitivitySpace(rows, "bad")


def test_array_is_read_only_and_owned():
    rows = np.array([[0, 1], [0, -1], [0, 0]])
    space = SensitivitySpace(rows, "line")
    assert space.array.dtype == np.int64 and not space.array.flags.writeable
    with pytest.raises(ValueError):
        space.array[0, 0] = 5
    assert rows.flags.writeable  # the caller's array is copied, not frozen


def test_rows_that_increase_are_kept_and_others_sorted():
    space = contingency_s_semi(3, 4)
    for rows in (space.array[::-1], np.roll(space.array, 5, axis=0), space.array.tolist()):
        built = SensitivitySpace(rows, space.provenance)
        assert built == space and hash(built) == hash(space)
    # rows that increase everywhere but one pair are sorted, not kept
    swapped = space.array.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    assert SensitivitySpace(swapped, space.provenance) == space


@pytest.mark.parametrize(
    "rows",
    [
        ((-1, 0), (0, 0), (0, 0), (1, 0)),  # sorted, one row repeated
        ((1, 0), (0, 0), (-1, 0), (0, 0)),  # unsorted, one row repeated
        ((0, 0), (0, 0)),
    ],
)
def test_duplicate_rows_are_refused_in_any_order(rows):
    with pytest.raises(ValueError, match="deduplicated"):
        SensitivitySpace(rows, "bad")


@pytest.mark.parametrize("rows,bad", [
    (((1.7, -1.7), (0, 0), (-1.7, 1.7)), "1.7"),  # once truncated to +-1, understating l2 as 1.414
    (((0.5, 0.0), (0.0, 0.0), (-0.5, 0.0)), "0.5"),  # once truncated to zeros: "deduplicated"
    (((math.nan, 0.0), (0.0, 0.0)), "nan"),
    (((math.inf, 0.0), (-math.inf, 0.0)), "inf"),
    (((1e19, 0.0), (-1e19, 0.0)), "1e+19"),  # integral, but past int64
])
def test_non_integer_entries_are_refused_by_value(rows, bad):
    message = f"^sensitivity vectors must hold int64 integers, got -?{re.escape(bad)}$"
    with pytest.raises(ValueError, match=message):
        SensitivitySpace(rows, "fractional")


def test_integral_floats_and_integer_dtypes_are_accepted():
    floats = SensitivitySpace(((2.0, -1.0), (0.0, 0.0), (-2.0, 1.0)), "floats")
    assert floats.array.dtype == np.int64 and floats.vectors == ((-2, 1), (0, 0), (2, -1))
    small = SensitivitySpace(np.array([[1, 0], [0, 0], [-1, 0]], dtype=np.int8), "int8")
    assert small.array.dtype == np.int64 and lp_sensitivity(small, 2) == 1.0


def test_sorted_rows_are_copied_not_aliased():
    rows = contingency_s_semi(2, 3).array.copy()
    space = SensitivitySpace(rows, "copy")
    assert rows.flags.writeable and not np.shares_memory(rows, space.array)
    rows[0, 0] = 7
    assert np.array_equal(space.array, contingency_s_semi(2, 3).array)
    fortran = np.asfortranarray(contingency_s_semi(2, 3).array)
    assert hash(SensitivitySpace(fortran, "copy")) == hash(contingency_s_semi(2, 3))


def test_table_shape_recognizes_every_semi_space_by_its_vectors():
    for r, c in itertools.product(range(2, 11), repeat=2):
        semi = contingency_s_semi(r, c)
        assert sensitivity._table_shape(semi) == (r, c)
        assert sensitivity._table_shape(SensitivitySpace(semi.array, "other")) == (r, c)


@pytest.mark.parametrize("r,c", [(2, 3), (3, 5), (4, 9), (2, 10)])
def test_table_shape_tells_the_transposed_shape_apart(r, c):
    # (r, c) and (c, r) share (m, d), so only the comparison of vectors decides
    semi, transposed = contingency_s_semi(r, c), contingency_s_semi(c, r)
    assert semi.array.shape == transposed.array.shape
    assert sensitivity._table_shape(SensitivitySpace(semi.array, "x")) == (r, c)
    assert sensitivity._table_shape(SensitivitySpace(transposed.array, "x")) == (c, r)


def _refuse_to_build(*args):
    raise AssertionError("a table space past the cap was built")


@pytest.mark.parametrize("build,r,c", [(contingency_s_semi, 15, 16), (contingency_s_semi, 16, 15),
                                       (contingency_s_dp, 1, 172), (contingency_s_dp, 4, 43)])
def test_table_spaces_past_the_cap_are_refused_before_building(monkeypatch, build, r, c):
    # the smallest refused shapes: semi 14x16 (4.89 M entries) and dp with
    # 171 cells (4.97 M) are under the 5 M cap, semi 15x16 and dp with 172
    # cells over it
    monkeypatch.setattr(sensitivity, "_table_space", _refuse_to_build)
    with pytest.raises(ValueError, match="more than TABLE_SPACE_CAP = 5,000,000"):
        build(r, c)
    for r_under, c_under in ((r, c - 1), (r - 1, c)):
        if min(r_under, c_under) >= (2 if build is contingency_s_semi else 1):
            monkeypatch.setattr(sensitivity, "_table_space", lambda kind, r, c: (kind, r, c))
            assert build(r_under, c_under)[1:] == (r_under, c_under)


@pytest.mark.parametrize("build", [contingency_s_semi, contingency_s_dp])
def test_table_space_cap_counts_the_entries_it_builds(monkeypatch, build):
    for r, c in [(2, 2), (2, 5), (3, 4), (4, 3), (5, 5)]:
        entries = build(r, c).array.size
        monkeypatch.setattr(sensitivity, "TABLE_SPACE_CAP", entries)
        build(r, c)
        monkeypatch.setattr(sensitivity, "TABLE_SPACE_CAP", entries - 1)
        with pytest.raises(ValueError, match=f"a {r}x{c} table space"):
            build(r, c)
        monkeypatch.undo()


def test_table_shape_refuses_spaces_with_other_vectors():
    for r, c in [(1, 4), (2, 2), (3, 3), (4, 4)]:
        assert sensitivity._table_shape(contingency_s_dp(r, c)) is None
    # the 3x3 space with all margins one: radius 2 gives the semi vectors, and
    # radius 3 adds the rotations of three records
    space, t = DataspaceSpec(n=3, levels=(3, 3)), ((1, 1, 1), (1, 1, 1))
    members = conforming_set(space, TABLE_INV, t)
    swaps, rotations = (brute_force_sensitivity_space(space, members, cell_count_query(space), radius)
                        for radius in (2, 3))
    assert sensitivity._table_shape(swaps) == (3, 3)
    assert len(rotations.array) > len(swaps.array)
    assert sensitivity._table_shape(rotations) is None
    # the same (m, d) as the 3x3 space, with cells (0, 0) and (1, 1) swapped
    swapped = SensitivitySpace(contingency_s_semi(3, 3).array[:, [4, 1, 2, 3, 0, 5, 6, 7, 8]], "x")
    assert swapped.array.shape == contingency_s_semi(3, 3).array.shape
    assert set(swapped.vectors) != set(contingency_s_semi(3, 3).vectors)
    assert sensitivity._table_shape(swapped) is None
    assert sensitivity._table_shape(SensitivitySpace(np.zeros((1, 4), dtype=int), "zero")) is None


def test_brute_force_singleton_subset():
    q = cell_count_query(TABLE_SPACE)
    x = ((1, 1), (1, 2), (2, 1))
    space = brute_force_sensitivity_space(TABLE_SPACE, [x], q, radius=1)
    assert set(space.vectors) == {ZERO4}


def test_cell_count_query_refuses_out_of_range_records():
    space = DataspaceSpec(n=2, levels=(2, 2))
    q = cell_count_query(space)
    assert q(((1, 1), (2, 2))) == (1, 0, 0, 1)
    # each of these once landed in a wrong cell or raised IndexError
    for record in [(0, 2), (2, 0), (1, 3), (2, 3), (1,), (1, 1, 1)]:
        with pytest.raises(ValueError, match=re.escape(str(record))):
            q(((1, 1), record))
        with pytest.raises(ValueError, match=re.escape(str(record))):
            brute_force_sensitivity_space(space, [((1, 1), (1, 2)), ((1, 1), record)], q, 1)


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
    cases = []
    for levels, t in [
        ((2, 2), TABLE_T),
        ((2, 3), ((2, 2), (1, 2, 1))),
        ((3, 3), ((2, 1, 1), (1, 2, 1))),
    ]:
        space = DataspaceSpec(n=sum(t[0]), levels=levels)
        radii = {0, 1, 2, semi_adjacent_parameter(space, inv, t)}
        cases.append((space, conforming_set(space, inv, t), cell_count_query(space), radii))
    # drawn datasets with repeats and a query that reads the first record: datasets
    # of one query value sit at different distances, and their run spans blocks
    rng = np.random.default_rng(7)
    drawn = [tuple(tuple(int(rng.integers(1, l + 1)) for l in (2, 3)) for _ in range(4))
             for _ in range(60)]
    cases.append((DataspaceSpec(n=4, levels=(2, 3)), drawn, operator.itemgetter(0), range(5)))
    for space, subset, q, radii in cases:
        for radius in sorted(radii):
            brute = brute_force_sensitivity_space(space, subset, q, radius)
            assert set(brute.vectors) == _brute_force_oracle(subset, q, radius), (subset[0], radius)


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
    space = SensitivitySpace(array=((1, 0), (-1, 0), (0, 1), (0, -1)), provenance="axes")
    assert span_basis(space).s == 2


def test_span_dimension_matches_independent_rank():
    for r, c in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]:
        space = contingency_s_semi(r, c)
        rank = np.linalg.matrix_rank(space.array)
        basis = span_basis(space)
        assert basis.s == rank == (r - 1) * (c - 1)
        assert basis.s < r * c  # margins keep the space rank-deficient


def _pivoted_mgs(space):
    """Oracle: modified Gram-Schmidt over every row, each step re-taking
    all residual norms and picking the largest (first on exact ties)."""
    residual = space.array.astype(float)
    threshold = RANK_TOL * float(np.sqrt((residual**2).sum(axis=1)).max())
    basis = []
    while True:
        norms = np.sqrt((residual**2).sum(axis=1))
        pick = int(np.argmax(norms))
        if norms[pick] <= threshold:
            break
        u = residual[pick] / norms[pick]
        if u[np.nonzero(np.abs(u) > 1e-12)[0][0]] < 0:
            u = -u
        basis.append(u)
        residual -= np.outer(residual @ u, u)
    return np.array(basis).reshape(len(basis), space.ambient_dim)


HULL_SAMPLER_SHAPES = [("semi", r, c) for r, c in
                       [(2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)]]
HULL_SAMPLER_SHAPES += [("dp", r, c) for r in range(1, 5) for c in range(1, 5)]
BUILDERS = {"semi": contingency_s_semi, "dp": contingency_s_dp}


@pytest.mark.parametrize("kind,r,c", HULL_SAMPLER_SHAPES)
def test_span_basis_matches_pivoted_mgs_on_hull_sampler_shapes(kind, r, c):
    # the basis is the SVD's, so its rank and projector, not its vectors, are
    # compared with an oracle that takes no SVD
    space = BUILDERS[kind](r, c)
    want = _pivoted_mgs(space)
    got = span_basis(space).vectors
    assert got.shape == want.shape
    assert np.abs(got.T @ got - want.T @ want).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize(
    "kind,r,c",
    [("semi", r, c) for r in range(2, 11) for c in range(2, 11)]
    + [("dp", r, c) for r in range(1, 5) for c in range(1, 5)],
)
def test_span_basis_rank_and_projector_match_svd(kind, r, c):
    space = BUILDERS[kind](r, c)
    A = space.array.astype(float)
    rank = np.linalg.matrix_rank(A)
    _, _, vt = np.linalg.svd(A, full_matrices=False)
    basis = span_basis(space).vectors
    assert basis.shape == (rank, r * c)
    assert np.abs(basis @ basis.T - np.eye(rank)).max(initial=0.0) <= 1e-12
    assert (basis[np.arange(rank), np.argmax(np.abs(basis) > 1e-12, axis=1)] > 0).all()
    assert np.abs(basis.T @ basis - vt[:rank].T @ vt[:rank]).max() <= 1e-12


def _exact_pivoted_gs(space):
    """Oracle in exact arithmetic: each step takes the first row with the
    largest squared residual norm, r.r - sum_j (r.Q_j)^2 / Q_j.Q_j over
    integer multiples Q_j of the residuals picked so far."""
    rows = space.array.tolist()
    rem = [Fraction(sum(x * x for x in r)) for r in rows]
    picked, basis = [], []
    while max(rem) > 0:
        row = rows[rem.index(max(rem))]
        q = [Fraction(x) for x in row]
        for Q, n in picked:
            c = Fraction(sum(a * b for a, b in zip(row, Q)), n)
            q = [x - c * y for x, y in zip(q, Q)]
        scale = math.lcm(*(x.denominator for x in q))
        Q = [int(x * scale) for x in q]
        n = sum(x * x for x in Q)
        picked.append((Q, n))
        rem = [v - Fraction(sum(a * b for a, b in zip(r, Q)) ** 2, n) for v, r in zip(rem, rows)]
        u = np.array(Q, dtype=float) / math.sqrt(n)
        basis.append(u if next(x for x in Q if x) > 0 else -u)
    return np.array(basis).reshape(len(basis), space.ambient_dim)


@pytest.mark.parametrize("r,c", [(3, 6), (6, 3), (3, 10), (4, 7), (5, 8), (6, 6), (8, 4), (7, 7)])
def test_span_basis_breaks_exact_ties_by_row_order(r, c):
    # these shapes hold rows whose residuals tie exactly, so a pivoted basis
    # depends on how the ties are broken; the span does not: the projector
    # must be the exact one
    space = contingency_s_semi(r, c)
    want = _exact_pivoted_gs(space)
    got = span_basis(space).vectors
    assert got.shape == want.shape
    assert np.abs(got.T @ got - want.T @ want).max() <= 1e-12


@pytest.mark.parametrize("N", [10**5, 10**6, 10**7, 10**8])
def test_span_basis_rechecks_residuals_downdating_loses(N):
    # after (N, 1) is taken, (N, 0) keeps a residual of about 1 against a
    # squared norm of N^2: downdating alone reads 0 or less at N = 1e8
    space = SensitivitySpace([(N, 0), (N, 1), (-N, 0), (-N, -1)], "near-parallel")
    basis = span_basis(space).vectors
    assert basis.shape == (2, 2)
    assert np.abs(basis @ basis.T - np.eye(2)).max() <= 1e-12


def test_span_dimension_matches_oracle_on_accounting_spaces():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(workloads)
    requests = [q for q in workloads.generate("accounting", 21, 32.0) if q["op"] == "accounting"]
    assert len(requests) > 100
    for request in requests:
        rows = tuple(tuple(row) for row in request["rows"])
        ds = DataspaceSpec(n=len(rows), levels=tuple(request["levels"]))
        margins = OneWayMargins(tuple(range(len(ds.levels))))
        t = dataspace.invariant_eval(margins, rows, ds)
        space = brute_force_sensitivity_space(
            ds, conforming_set(ds, margins, t), cell_count_query(ds),
            semi_adjacent_parameter(ds, margins, t))
        assert span_basis(space).s == len(_pivoted_mgs(space))


def test_projection_two_by_two_quarter_matrix():
    basis = span_basis(contingency_s_semi(2, 2))
    P = projection_matrix(basis, 4)
    expected = 0.25 * np.array(
        [[1, -1, -1, 1], [-1, 1, 1, -1], [-1, 1, 1, -1], [1, -1, -1, 1]], dtype=float
    )
    assert np.allclose(P, expected, atol=1e-12)
    assert np.allclose(P, P.T, atol=1e-9)
    assert np.allclose(P @ P, P, atol=1e-9)
    assert abs(float(np.trace(P)) - 1) <= 1e-9


def test_projection_edge_cases():
    zero = SensitivitySpace(array=(ZERO4,), provenance="zero")
    P0 = projection_matrix(span_basis(zero), 4)
    assert np.allclose(P0, np.zeros((4, 4)))

    axes = SensitivitySpace(array=((1, 0), (-1, 0), (0, 1), (0, -1)), provenance="axes")
    assert np.allclose(projection_matrix(span_basis(axes), 2), np.eye(2))


def test_projection_contracts_and_fixes_span():
    rng = np.random.default_rng(5)
    space = contingency_s_semi(3, 3)
    basis = span_basis(space)
    P = projection_matrix(basis, 9)
    for _ in range(20):
        v = rng.normal(size=9)
        assert np.linalg.norm(P @ v) <= np.linalg.norm(v) + 1e-12
    for v in space.array:
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
    vertices = [np.array(v, dtype=float) for v in _nonzero(space)[:3]]
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
        S = space.array
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
        S = space.array.T
        m = S.shape[1]
        points, near = _oracle_points(space, rng, 15, 3.0)
        for v in points + [v for v, _ in near]:
            ref = linprog(np.ones(m), A_eq=S, b_eq=v, bounds=[(0, None)] * m, method="highs")
            assert ref.status == 0
            assert gauge_norm(space, v) == pytest.approx(ref.fun, abs=1e-7)
        for v, inside in near:
            assert gauge_norm(space, v) == pytest.approx(1.0 - 1e-7 if inside else 1.0 + 1e-7, abs=1e-12)


def lp_gauge(space, v):
    """Oracle: the gauge of v by the LP over the hull in span coordinates,
    B the span basis and C the vertices' coordinates: the support function
    of the polar body, max (B v).z subject to C z <= 1, z = z+ - z-."""
    B = span_basis(space).vectors
    C = space.array.astype(float) @ B.T
    y = B @ np.asarray(v, dtype=float)
    return solve_lp(np.hstack([C, -C]), np.ones(len(C)), np.concatenate([y, -y]))


def _facet_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "facet_tables.py"
    module_spec = importlib.util.spec_from_file_location("facet_tables", path)
    tool = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tool)
    return tool


def _committed_table(r, c, suffix=""):
    """The committed facet table of the r x c hull, or with suffix "_cones" its cone table."""
    with np.load(Path(sensitivity.__file__).parent / FACET_FILE) as tables:
        assert sorted(tables.files) == sorted(f"{a}x{b}{part}" for a, b in TABLE_SHAPES
                                              for part in ("", "_cones"))
        table = tables[f"{r}x{c}{suffix}"]
    if suffix:
        assert table.dtype == np.uint8 and table.shape[1] == (r - 1) * (c - 1)
    else:
        assert table.dtype == np.int8 and table.shape[1] == r * c
    return table.astype(np.int64)


@functools.lru_cache(maxsize=None)
def _regenerated(r, c):
    """What ``tools/facet_tables.py`` writes for the r x c hull, and qhull's hull volume."""
    return _facet_tool().hull_tables(r, c)


def test_facet_tables_ship_as_package_data():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert FACET_FILE in pyproject["tool"]["setuptools"]["package-data"]["semidp"]


@pytest.mark.parametrize("r,c", TABLE_SHAPES)
def test_facet_table_is_what_qhull_finds(r, c):
    facets, cones, _ = _regenerated(r, c)
    committed = set(map(tuple, _committed_table(r, c).tolist()))
    assert committed == set(map(tuple, facets.astype(np.int64).tolist()))
    assert np.array_equal(_committed_table(r, c, "_cones"), cones.astype(np.int64))


def test_the_tool_checks_its_tables_as_the_loader_does(monkeypatch):
    tool, checked = _facet_tool(), []
    monkeypatch.setattr(tool, "_hull_from_tables", lambda *args: checked.append(args))
    facets, cones, _ = tool.hull_tables(2, 3)
    ((r, c, F, T),) = checked
    assert (r, c) == (2, 3) and F is facets and T is cones


def _symmetry_images(a, r, c):
    """Each image of the table a under a row permutation, a column permutation,
    transposition when r == c, and negation, one by one."""
    for rows in itertools.permutations(range(r)):
        for cols in itertools.permutations(range(c)):
            image = a[np.ix_(rows, cols)]
            for turned in ((image, image.T) if r == c else (image,)):
                yield turned
                yield -turned


@pytest.mark.parametrize("r,c", TABLE_SHAPES)
def test_cone_representatives_reproduce_the_facet_table(r, c):
    F, T = _committed_table(r, c), _committed_table(r, c, "_cones")
    V = contingency_s_semi(r, c).array
    on = F @ V.T == 2
    reps = [int(np.flatnonzero(on[:, simplex].all(axis=1))[0]) for simplex in T]
    sizes, seen = {}, set()
    for rep in dict.fromkeys(reps):
        orbit = set()
        for image in _symmetry_images(F[rep].reshape(r, c), r, c):
            shifted = image - image[:, :1] - image[:1, :] + image[0, 0]
            orbit.add(tuple(shifted.reshape(-1).tolist()))
        assert not orbit & seen
        seen |= orbit
        sizes[rep] = len(orbit)
    assert seen == set(map(tuple, F.tolist()))
    # orbit size times cone volume sums to qhull's volume; the picks follow it
    coords = V.astype(float) @ span_basis(contingency_s_semi(r, c)).vectors.T
    volumes = np.array([sizes[rep] * abs(np.linalg.det(coords[simplex])) / math.factorial(len(simplex))
                        for rep, simplex in zip(reps, T)])
    assert volumes.sum() == pytest.approx(_regenerated(r, c)[2], rel=1e-9)
    cones = sensitivity._hull_table(r, c)
    assert np.array_equal(cones.facets, F) and not cones.facets.flags.writeable
    assert np.diff(cones.cdf, prepend=0.0) == pytest.approx(volumes / volumes.sum(), rel=1e-9)


@pytest.mark.parametrize("r,c", TABLE_SHAPES)
def test_facet_table_rows_are_valid_and_tight_facets(r, c):
    F, V = _committed_table(r, c), contingency_s_semi(r, c).array
    s = span_basis(contingency_s_semi(r, c)).s
    values = F @ V.T
    assert (values.max(axis=1) == 2).all()  # valid: 2a.x <= 2 on every vertex, with equality
    assert len(np.unique(F, axis=0)) == len(F)
    for row in values:
        on_facet = V[row == 2]
        # tight: s affinely independent vertices span the facet's hyperplane
        assert np.linalg.matrix_rank(on_facet[1:] - on_facet[0]) == s - 1


@pytest.mark.parametrize("r,c", TABLE_SHAPES)
def test_facet_gauge_agrees_with_the_lp(r, c):
    space = contingency_s_semi(r, c)
    assert hull_cones(space) is not None
    basis = span_basis(space).vectors
    rng = np.random.default_rng(100 * r + c)
    points = rng.normal(size=(2000, len(basis))) @ basis * rng.uniform(0.0, 2.0, size=(2000, 1))
    for v in points:
        assert gauge_norm(space, v) == pytest.approx(lp_gauge(space, v), rel=1e-12, abs=0.0)


#: A three-record rotation of a 3x3 table: +1 on the diagonal, -1 beside it.
ROTATION = (1, -1, 0, 0, 1, -1, -1, 0, 1)


@pytest.mark.parametrize("r,c", TABLE_SHAPES)
def test_integer_moves_have_exact_gauges(r, c):
    # an integer table in the span centres to itself exactly, so the facet
    # table's integer products give the gauge with no rounding
    space = contingency_s_semi(r, c)
    for v in space.array:
        assert gauge_norm(space, v) == (1.0 if v.any() else 0.0)
        assert gauge_norm(space, 3 * v) == (3.0 if v.any() else 0.0)
    if (r, c) == (3, 3):
        assert gauge_norm(space, ROTATION) == 2.0


ROOT_SHAPES = ([("dp", r, c) for r in range(1, 5) for c in range(1, 5) if r * c > 1]
               + [("semi", 2, c) for c in range(2, 12)] + [("semi", r, 2) for r in range(3, 12)])


@pytest.mark.parametrize("kind,r,c", ROOT_SHAPES)
def test_root_integer_moves_have_exact_gauges(kind, r, c):
    # an integer move projects to itself exactly, by the closed form or, on
    # 2x2..2x4, 3x2 and 4x2, by the facet table, so its gauge is exact
    space = BUILDERS[kind](r, c)
    assert sensitivity.root_hull(space) is not None
    for v in space.array:
        assert gauge_norm(space, v) == (1.0 if v.any() else 0.0)
        assert gauge_norm(space, 3 * v) == (3.0 if v.any() else 0.0)
        assert hull_membership(space, v)
        assert hull_membership(space, 1.5 * v) == (not v.any())


def test_facets_attach_by_vectors_whatever_the_provenance():
    semi = contingency_s_semi(3, 3)
    renamed = SensitivitySpace(semi.array[::-1], "brute_force(radius=2, subset)")
    assert renamed != semi and hull_cones(renamed) is hull_cones(semi) is not None
    assert hull_cones(contingency_s_dp(2, 3)) is None
    assert hull_cones(contingency_s_semi(2, 5)) is None


@pytest.mark.parametrize("kind,r,c", [("dp", 1, 2), ("dp", 2, 3), ("dp", 4, 4), ("semi", 2, 2),
                                      ("semi", 2, 7), ("semi", 5, 2)])
def test_root_hull_is_the_root_polytope_of_the_space(kind, r, c):
    space = BUILDERS[kind](r, c)
    root = sensitivity.root_hull(space)
    n = root.s + 1
    assert n == (r * c if kind == "dp" else max(r, c)) and root.s == span_basis(space).s
    moves = np.eye(n, dtype=np.int64)[:, None, :] - np.eye(n, dtype=np.int64)[None, :, :]
    embedded = moves.reshape(-1, n)[:, root.cell] * root.sign.astype(np.int64)
    assert set(map(tuple, embedded.tolist())) == set(map(tuple, space.array.tolist()))
    renamed = sensitivity.root_hull(SensitivitySpace(space.array[::-1], "renamed"))
    assert np.array_equal(renamed.cell, root.cell) and np.array_equal(renamed.sign, root.sign)


def test_root_hull_refuses_other_spaces():
    dp = contingency_s_dp(2, 3).array
    others = [contingency_s_semi(3, 3), contingency_s_semi(3, 5), SensitivitySpace(dp[1:-1], "fewer moves"),
              SensitivitySpace(np.vstack([dp[:1] * 2, dp[1:-1], -dp[:1] * 2]), "a doubled move"),
              SensitivitySpace(np.zeros((1, 4), dtype=int), "zero"), contingency_s_dp(1, 1)]
    for space in others:
        assert sensitivity.root_hull(space) is None


def _load_3x3(facets, cones, tmp_path, monkeypatch):
    """``_hull_table(3, 3)`` read from a file that holds these 3x3 tables."""
    path = tmp_path / "facets.npz"
    np.savez(path, **{"3x3": facets.astype(np.int8), "3x3_cones": cones.astype(np.uint8)})
    monkeypatch.setattr(sensitivity, "FACET_FILE", str(path))
    sensitivity._hull_table.cache_clear()
    try:
        return sensitivity._hull_table(3, 3)
    finally:
        sensitivity._hull_table.cache_clear()


@pytest.mark.parametrize("corrupt", [lambda F: F[:, :-1], lambda F: np.vstack([F, F[:1] // 2])])
def test_load_refuses_a_table_that_is_not_the_facets(corrupt, tmp_path, monkeypatch):
    with pytest.raises(RuntimeError, match="3x3 table is not the facets"):
        _load_3x3(corrupt(_committed_table(3, 3)), _committed_table(3, 3, "_cones"), tmp_path, monkeypatch)


def _off_facet(T):
    """The cone table with one vertex of its first simplex moved off that simplex's facet."""
    F, V = _committed_table(3, 3), contingency_s_semi(3, 3).array
    facet = np.flatnonzero((F @ V[T[0]].T == 2).all(axis=1))[0]
    T = T.copy()
    T[0, 0] = np.flatnonzero(F[facet] @ V.T < 2)[0]
    return T


def _drop_from_a_shared_facet(T):
    """The cone table less the first simplex of a representative facet that has several."""
    F, V = _committed_table(3, 3), contingency_s_semi(3, 3).array
    facets = [int(np.flatnonzero((F @ V[simplex].T == 2).all(axis=1))[0]) for simplex in T]
    return np.delete(T, next(i for i, f in enumerate(facets) if facets.count(f) > 1), axis=0)


@pytest.mark.parametrize("corrupt", [
    lambda T: T[:, :-1],  # too few vertices a simplex
    lambda T: T[1:],  # the first representative's only simplex, and so its orbit, is gone
    _off_facet,
    lambda T: np.vstack([T, np.r_[T[0, :1], T[0, :-1]]]),  # a repeated vertex: a lower face
    lambda T: np.vstack([T, T[1:2, ::-1]]),  # a simplex twice
    _drop_from_a_shared_facet,  # one simplex of a multi-simplex representative dropped
])
def test_load_refuses_a_cone_table_that_is_not_the_hull(corrupt, tmp_path, monkeypatch):
    with pytest.raises(RuntimeError, match="3x3"):
        _load_3x3(_committed_table(3, 3), corrupt(_committed_table(3, 3, "_cones")), tmp_path, monkeypatch)


def _exact_det(M):
    """Determinant by Gaussian elimination in fractions."""
    M = [[Fraction(int(x)) for x in row] for row in M]
    det = Fraction(1)
    for i in range(len(M)):
        pivot = next((k for k in range(i, len(M)) if M[k][i] != 0), None)
        if pivot is None:
            return 0
        if pivot != i:
            M[i], M[pivot], det = M[pivot], M[i], -det
        det *= M[i][i]
        for k in range(i + 1, len(M)):
            factor = M[k][i] / M[i][i]
            M[k] = [x - factor * y for x, y in zip(M[k], M[i])]
    return int(det)


def test_gram_determinants_are_exact():
    rng = np.random.default_rng(7)
    for s in range(1, 10):
        W = rng.integers(-1, 2, size=(60, s, 16))
        W[:10, -1] = W[:10, 0] + W[:10, -2 % s] if s > 1 else 0  # dependent rows
        got = sensitivity._gram_determinants(W)
        assert got.tolist() == [_exact_det(w @ w.T) for w in W]
        assert not got[:10].any() and (got[10:] >= 0).all()


def _knorm_draws(space, seed, size):
    _, radii, directions, rejections = knorm_noise_samples(space, 0.5, NoiseRng(RngSeed(seed)), size)
    return radii, directions, np.array(rejections)


SAMPLER_CASES = [(2, 3, 40), (2, 4, 40), (3, 3, 40), (3, 4, 8), (4, 4, 1)]


def test_sampler_draws_equal_the_lp_only_path(monkeypatch):
    # a tabled draw reads the cone table alone: with every span basis, gauge
    # and LP refused, it draws the same bytes
    seeds = (3, 11, 12)
    facet = {(r, c, seed): _knorm_draws(contingency_s_semi(r, c), seed, size)
             for r, c, size in SAMPLER_CASES for seed in seeds}

    def refuse(*args, **kwargs):
        raise AssertionError("a tabled draw read the span or the gauge")

    for owner, name in ((sensitivity, "span_basis"), (sensitivity, "_span_basis_cached"),
                        (sensitivity, "gauge_norm"), (semidp.simplex, "solve_lp")):
        monkeypatch.setattr(owner, name, refuse)
    for r, c, size in SAMPLER_CASES:
        for seed in seeds:
            lp = _knorm_draws(contingency_s_semi(r, c), seed, size)
            for got, want in zip(facet[r, c, seed], lp):
                assert np.array_equal(got, want)
            assert not lp[2].any()


def _vertices(space):
    return [v.astype(float) for v in space.array if v.any()]


@pytest.mark.parametrize("r,c", TABLE_SHAPES)
def test_tries_near_a_vertex_decide_as_the_lp_does(r, c):
    space = contingency_s_semi(r, c)
    for v in _vertices(space)[:6]:
        for scale, inside in ((1.0 - 1e-7, True), (1.0, True), (1.0 + 1e-7, False)):
            assert hull_membership(space, scale * v) == inside
            assert (lp_gauge(space, scale * v) <= 1.0 + HULL_TOL) == inside


def _count_calls(monkeypatch, name, owner=sensitivity):
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_tabled_hulls_never_reach_the_lp(monkeypatch):
    lp_calls = _count_calls(monkeypatch, "solve_lp", owner=semidp.simplex)
    for r, c in TABLE_SHAPES:
        space = contingency_s_semi(r, c)
        for v in _vertices(space):
            for scale, inside in ((0.5, True), (1.0 + HULL_TOL / 2, True), (1.0 + 2 * HULL_TOL, False)):
                assert hull_membership(space, scale * v) == inside
            assert gauge_norm(space, v) == pytest.approx(1.0, abs=1e-12)
    gauges = _count_calls(monkeypatch, "gauge_norm")
    _, _, rejections = _knorm_draws(contingency_s_semi(3, 3), 4049, 300)
    assert rejections.sum() == 0 and gauges == []  # a cone draw takes no try and no gauge
    # untabled root hulls gauge in closed form too: a single-move space and a
    # semi space past the tables
    for untabled in (contingency_s_dp(2, 3), contingency_s_semi(2, 5)):
        assert hull_cones(untabled) is None
        assert hull_membership(untabled, _vertices(untabled)[0])
        assert gauge_norm(untabled, _vertices(untabled)[0]) == 1.0
    assert lp_calls == []
    # a brute-force space with vectors no table has, and no root polytope, is refused
    space, t = DataspaceSpec(n=3, levels=(3, 3)), ((1, 1, 1), (1, 1, 1))
    rotations = brute_force_sensitivity_space(space, conforming_set(space, TABLE_INV, t),
                                              cell_count_query(space), 3)
    with pytest.raises(ValueError, match=r"^the hull sampler refuses brute_force\(radius=3, subset\)"):
        hull_membership(rotations, _vertices(rotations)[0])


def test_tabled_paths_read_no_span_coordinates(monkeypatch):
    # tabled hulls are read in cells: gauges, membership, draws and the
    # Gaussian run with every span basis and LP refused; so do gauges,
    # membership, draws and the Gaussian on the root polytope
    def refuse(*args, **kwargs):
        raise AssertionError("a tabled path read span coordinates")

    for owner, name in ((sensitivity, "span_basis"), (sensitivity, "_span_basis_cached"),
                        (mechanisms, "span_basis"), (semidp.simplex, "solve_lp")):
        monkeypatch.setattr(owner, name, refuse)
    for r, c in TABLE_SHAPES:
        space = contingency_s_semi(r, c)
        v = space.array[-1] / 2.0
        assert gauge_norm(space, v) == 0.5 and hull_membership(space, v)
        assert gauge_norm(space, np.r_[1.0, np.zeros(r * c - 1)]) == math.inf
        knorm_noise_samples(space, 1.0, NoiseRng(RngSeed(r, c)), 3)
        mechanisms.gaussian_semi(np.zeros(r * c), space, 1.0, RngSeed(r, c))
    out = mechanisms.gaussian_semi(np.zeros(100), contingency_s_semi(10, 10), 1.0, RngSeed(10))
    assert out.meta["span_dim"] == 81 and out.meta["delta2"] == 2.0
    for space in (contingency_s_dp(3, 4), contingency_s_semi(2, 9), contingency_s_semi(6, 2)):
        assert hull_cones(space) is None
        v = space.array[-1] / 2.0
        assert gauge_norm(space, v) == 0.5 and hull_membership(space, v)
        assert gauge_norm(space, np.r_[1.0, np.zeros(space.ambient_dim - 1)]) == math.inf
        knorm_noise_samples(space, 1.0, NoiseRng(RngSeed(7)), 3)
        out = mechanisms.gaussian_semi(np.zeros(space.ambient_dim), space, 1.0, RngSeed(7))
        assert out.meta["span_dim"] == sensitivity.root_hull(space).s


@pytest.mark.parametrize("r,c", [(2, 2), (3, 3), (4, 4)])
def test_facet_path_refuses_bad_points(r, c):
    space = contingency_s_semi(r, c)
    assert hull_cones(space) is not None
    d = r * c
    for bad in (np.full(d, math.nan), np.r_[math.inf, np.zeros(d - 1)], np.zeros(d + 1), np.zeros((1, d))):
        with pytest.raises(ValueError):
            gauge_norm(space, bad)
        with pytest.raises(ValueError):
            hull_membership(space, bad)


def test_csv_exports():
    space = contingency_s_semi(2, 2)
    text = sensitivity_space_to_csv(space)
    assert text.splitlines()[0].count(",") == 3
    assert len(text.strip().splitlines()) == len(space.vectors)
