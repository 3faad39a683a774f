"""Every semidp cache empties the way the benchmark empties them between
passes, and no cache but ``_table_space`` keeps a table space alive."""

import gc
import sys
import weakref

import numpy as np

import semidp.cli  # noqa: F401  (loads every semidp module)
from semidp import sensitivity
from semidp.cnd import make_cnd
from semidp.dataspace import DataspaceSpec, OneWayMargins, conforming_set
from semidp.inference import Table2x2, _nchg_cached, umpu_test
from semidp.mechanisms import gaussian_semi, knorm_optimal
from semidp.rng import RngSeed
from semidp.sensitivity import (
    _span_basis_cached,
    brute_force_sensitivity_space,
    cell_count_query,
    contingency_s_dp,
    contingency_s_semi,
    table_geometry,
)
from semidp.tradeoff import gaussian_dp

#: Every module-level cache the walk finds. A cache keyed on a space keeps
#: that space alive past ``TABLE_CACHE_BYTES``, so a new one is declared here.
CACHES = {
    "semidp.sensitivity.table_geometry",
    "semidp.sensitivity._table_space",
    "semidp.sensitivity._span_basis_cached",
    "semidp.sensitivity._hull_table",
    "semidp.dataspace._conforming_cached",
    "semidp.inference._nchg_cached",
    "semidp.cli._build_parser",
}


def _semidp_caches():
    """The distinct callables with a ``cache_clear`` in semidp's modules, by name."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "semidp" or name.startswith("semidp.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def _clear_semidp_caches():
    for cache in _semidp_caches().values():
        cache.cache_clear()


def test_the_cache_walk_finds_exactly_the_declared_caches():
    assert set(_semidp_caches()) == CACHES


def test_no_cache_keeps_an_evicted_table_space_alive(monkeypatch):
    # each 2 x c space for c = 80..83 takes 8.1-9.0 MB, so a 10 MB bound holds
    # one of them: after draws and Gaussians on a dp space and then on each,
    # only the last is alive, held by _table_space
    monkeypatch.setattr(sensitivity, "TABLE_CACHE_BYTES", 10 << 20)
    sensitivity._table_space.cache_clear()
    refs = []
    for build, r, c in [(contingency_s_dp, 3, 4)] + [(contingency_s_semi, 2, c) for c in range(80, 84)]:
        space = build(r, c)
        query = np.zeros(space.ambient_dim)
        knorm_optimal(query, space, 1.0, RngSeed(1))
        gaussian_semi(query, space, 1.0, RngSeed(1))
        refs.append(weakref.ref(space))
    del space
    gc.collect()
    alive = [ref() for ref in refs if ref() is not None]
    assert [ref() is not None for ref in refs] == [False] * 4 + [True]
    assert all(any(space is held for held in sensitivity._table_spaces.values()) for space in alive)


def test_module_cache_walk_empties_space_and_conforming_caches():
    space, inv, t = DataspaceSpec(n=3, levels=(2, 2)), OneWayMargins((0, 1)), ((2, 1), (2, 1))
    semi = contingency_s_semi(3, 3)
    members = conforming_set(space, inv, t)
    assert contingency_s_semi(3, 3) is semi
    assert conforming_set(space, inv, t)[0] is members[0]
    _clear_semidp_caches()
    rebuilt = contingency_s_semi(3, 3)
    assert rebuilt == semi and rebuilt is not semi
    again = conforming_set(space, inv, t)
    assert again == members and again[0] is not members[0]


def test_module_cache_walk_empties_the_span_cache():
    # table spaces and their records take their projectors in closed form,
    # without span_basis; a brute-force space with no table record fills it
    data, t = DataspaceSpec(n=3, levels=(3, 3)), ((1, 1, 1), (1, 1, 1))
    members = conforming_set(data, OneWayMargins((0, 1)), t)
    rotations = brute_force_sensitivity_space(data, members, cell_count_query(data), 3)
    gaussian_semi(range(9), rotations, 1.0, RngSeed(1))
    assert _span_basis_cached.cache_info().currsize
    _clear_semidp_caches()
    assert _span_basis_cached.cache_info().currsize == 0


def test_module_cache_walk_empties_the_central_law_cache():
    umpu_test(Table2x2(5, 3, 2, 4), make_cnd(gaussian_dp(1.0)), 0.05)
    assert _nchg_cached.cache_info().currsize
    _clear_semidp_caches()
    assert _nchg_cached.cache_info().currsize == 0


def test_module_cache_walk_empties_the_table_geometry_cache():
    geometry = table_geometry("semi", 3, 4)
    assert table_geometry.cache_info().currsize and table_geometry("semi", 3, 4) is geometry
    _clear_semidp_caches()
    assert table_geometry.cache_info().currsize == 0 and table_geometry("semi", 3, 4) is not geometry
