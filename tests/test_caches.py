"""Every semidp cache empties the way the benchmark empties them between passes."""

import sys

import semidp  # noqa: F401  (loads every semidp module)
from semidp.cnd import make_cnd
from semidp.dataspace import DataspaceSpec, OneWayMargins, conforming_set
from semidp.inference import Table2x2, _nchg_cached, umpu_test
from semidp.mechanisms import _gaussian_constants, gaussian_semi
from semidp.rng import RngSeed
from semidp.sensitivity import _span_basis_cached, contingency_s_semi
from semidp.tradeoff import gaussian_dp


def _clear_semidp_caches():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "semidp" or name.startswith("semidp.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


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


def test_module_cache_walk_empties_span_and_gaussian_caches():
    gaussian_semi(range(9), contingency_s_semi(3, 3), 1.0, RngSeed(1))
    assert _span_basis_cached.cache_info().currsize and _gaussian_constants.cache_info().currsize
    _clear_semidp_caches()
    assert _span_basis_cached.cache_info().currsize == _gaussian_constants.cache_info().currsize == 0


def test_module_cache_walk_empties_the_central_law_cache():
    umpu_test(Table2x2(5, 3, 2, 4), make_cnd(gaussian_dp(1.0)), 0.05)
    assert _nchg_cached.cache_info().currsize
    _clear_semidp_caches()
    assert _nchg_cached.cache_info().currsize == 0
