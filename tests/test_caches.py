"""Every semidp cache empties the way the benchmark empties them between passes."""

import sys

import semidp  # noqa: F401  (loads every semidp module)
from semidp.dataspace import DataspaceSpec, OneWayMargins, conforming_set
from semidp.sensitivity import contingency_s_semi


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
