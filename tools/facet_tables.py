#!/usr/bin/env python3
"""Write the facet tables of the one-way-margin table hulls.

For every 2 <= r, c <= 4 the convex hull of ``contingency_s_semi(r, c)`` is
fixed by (r, c). qhull finds its facets in span coordinates; each facet
a.x <= 1 is mapped back to the r x c cells, where a is fixed only up to
row and column constants (the span holds the tables whose rows and columns
sum to zero). The constants are chosen so that a's first row and first
column are zero, which makes 2a integral. qhull splits facets that are not
simplices, so the integer rows are deduplicated before they are written:
one int8 array of rows 2a per key "RxC" in ``src/semidp/facets.npz``.

Usage, from the repository root (needs scipy):

    python3 tools/facet_tables.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from semidp.sensitivity import FACET_FILE, FACET_SIZES, contingency_s_semi, span_basis  # noqa: E402

#: Largest distance of a computed 2a entry from its integer.
INTEGRAL_TOL = 1e-9


def facet_table(r: int, c: int) -> np.ndarray:
    """The distinct rows 2a, sorted, of the facets of hull(contingency_s_semi(r, c))."""
    space = contingency_s_semi(r, c)
    basis = span_basis(space).vectors
    coords = space.array.astype(float) @ basis.T
    if basis.shape[0] == 1:  # qhull needs two dimensions; this hull is a segment
        normals = 1.0 / np.array([[coords.max()], [coords.min()]])
    else:
        eq = ConvexHull(coords).equations  # n.y + b <= 0 on the hull, with b < 0
        normals = eq[:, :-1] / -eq[:, -1:]
    a = (normals @ basis).reshape(-1, r, c)
    a = a - a[:, :, :1] - a[:, :1, :] + a[:, :1, :1]
    two_a = 2.0 * a.reshape(len(a), r * c)
    table = np.rint(two_a)
    if np.abs(two_a - table).max() > INTEGRAL_TOL:
        raise RuntimeError(f"{r}x{c}: a facet normal is not half-integral")
    return np.unique(table.astype(np.int8), axis=0)


def main() -> int:
    tables = {f"{r}x{c}": facet_table(r, c) for r in FACET_SIZES for c in FACET_SIZES}
    out = ROOT / "src" / "semidp" / FACET_FILE
    np.savez_compressed(out, **tables)
    for key, table in tables.items():
        print(f"{key}: {len(table)} facets")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
