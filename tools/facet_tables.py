#!/usr/bin/env python3
"""Write the facet and cone tables of the one-way-margin table hulls.

For every shape (r, c) in ``semidp.sensitivity.TABLE_SHAPES`` (2 <= r, c <= 4,
and 3x5 and 5x3) the convex hull of ``contingency_s_semi(r, c)`` is fixed by
(r, c). The span holds the tables whose rows and columns sum to zero, and
such a table is fixed by its top-left (r - 1) x (c - 1) block, so qhull
runs on the blocks of the vertices, exact integer coordinates with no span
basis. A facet n.B <= 1 of the blocks is the facet a.x <= 1 of the tables
with a = n placed in the block and zero elsewhere; a is fixed only up to
row and column constants, which are chosen so that a's first row and first
column are zero, which makes 2a integral. qhull splits facets that are not
simplices, so the integer rows are deduplicated before they are written:
one int8 array of rows 2a per key "RxC" in ``src/semidp/facets.npz``.

qhull's split of each facet into (s - 1)-simplices is a triangulation of
it, so the cones conv(0, T) over those simplices T make up the hull. The
facets fall into orbits under the table symmetries (row and column
permutations, transposition when r == c, and negation); the first facet
of each orbit, in table order, is its representative. Its simplices of
positive volume are written as rows of s vertex indices into
``contingency_s_semi(r, c).array``, sorted, one uint8 array per key
"RxC_cones". Orbit sizes times the representatives' cone volumes must sum
to qhull's hull volume scaled from the blocks to the tables, that is times
sqrt(det(M M')) = sqrt(r^(c - 1) c^(r - 1)), M the map from a block to its
table; and both tables must pass the checks the package runs when it loads
them (``semidp.sensitivity._hull_from_tables``), so no table is written
that the package would refuse.

Usage, from the repository root (needs scipy):

    python3 tools/facet_tables.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from semidp.sensitivity import (  # noqa: E402
    FACET_FILE,
    TABLE_SHAPES,
    _facet_images,
    _gram_determinants,
    _hull_from_tables,
    _table_symmetries,
    contingency_s_semi,
)

#: Largest distance of a computed 2a entry from its integer.
INTEGRAL_TOL = 1e-9

#: Largest relative distance of the cone volumes' sum from qhull's hull volume.
VOLUME_TOL = 1e-9


def hull_tables(r: int, c: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(facet table, cone table, hull volume in span coordinates) of
    hull(contingency_s_semi(r, c)): the distinct rows 2a of its facets,
    sorted, and the representative simplices, as described above, checked
    as the package checks them at load."""
    space = contingency_s_semi(r, c)
    s = (r - 1) * (c - 1)
    coords = space.array.reshape(-1, r, c)[:, :-1, :-1].reshape(-1, s).astype(float)
    if s == 1:  # qhull needs two dimensions; this hull is a segment
        ends = np.array([coords.argmax(), coords.argmin()])
        simplices, normals, volume = ends[:, None], 1.0 / coords[ends], float(np.ptp(coords))
    else:
        hull = ConvexHull(coords)  # one simplex and equation n.y + b <= 0, b < 0, per row
        simplices, volume = hull.simplices, hull.volume
        normals = hull.equations[:, :-1] / -hull.equations[:, -1:]
    # M M' is the Kronecker product of I + J of order r - 1 (determinant r)
    # and of order c - 1 (determinant c)
    volume *= math.sqrt(r ** (c - 1) * c ** (r - 1))
    a = np.zeros((len(normals), r, c))
    a[:, :-1, :-1] = normals.reshape(-1, r - 1, c - 1)
    a = a - a[:, :, :1] - a[:, :1, :] + a[:, :1, :1]
    two_a = 2.0 * a.reshape(len(a), r * c)
    rows = np.rint(two_a)
    if np.abs(two_a - rows).max() > INTEGRAL_TOL:
        raise RuntimeError(f"{r}x{c}: a facet normal is not half-integral")
    table, facet_of = np.unique(rows.astype(np.int8), axis=0, return_inverse=True)
    facet_of = facet_of.reshape(-1)

    symmetries = _table_symmetries(r, c)
    orbit = np.full(len(table), -1)
    cones, total = [], 0.0
    for i in range(len(table)):
        if orbit[i] >= 0:
            continue
        images = _facet_images(table[i].astype(np.int64), r, c, symmetries)
        members = np.flatnonzero((table[:, None, :] == images[None, :, :]).all(axis=2).any(axis=1))
        if len(members) != len(images) or (orbit[members] >= 0).any():
            raise RuntimeError(f"{r}x{c}: the orbit of facet {i} is not a set of table rows")
        orbit[members] = i
        rep = np.sort(simplices[facet_of == i], axis=1)
        dets = _gram_determinants(space.array[rep])
        rep = rep[dets > 0]
        cones.append(rep[np.lexsort(rep.T[::-1])])
        total += len(images) * np.sqrt(dets[dets > 0]).sum() / math.factorial(s)
    if abs(total - volume) > VOLUME_TOL * volume:
        raise RuntimeError(f"{r}x{c}: the cones' volume {total} is not the hull's {volume}")
    cones = np.concatenate(cones).astype(np.uint8)
    _hull_from_tables(r, c, table, cones)
    return table, cones, volume


def main() -> int:
    tables = {}
    for r, c in TABLE_SHAPES:
        facets, cones, _ = hull_tables(r, c)
        tables[f"{r}x{c}"], tables[f"{r}x{c}_cones"] = facets, cones
        print(f"{r}x{c}: {len(facets)} facets, {len(cones)} representative simplices")
    out = ROOT / "src" / "semidp" / FACET_FILE
    np.savez_compressed(out, **tables)
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
