"""Mesh and table export.

Byte-stable by construction: floats are written with 17 significant digits
('%.17g', lossless for doubles), iteration order is fixed (theta outer,
space, then row-major with the s-index fastest), and holes follow one rule:
vertices are kept (as the origin) so indexing is stable, faces touching a
hole are omitted, CSV rows at holes are skipped.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyGrid
from .pipeline import SurfaceGrid

__all__ = ["export_obj", "export_csv"]

_SPACES = {"nil": "nil", "l3": "l3", "normal": "normals"}


def export_obj(sg: SurfaceGrid, theta_index: int, space: str = "nil") -> bytes:
    """Wavefront OBJ for one spectral angle and one target space."""
    ns, nt = len(sg.s_grid), len(sg.t_grid)
    if ns == 0 or nt == 0:
        raise EmptyGrid("no gridpoints to export")
    if sg.holes.all():
        raise EmptyGrid("every gridpoint is a hole")
    # [j, i] order: the t-index outer, the s-index fastest
    values = getattr(sg, _SPACES[space])[theta_index].swapaxes(0, 1).reshape(-1, 3).tolist()
    lines = [
        "v 0 0 0" if hole else "v %.17g %.17g %.17g" % tuple(x)
        for x, hole in zip(values, sg.holes.T.ravel().tolist())
    ]
    h = sg.holes
    solid = ~(h[:-1, :-1] | h[1:, :-1] | h[1:, 1:] | h[:-1, 1:])  # cells with no hole corner
    for j, i in np.argwhere(solid.T).tolist():
        a = j * ns + i + 1
        lines.append("f %d %d %d %d" % (a, a + 1, a + ns + 1, a + ns))
    return ("\n".join(lines) + "\n").encode()


def export_csv(sg: SurfaceGrid) -> bytes:
    """One CSV over all spectral angles and spaces; hole rows are skipped."""
    ns, nt = len(sg.s_grid), len(sg.t_grid)
    if ns == 0 or nt == 0:
        raise EmptyGrid("no gridpoints to export")
    j, i = np.nonzero(~sg.holes.T)  # the t-index outer, the s-index fastest
    st = list(zip(sg.s_grid[i].tolist(), sg.t_grid[j].tolist()))
    rows = ["s,t,theta,space,x1,x2,x3"]
    for k, theta in enumerate(sg.thetas):
        for space in ("nil", "l3", "normal"):
            values = getattr(sg, _SPACES[space])[k][i, j].tolist()
            rows += [
                "%.17g,%.17g,%.17g,%s,%.17g,%.17g,%.17g" % (s, t, theta, space, *x)
                for (s, t), x in zip(st, values)
            ]
    return ("\n".join(rows) + "\n").encode()
