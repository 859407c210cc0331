"""Mesh and table export.

Byte-stable by construction: floats are written with 17 significant digits
('%.17g', lossless for doubles), iteration order is fixed (theta outer,
space, then row-major with the s-index fastest), and holes follow one rule:
vertices are kept (as the origin) so indexing is stable, faces touching a
hole are omitted, CSV rows at holes are skipped.
"""

from __future__ import annotations

from .errors import EmptyGrid
from .pipeline import SurfaceGrid

__all__ = ["export_obj", "export_csv"]

_SPACES = {"nil": "nil", "l3": "l3", "normal": "normals"}


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def export_obj(sg: SurfaceGrid, theta_index: int, space: str = "nil") -> bytes:
    """Wavefront OBJ for one spectral angle and one target space."""
    ns, nt = len(sg.s_grid), len(sg.t_grid)
    if ns == 0 or nt == 0:
        raise EmptyGrid("no gridpoints to export")
    if sg.holes.all():
        raise EmptyGrid("every gridpoint is a hole")
    values = getattr(sg, _SPACES[space])[theta_index]
    lines = []
    for j in range(nt):
        for i in range(ns):
            if sg.holes[i, j]:
                lines.append("v 0 0 0")
            else:
                x = values[i, j]
                lines.append(f"v {_fmt(x[0])} {_fmt(x[1])} {_fmt(x[2])}")
    for j in range(nt - 1):
        for i in range(ns - 1):
            corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
            if any(sg.holes[a, b] for a, b in corners):
                continue
            idx = [b * ns + a + 1 for a, b in corners]
            lines.append("f {} {} {} {}".format(*idx))
    return ("\n".join(lines) + "\n").encode()


def export_csv(sg: SurfaceGrid) -> bytes:
    """One CSV over all spectral angles and spaces; hole rows are skipped."""
    ns, nt = len(sg.s_grid), len(sg.t_grid)
    if ns == 0 or nt == 0:
        raise EmptyGrid("no gridpoints to export")
    rows = ["s,t,theta,space,x1,x2,x3"]
    for k, theta in enumerate(sg.thetas):
        for space in ("nil", "l3", "normal"):
            values = getattr(sg, _SPACES[space])[k]
            for j in range(nt):
                for i in range(ns):
                    if sg.holes[i, j]:
                        continue
                    x = values[i, j]
                    rows.append(
                        ",".join(
                            [
                                _fmt(sg.s_grid[i]),
                                _fmt(sg.t_grid[j]),
                                _fmt(theta),
                                space,
                                _fmt(x[0]),
                                _fmt(x[1]),
                                _fmt(x[2]),
                            ]
                        )
                    )
    return ("\n".join(rows) + "\n").encode()

