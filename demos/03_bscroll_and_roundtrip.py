#!/usr/bin/env python3
"""A ruled surface from a null-direction potential, plus the inverse problem.

With f = g = 1, Q = 0 and R(t) = t only one null direction of the potential
carries curvature data.  The s-frame integrates in closed form to a shear
and the unitary frame factors as F = Phi_t * Phi_minus where Phi_minus is an
explicit shear built from the first Laurent coefficient of Phi_t; we verify
that identity numerically, then run the inverse direction: Birkhoff-split
the frames along the axes and recover the potential we started from.
"""

import math

import numpy as np

from nilweier import Pipeline, TwistedLoop, loop_mul, pair_potential
from nilweier.pipeline import extract_normalized_potential

pot = pair_potential("1", "1", "0", "t")
pipe = Pipeline(
    pot,
    np.linspace(-1, 1, 21),
    np.linspace(-1, 1, 21),
    trunc_n=20,
    steps_per_cell=8,
    thetas=(0.0,),
).run()
fg = pipe.frame_grid

# frame product identity F_raw = Phi_t * Phi_minus
worst = 0.0
for i, s in enumerate(fg.s_grid):
    for j, t in enumerate(fg.t_grid):
        phi_t = pipe.phi_t[j]
        c1 = phi_t.coeff(1)[1, 0]  # numerically t/4
        delta = 1 + s * c1 / 4
        phi_minus = TwistedLoop.from_terms(
            20, {0: [[1 / delta, 0], [0, delta]], -1: [[0, -s / 4], [0, 0]]}
        )
        frame = TwistedLoop(20, fg.frames[i, j], enforce_parity=False)
        raw = frame.scale_columns(math.exp(-fg.gauge_log[i, j]))
        worst = max(worst, float((raw - loop_mul(phi_t, phi_minus)).norm()))
print("ruled-surface frame identity, worst coefficient error:", worst)
print("c1(t=1) from the integrated frame:", pipe.phi_t[-1].coeff(1)[1, 0], "(= t/4)")

# inverse direction: frames -> normalized potential
rec = extract_normalized_potential(pipe, axis_values=np.linspace(-0.4, 0.4, 5))
print("\nrecovered potential along the axes:")
for k, x in enumerate(rec.axis_values):
    print(f"  x={x:+.2f}: f={rec.f[k]:.12f} g={rec.g[k]:.12f} "
          f"Q={rec.Q[k]:+.2e} R={rec.R[k]:+.12f} (input R = {float(x):+.2f})")
