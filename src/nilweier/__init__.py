"""nilweier: timelike minimal surfaces in the Heisenberg group Nil3.

From a para-holomorphic potential the engine integrates holomorphic frames,
performs loop group (Birkhoff/Iwasawa) factorization, applies Sym-type
formulas, and emits timelike minimal surfaces in Nil3 together with their
dual timelike CMC-1/2 surfaces in Minkowski 3-space, plus a verification
layer for every structure equation involved.
"""

from .config import BUILTINS, RunConfig, builtin_config, load_config
from .errors import (
    DegenerateMetric,
    DegeneratePotential,
    DegenerateSpinors,
    DomainError,
    EmptyGrid,
    EvalDomain,
    GaugeFailure,
    GridTooCoarse,
    NilWeierError,
    NoEpsilon,
    OutsideBigCell,
    ParityViolation,
    ParseError,
    ProjectionPole,
    SingularLoop,
    TruncationOverflow,
    ZeroDivisor,
)
from .expressions import Expression, parse_expression
from .factorization import BirkhoffResult, IwasawaResult, birkhoff_split, iwasawa_double
from .loopalg import (
    LoopPair,
    PCMatrix2,
    TailAccumulator,
    TwistedLoop,
    loop_exp,
    loop_inv,
    loop_mul,
    mu_log_derivative,
    pair_eval,
)
from .paracomplex import (
    NullPair,
    ParaComplex,
    epsilon_for_sqrt,
    pc,
    pc_arith,
    pc_exp,
    pc_exp_log,
    pc_log,
    pc_sqrt,
)
from .pipeline import (
    Pipeline,
    PotentialSpec,
    SurfaceGrid,
    build_extended_frames,
    extract_normalized_potential,
    pair_potential,
    solve_frame_ode,
    sym_map,
    translate_potential,
    weierstrass_integral_L3,
)

__version__ = "0.1.0"
