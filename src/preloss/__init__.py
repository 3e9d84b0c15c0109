"""Exact analyzer for probabilistic programs with hidden state.

Loss-function (weakest pre-loss) semantics over finite contexts, with
refinement checking, forward/backward simulation verification and an
independent forward-semantics oracle.  All arithmetic is exact rational.
"""

from .contexts import EMPTY, VarContext
from .families import FamilyOptions, TestFamily, standard_family
from .kernels import Kernel, Transformer, diag_kernel
from .losses import (
    LossFunction, embed, eval_loss, loss_add, loss_canonicalize, loss_conj,
    loss_equal, loss_map, loss_min, loss_refines, loss_scale,
    one_loss, point_dist, uniform_dist, zero_loss,
)
from .predicates import Predicate
from .scalars import INF, Scalar, scalar
from .semantics import WplResult, weakest_preloss
from .adversary import min_bayes_risk, min_bayes_risk_exhaustive, run_strategy
from .refinement import (
    Verdict, check_backward_simulation, check_forward_simulation,
    data_refines, program_refines,
)
from .typecheck import (
    classify_choiceless, classify_hidden, inline, typecheck_program,
    validate_datatype,
)

__all__ = [
    "EMPTY", "VarContext", "FamilyOptions", "TestFamily", "standard_family",
    "Kernel", "Transformer", "diag_kernel",
    "LossFunction", "embed", "eval_loss", "loss_add", "loss_canonicalize",
    "loss_conj", "loss_equal", "loss_map", "loss_min",
    "loss_refines", "loss_scale", "one_loss", "point_dist", "uniform_dist",
    "zero_loss", "Predicate", "INF", "Scalar", "scalar",
    "WplResult", "weakest_preloss",
    "min_bayes_risk", "min_bayes_risk_exhaustive", "run_strategy",
    "Verdict", "check_backward_simulation", "check_forward_simulation",
    "data_refines", "program_refines",
    "classify_choiceless", "classify_hidden", "inline", "typecheck_program",
    "validate_datatype",
]

__version__ = "0.1.0"
