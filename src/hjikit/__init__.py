"""hjikit: verify, falsify, construct, and smooth L2-gain storage functions.

The library mechanizes the pointwise gain-witness condition for nonlinear
control systems; its subpackages cover the expression DSL (:mod:`hjikit.expr`),
system shapes and the example zoo (:mod:`hjikit.systems`), storage candidates
and subdifferentials (:mod:`hjikit.storage`), region verification
(:mod:`hjikit.hji`), trajectory audits (:mod:`hjikit.trajectories`), the 1-D
constructive upgrade (:mod:`hjikit.construct1d`), gain-relaxed smoothing
(:mod:`hjikit.smoothing`), and the nonexistence auditors (:mod:`hjikit.audits`).
"""

from .errors import HjikitError
from .expr import EvalError, ExprSyntaxError, compile_evaluator, evaluate, parse, to_source
from .hji import (GainScan, Region, Sweep, WitnessReport, affine_residual, check_witness,
                  gamma_range, general_residual, min_gain_scan, needed_gains,
                  point_residual, power_residual, residuals, supply)
from .storage import (GradientUndefinedError, MissingOracleError, StorageCandidate,
                      SubdiffSet, builtin, builtins, from_expression,
                      verify_subgradient)
from .systems import (AffineSystem, GeneralSystem, ZooEntry, system_from_config,
                      system_to_config, zoo, zoo_entry)
from .trajectories import (BlowUpError, ConstantInput, PiecewiseConstantInput,
                           SinusoidInput, Trajectory, dissipation_audit,
                           integrate, integrate_ensemble, l2_gain_lowerbound,
                           random_piecewise_ensemble)
from .construct1d import (ConstructedW, DriftSignError, Envelope, InfeasibleAtError,
                          QuadCoeffs, construct_w, delta, f_membership, h_from_v,
                          p_of_x)
from .smoothing import (CertifiedSmooth, MollifiedFunction, check_case1_p2,
                        choose_delta, compactify, decompactify, mollify,
                        mollify_candidate, smooth_witness, theta,
                        transformed_field, upsilons)
from .audits import (AuditReport, audit_curve_monotone, audit_curve_tangency,
                     audit_scalar_straddle, audit_sigma1_axis, audit_sigmap,
                     verify_sigma3_pieces)

__version__ = "0.1.0"
