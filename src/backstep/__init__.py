"""Explicit Fredholm backstepping synthesis for diagonal spectral operators."""

from .errors import (CertificationError, DivergenceError, GainFloorError,
                     MathGuardError, ResonanceError, SingularMatrixError)
from .spectrum import (DistCertificate, GapReport, Kind, SpectrumModel,
                       dist_alpha, make_spectrum, make_tabulated,
                       model_from_json, model_to_json, mu_candidates,
                       select_mu, verify_gaps)
from .cauchy import (CauchySystem, build_cauchy, csum, explicit_inverse,
                     tail_log_bound, truncation_entry_bar)
from .transform import (BacksteppingSynthesis, ChiFunction, assemble, chi,
                        condition_number, feedback_gains_product,
                        feedback_gains_rowsum, operator_identity_residual,
                        spectral_norm, synthesis_to_json,
                        verify_closed_loop_eigen, weighted_norm)
from .quantitative import CostReport, SweepResult, cost_sweep, linear_fit, sweep_to_csv
from .oracles import (LogSignedProduct, all_J, bound_check_products,
                      bound_check_sums, eval_J, factorization_residual,
                      gain_cross_check, lower_bound_check_F, oracle_inverse)
from .simulate import (NullControlSchedule, StateVector, build_schedule,
                       measure_decay, norm_h, norm_weighted, propagate,
                       run_null_control, schedule_manifest_json, stage_synthesis,
                       state, trajectory, write_trajectory_csv)

__version__ = "0.1.0"
