"""Explicit Fredholm backstepping synthesis for diagonal spectral operators."""

from .errors import (CertificationError, GainFloorError, MathGuardError, ResonanceError,
                     SingularMatrixError)
from .spectrum import (DistCertificate, GapReport, Kind, SpectrumModel,
                       dist_alpha, make_spectrum, make_tabulated,
                       model_from_json, model_to_json, mu_candidates,
                       select_mu, verify_gaps)
from .cauchy import NodeTable, build_cauchy, csum, explicit_inverse, node_table
from .transform import (BacksteppingSynthesis, assemble, feedback_gains_product,
                        feedback_gains_rowsum, spectral_norm, synthesis_to_json,
                        weighted_norm)
from .quantitative import CostReport, SweepResult, cost_sweep, linear_fit, sweep_to_csv
from .simulate import (NullControlSchedule, build_schedule, propagate,
                       run_null_control, schedule_manifest_json, stage_synthesis,
                       trajectory, write_trajectory_csv)

__version__ = "0.1.0"
