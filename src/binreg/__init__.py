"""Binary regression with any log-concave inverse link: separation-aware
maximum likelihood fitting plus property-based verification of the sign,
zero-coefficient, and acute-angle facts about the fitted slope.
"""

from .core import (BinregError, CsvFormatError, Dataset, DesignMatrix,
                   DimensionMismatch, EmptyGroup, GroupStats, NonBinaryLabel,
                   NonFiniteValue, build_dataset, dataset_from_arrays,
                   extended_design, group_stats, read_csv)
from .links import (LINKS, ConcavityCertificate, LinkFamily, OutOfRange,
                    certify_log_concavity, get_link)
from .mle import (CONVERGED, DIVERGED, MAX_ITERATIONS, NOT_UNIQUE, ConfigError,
                  FitOptions, FitResult, Parameters, fit, hessian,
                  log_likelihood, score)
from .overlap import (DEGENERATE, OVERLAP, SEPARATED, ConeCertificate,
                      DimensionError, OverlapReport, ScalarBounds,
                      cone_overlap, scalar_overlap, separating_direction)
from .rng import CounterRng
from .simplex import LPNumericalFailure, solve_lp
from .verify import (ACUTE_ANGLE, SIGN_MATCH, ZERO_IFF_EQUAL_MEANS,
                     GenerationFailure, OracleBoundsError, PreconditionError,
                     TheoremReport, check_angle, check_sign, check_zero_iff,
                     gen_balanced, gen_gaussian, gen_overlapping,
                     gen_separated, grid_mle, run_angle_suite, run_sign_suite,
                     run_zero_suite, shift_dataset)

__version__ = "0.1.0"
