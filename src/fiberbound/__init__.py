"""Exact computer algebra for rational maps P^m --> P^n.

Computes the GCD F of the 3-minors of the Jacobian matrix, locates the
(m-1)-dimensional fibers with their defining equations, and certifies the
degree-bound chain

    sum deg(h_y)  <=  sum (2e_i - 1) deg(h_i)  <=  deg F  <=  3(d - 1)

together with the syzygy-refined bound deg F <= 3(d-1) - indeg(Syz(I)).
"""

from .analysis import AnalysisReport, run_analysis
from .errors import (AllCombinationsZero, AllMinorsZero, ArityMismatch,
                     BadInput, BadPoint, BasePointError, CharDividesDegree,
                     CommonFactor, FDoesNotDivideMinor, FiberboundError,
                     MixedDegrees, NoSyzygyFound, NotDivisible, NotHomogeneous,
                     ParseError, PthPowerHazard, RationalModeUnsupported,
                     SingularChange, SOutOfRange, SyzygyCheckFailed)
from .fibers import (BoundChainReport, DiscoveryResult, FiberRecord,
                     ProjectivePoint, RankCheck, discover_fibers,
                     fiber_equation, minor_vanishing_check,
                     tangent_rank_check, verify_bound_chain)
from .fields import DEFAULT_PRIME, PrimeField, RationalField
from .gcd import gcd_multivariate, squarefree_decompose, squarefree_part
from .jacobian import (EulerSyzygy, JacobianReport, Minor, RationalMapInput,
                       build_jacobian, euler_syzygy, fitting_invariance_check,
                       gcd_of_minors, generic_finiteness_check,
                       jacobian_report, minors)
from .mapfile import parse_map_file, parse_polynomial, print_map_file
from .poly import MvPoly
from .syzygy import (GradedKernelBasis, IndegResult, graded_syzygy_kernel,
                     indeg_syzygy, linear_dependence_check,
                     monomials_of_degree)

__version__ = "0.1.0"
