"""sgtori: spectral data, period lattices and Willmore energies of low-genus
sinh-Gordon tori."""

from .potentials import (Potential, SpectralClass, SpectralPoint,
                         SpectralQuartic, classify, eval_zeta,
                         fixed_point_potential, off_diagonal_points,
                         spectral_poly)
from .laxflows import (FlowResult, Genus1State, Trajectory,
                       genus1_flow, genus1_period, integrate_flow,
                       integrate_frame, lax_vector_fields,
                       sinh_gordon_residual, trajectory_grid)
from .weierstrass import EllipticKernel, kernel_from_r, wp, wp_all, wp_prime, wzeta
from .genus1 import (Genus1Data, jacobian_T, lattice_g1, lift_genus1_potential,
                     log_mu1, log_mu2, quartic_from_rphi, recover_b_hats,
                     tau_tilde)
from .genus2 import (HyperCurve, build_cycles, b_period_map, mu_at_roots,
                     nu_on_contour, period_lattice, solve_b_omega)
from .modular import ReducedTau, lattice_distance, reduce, tau_hat
from .immersion import (ClosingData, ImmersionGrid, WillmoreReport,
                        closing_points_g1, conformality_defect,
                        periodicity_defect, willmore_direct, willmore_direct_g1,
                        willmore_explicit_g1, willmore_report,
                        willmore_residue_g1)

__version__ = "0.1.0"
