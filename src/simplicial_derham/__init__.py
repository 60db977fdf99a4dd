"""Exact-rational de Rham chains on finite simplicial sets.

The package computes with a chain model built from polynomial
differential forms with rational coefficients: local building blocks on
single simplices, a global functor on finite simplicial sets, a
symmetric monoidal (shuffle) product, a stabilized suspension model of
the same functor, and an exact homology engine certifying that the
model computes ordinary homology.  Everything is exact; no floats.
"""

from .rationals import Q, qstr, qparse
from .ordmaps import (OrdMap, face, degeneracy, identity, subset_incl, eps,
                      enumerate_shuffles, operad_left, operad_right)
from .polyforms import (Poly, FormElt, ThetaElt, theta_top, s_monomial,
                        sort_sign, pairing_sign)
from .philocal import (PhiElt, delta, delta_prime, delta_dblprime, push_phi,
                       big_pair, xi_witness, vertex_connector)
from .sset import (SSet, DegSimplex, build, delta as delta_space,
                   boundary_delta, sphere, point, cube, product, quotient,
                   product_ref, surjections)
from .phiglobal import (PhiChain, CochainForm, phi_boundary, phi_of_chain,
                        truncated_complex, validate_cochain, global_pair,
                        omega_wedge, homology_report)
from .monoidal import (mu_theta, shuffle_sign, shuffle_product_N, mu_phi,
                       mu_phi3, transport_swap, gap_diagnostic)
from .colimit import (UElt, StabClass, z_of, phi_sharp, eta, nu, lambda_star,
                      zeta, zeta_prime, psi)
from .linalg import QMatrix, ChainComplexQ
from .verify import REGISTRY, run_suite

__version__ = "0.1.0"

__all__ = [
    "Q", "qstr", "qparse",
    "OrdMap", "face", "degeneracy", "identity", "subset_incl", "eps",
    "enumerate_shuffles", "operad_left", "operad_right",
    "Poly", "FormElt", "ThetaElt", "theta_top", "s_monomial",
    "sort_sign", "pairing_sign",
    "PhiElt", "delta", "delta_prime", "delta_dblprime", "push_phi",
    "big_pair", "xi_witness", "vertex_connector",
    "SSet", "DegSimplex", "build", "delta_space", "boundary_delta",
    "sphere", "point", "cube", "product", "quotient", "product_ref",
    "surjections",
    "PhiChain", "CochainForm", "phi_boundary",
    "phi_of_chain", "truncated_complex", "validate_cochain", "global_pair",
    "omega_wedge", "homology_report",
    "mu_theta", "shuffle_sign", "shuffle_product_N", "mu_phi", "mu_phi3",
    "transport_swap", "gap_diagnostic",
    "UElt", "StabClass", "z_of", "phi_sharp", "eta", "nu", "lambda_star",
    "zeta", "zeta_prime", "psi",
    "QMatrix", "ChainComplexQ",
    "REGISTRY", "run_suite",
]
