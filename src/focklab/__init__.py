"""jordan-fock-lab: exact and numerical checks for rank-4 Jordan-algebra Fock models.

Library layout (one module per subsystem):

  polyalg    exact multivariate polynomial arithmetic, differential operators
  linalg     exact rank, span membership and nullspace over Q, on one
             fraction-free integer echelon keyed by the caller's columns
  jordan     catalog of simple Jordan factors and the eleven product cases
  structure  structure-algebra and translate-span dimension checks
  bernstein  Bernstein polynomials, roots, identity verification, gamma ratios
  sl2        eta0 admissibility, delta constants, Harish-Chandra symbol identity
  fock       graded Fock spaces, operators as affine monomial rules, sl2 relations
             and irreducibility proved for every level m
  kernel     kernel coefficient series, root/parameter tables, Meijer-G layer
  gammaratio Gamma ratios on a vertical line: bounded float Stirling, mpmath reference
  report     CheckReport record shared by all verification suites
  checks     the check matrix (which case, q and family each suite covers) and its runner
  cli        command-line front end (catalog / verify / export)
"""

from focklab.jordan import build_case, default_catalog
from focklab.report import CheckReport

__all__ = ["CheckReport", "build_case", "default_catalog"]
__version__ = "0.1.0"
