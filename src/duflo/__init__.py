"""Exact rational verifier for symmetrization and contraction identities.

Modules, imported by name (the package root re-exports nothing):

  kernels  the hot loops: integer matrix product, sparse integer RREF, kernels of basis images
  sparse   LinComb (integer numerators over one denominator), graded recursions
  lie      matrix literals, Lie algebras from structure constants, representations
  catalog  built-in algebras and representations
  pbw      symmetrization diagram evaluated in End(V)
  hodge    bi-exterior contraction calculus and the Duflo twist
  series   truncated Chern-variable series (Todd, Chern character, Mukai)
  report   the canonical JSON report stream
  rng      seeded generator for reproducible cases
  cli      the `duflo` command
"""

__version__ = "0.1.0"
