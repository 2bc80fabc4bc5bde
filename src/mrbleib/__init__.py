"""Exact-arithmetic toolkit for modified Rota-Baxter Leibniz algebras.

Everything runs over arbitrary-precision rationals: axiom defect checkers,
the derived bracket and induced module, three cochain complexes with their
cohomology, truncated formal deformations, and the dictionary between
abelian extensions and degree-2 cone cocycles, whose zero class is the
semidirect product.  See the cli module for the batch interface.
"""

__version__ = "0.1.0"
