"""hyperlab: a desk-scale workbench for classical and hypercomputational models.

Areas: a deterministic Turing-machine engine, trial-and-error (limit)
computation, accelerated-machine time accounting, physical bounds on
mechanical computation, finite-precision real enumeration, and an adiabatic
ground-state decision procedure for small Diophantine equations -- each
checked against independent brute-force oracles in the test suite. ``linalg``
is one of them, loaded by no command: the dense Hermitian eigensolver
(numpy's ``eigh``) that the ground-state decision is checked against.
"""

__version__ = "0.1.0"
