"""Exact computations in the shift algebras A(N) and B(N): normal-form
arithmetic, covariant-derivation classification, Toeplitz/quotient maps,
numerical truncation diagnostics, and GNS simulators for the two
canonical invariant states.

Import names from the submodules (bdshift.algebra, bdshift.derivations,
...).  The package itself imports none of them, so the exact modules load
without numpy; only bdshift.numerics and bdshift.gns need it."""

__version__ = "1.0.0"
