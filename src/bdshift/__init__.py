"""Exact computations in the shift algebras A(N) and B(N): normal-form
arithmetic, covariant-derivation classification, Toeplitz/quotient maps,
numerical truncation diagnostics, and GNS simulators for the two
canonical invariant states.

Import names from the submodules (bdshift.algebra, bdshift.derivations,
...).  The package itself imports none of them, so the exact modules load
without numpy; bdshift.numerics and bdshift.gns import it inside the
routines that form a float, so their exact half loads without it too."""

__version__ = "1.0.0"
