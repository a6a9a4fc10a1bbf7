"""Idempotents of Z_n, Z_n[x], and the 2x2 matrix ring over Z_n[x].

For squarefree n the idempotents of Z_n are the 2**m CRT combinations of
0/1 choices at the prime factors, the polynomial ring contributes nothing
new, and for n = p*q*r with primes above 3 every non-trivial idempotent
2x2 matrix over Z_n[x] falls into one of seven template families keyed by
its determinant and trace.  This package computes, generates and
brute-force verifies all of that.

The package exports no names and importing it loads none of its
submodules: import each name from the submodule that defines it, for
example `from idemring.polyring import Poly`.
"""

__version__ = "0.1.0"
