"""zetaforms: exact linear forms in odd zeta values, oscillating
subsequences via torus equidistribution, and the Diophantine bounds they
imply.  Each layer is imported from its own module (`zetaforms.forms`,
`zetaforms.zeta`, ...); the package namespace holds `__version__` only."""

__version__ = "0.1.0"
