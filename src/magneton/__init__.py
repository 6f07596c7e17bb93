"""Numerical laboratory for the Lorentz-averaged log-zeta potential.

The central object is the vertical-line average

    phi(rho) = integral_0^inf ln|zeta(rho + it)| dt / (1/4 + t^2),

evaluated two independent ways: tanh-sinh quadrature of the average
truncated at a height T (quad) and piecewise closed forms (magneton).
The field E = phi' jumps by 4 pi at rho = 1 and carries the first Li
coefficient in its kink at rho = 1/2; taylor re-derives that coefficient
from a prime sum, and diagnostics finds the two real crossings of the
symmetric well with a bracketed root finder.
"""

__version__ = "0.1.0"
