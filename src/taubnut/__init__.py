"""Numerical toolkit for a family of toric scalar-flat gravitational
instantons: coordinate charts, distance functions and geodesics, curvature
and L^2 energies, volume growth, and blowdown limits.

The four metric families are selected through
:class:`taubnut.family.InstantonParams`, whose instances belong to the
family's class.  Every formula that differs between families -- parameter
validation, chart domain, charts, metric, eikonal and radial relations,
curvature closed forms, almost-ball data -- is written in that family's
class in :mod:`taubnut.family`, so adding a family or a domain rule touches
one class.  The other modules are family-blind functions over the parameter
object: root solves, quadratures, ODE shooting and finite-difference oracles.
"""

__version__ = "0.1.0"
