"""Numerical tolerance budget, kept in one place.

Every comparison threshold used by the library falls into one of three
buckets.  Tests import these constants rather than re-inventing numbers
(the dense references in ``tests/oracle.py`` default to them too), but
the table below lists only where the library itself enforces them.

==================  =======  ====================================================
constant            value    enforced by
==================  =======  ====================================================
SYMMETRY_TOL        1e-12    covariance symmetry defect of each pair run_plan
                             gathers, relative to the pair's scale
STRUCTURAL_TOL      1e-10    cross-rail decoupling: run_plan's check that each
                             pair is independent of all other modes, relative
                             to the pair's scale
PHYSICS_TOL         1e-9     purity: GaussianState.is_pure's symplectic
                             spectrum and z_from_state's block-row check, both
                             relative to the covariance's largest entry
==================  =======  ====================================================
"""

SYMMETRY_TOL = 1e-12
STRUCTURAL_TOL = 1e-10
PHYSICS_TOL = 1e-9

# Homodyne marginals narrower than this are treated as already-projected
# quadratures; conditioning on them is numerically meaningless.
DEGENERATE_VARIANCE = 1e-14
