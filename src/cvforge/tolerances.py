"""Numerical tolerance budget, kept in one place.

Every comparison threshold used by the library falls into one of three
buckets.  Tests import these constants rather than re-inventing numbers,
so the table below is the single source of truth.

==================  =======  ====================================================
constant            value    used for
==================  =======  ====================================================
SYMMETRY_TOL        1e-12    covariance symmetry defect of each pair run_plan
                             gathers (relative to the pair's scale) and of a
                             covariance CSV read back (relative to its largest
                             entry)
STRUCTURAL_TOL      1e-10    symplectic identity, graph self-inverse, permutation
                             round trips, cross-rail decoupling (run_plan's
                             check that each pair is independent of all other
                             modes, relative to the pair's scale)
PHYSICS_TOL         1e-9     nullifier variances, purity (symplectic spectrum /
                             Z reconstruction), complex-graph recovery
==================  =======  ====================================================
"""

SYMMETRY_TOL = 1e-12
STRUCTURAL_TOL = 1e-10
PHYSICS_TOL = 1e-9

# Homodyne marginals narrower than this are treated as already-projected
# quadratures; conditioning on them is numerically meaningless.
DEGENERATE_VARIANCE = 1e-14
