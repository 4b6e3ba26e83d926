"""Resource caps and numeric defaults.

The caps are fixed and live only here: no call, option or environment
variable overrides them.  Each guard checks its cap before it allocates, so a
typo in a CLI flag fails fast (exit 2) instead of allocating gigabytes.

PRIME_CAP bounds the kept prime sieve of ``arith`` and with it the singular
series: a prime bound above it, or an n with a prime factor above it, is
refused, so trial division of any n stops at the primes <= PRIME_CAP.
"""

# Sphere enumeration (pure-Python DFS): maximum projected points per call.
POINT_CAP = 10**8

# Box sweep of enumerated_counts, vectorized over three coordinates: maximum
# projected points per call (r_4 up to n = 5000 is projected at 2.0e8).
BOX_POINT_CAP = 5 * 10**8

# count_range: largest nmax (the convolution holds a few rows of nmax + 1, of
# 2 to 8 bytes a cell by each pass's overflow bound, and returns int64).
RANGE_NMAX_CAP = 10**8

# Maximum p**d entries of any array over (Z/pZ)^d: a test function, the
# quadric index vector and the census rank, all checked by
# lattice.require_space.  decay_study also expands its per-orbit deviations
# to the level support in blocks of at most this many; theta_coeffs reads no
# blocks, it contracts the orbit table one orbit column at a time.  A
# generator table holds no function but f: it reads every L^k S_a f off f.
ENTRY_CAP = 10**7

# Residue census: maximum cells of the kept orbit table with its rank,
# (nmax + 1) * C(p//2 + d, d) + p**d, which caps every library reader, and
# separately of one expanded residue_census table, (nmax + 1) * p**d, which
# only the oracles build.  A table cell takes 2, 4 or 8 bytes, int16, int32
# or int64 by the largest count of the finished table (8 while a build pass
# whose overflow bound needs it runs); a rank cell takes 8.
CENSUS_CELL_CAP = 3 * 10**8

# Largest modulus accepted by the exponential-sum evaluators.
Q_CAP = 2**20

# Largest 1-d cut of a theta evaluation (each partial sum holds 2T + 1 terms).
THETA_CUT_CAP = 2 * 10**6

# srw_profile: largest p**d * p**r table.
PROFILE_CELL_CAP = 5 * 10**7

# rsum_check / tsum_check: largest brute-force grid.  tsum_check also
# refuses a modulus p^r whose int64 squares could wrap.
BRUTE_GRID_CAP = 10**7

# Largest prime of the kept sieve (a bool sieve of PRIME_CAP + 1 bytes and
# 664,579 int64 primes), hence the largest prime factor of n and the largest
# prime cutoff a singular series accepts.
PRIME_CAP = 10**7

# Truncation target for theta evaluations.
DEFAULT_EPS = 1e-12

# Largest prime automatically included in singular-series products.
DEFAULT_PRIME_CUTOFF = 101
