"""Bundle ranks by the Verlinde formula, with no Littlewood-Richardson product.

All three of the package's rank routes run on its LR kernel, so a wrong
coefficient there would reach every route and they would still agree.  This
module shares no code with the package: it imports nothing from cblocks.

With N = level + r + 1 and M = (r+1) N, the S-matrix form of the Verlinde
formula for sl_{r+1} reads

    rank * (r+1) * N^r = sum over mu of prod_{i<j} (2 - x_i/x_j - x_j/x_i)
                                         * prod_k s_{lambda_k}(x),

the sum running over every weight mu of the level alcove, 0 included.  Here
x_j = zeta_M^((r+1) a_j - |a|) with a = mu + rho in gl coordinates and
rho = (r, ..., 1, 0), so the x_j multiply to 1, and s_lambda comes from the
Jacobi-Trudi determinant over the complete homogeneous h_k.  Every value is
an integer vector mod x^M - 1, kept as {exponent: coefficient}.  The sum,
reduced mod the cyclotomic polynomial Phi_M, must be a constant that
(r+1) N^r divides; rank() checks both and raises AssertionError otherwise.
"""

from functools import lru_cache
from itertools import combinations_with_replacement, permutations


def _mul(a, b, m):
    """Product of two elements of Z[x]/(x^m - 1)."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = (i + j) % m
            out[k] = out.get(k, 0) + x * y
    return {k: c for k, c in out.items() if c}


def _add(a, b, scale=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


@lru_cache(maxsize=None)
def _cyclotomic(m):
    """Phi_m as integer coefficients, constant term first: x^m - 1 divided by
    every Phi_d with d a proper divisor of m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_quotient(poly, _cyclotomic(d))
    return tuple(poly)


def _exact_quotient(num, den):
    """num / den for integer polynomials (constant term first), den monic."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = num[i + len(den) - 1]
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert not any(num), "not an exact division"
    return quot


def _alcove(r, level):
    """Every sl_{r+1} weight with first row at most `level`, as parts."""
    for rows in combinations_with_replacement(range(level, -1, -1), r):
        yield tuple(x for x in rows if x)


@lru_cache(maxsize=None)
def _point(r, level, mu):
    """The exponents of x_0..x_r at the alcove weight mu, mod M."""
    big_m = (r + 1) * (level + r + 1)
    a = [x + r - i for i, x in enumerate(mu + (0,) * (r + 1 - len(mu)))]
    return tuple(((r + 1) * x - sum(a)) % big_m for x in a)


@lru_cache(maxsize=None)
def _complete(r, level, mu, top):
    """h_0 .. h_top of x_0..x_r at mu."""
    big_m = (r + 1) * (level + r + 1)
    h = [{0: 1}] + [{} for _ in range(top)]
    for e in _point(r, level, mu):
        # adding a variable x: h_k gains x * (the new h_{k-1})
        for k in range(1, top + 1):
            h[k] = _add(h[k], {(i + e) % big_m: c for i, c in h[k - 1].items()})
    return tuple(h)


@lru_cache(maxsize=None)
def _schur(r, level, mu, lam):
    """s_lam(x) at mu by Jacobi-Trudi: det h_{lam_i - i + j}."""
    big_m = (r + 1) * (level + r + 1)
    rows = len(lam)
    if not rows:
        return {0: 1}
    h = _complete(r, level, mu, lam[0] + rows - 1)
    total = {}
    for perm in permutations(range(rows)):
        term = {0: 1}
        for i, j in enumerate(perm):
            k = lam[i] - i + j
            if k < 0:
                break
            term = _mul(term, h[k], big_m)
        else:
            inversions = sum(perm[i] > perm[j] for i in range(rows) for j in range(i + 1, rows))
            total = _add(total, term, -1 if inversions % 2 else 1)
    return total


def _measure(r, level, mu):
    """prod_{i<j} (2 - x_i/x_j - x_j/x_i) at mu."""
    big_m = (r + 1) * (level + r + 1)
    e = _point(r, level, mu)
    out = {0: 1}
    for i in range(r + 1):
        for j in range(i + 1, r + 1):
            d = (e[i] - e[j]) % big_m
            factor = {0: 2}
            for k in (d, -d % big_m):     # one key when d = M/2
                factor[k] = factor.get(k, 0) - 1
            out = _mul(out, factor, big_m)
    return out


def rank(r, level, diagrams):
    """Rank of the sl_{r+1} conformal-block bundle at `level` with the weights
    `diagrams` (partitions with at most r+1 rows, first rows at most level)."""
    big_m = (r + 1) * (level + r + 1)
    total = {}
    for mu in _alcove(r, level):
        term = _measure(r, level, mu)
        for lam in diagrams:
            term = _mul(term, _schur(r, level, mu, tuple(lam)), big_m)
        total = _add(total, term)
    # reduce mod Phi_M: the remainder of a degree < M polynomial
    poly = [total.get(k, 0) for k in range(big_m)]
    phi = _cyclotomic(big_m)
    deg = len(phi) - 1
    for i in range(big_m - 1, deg - 1, -1):
        c = poly[i]
        if c:
            for j, p in enumerate(phi):
                poly[i - deg + j] -= c * p
    assert not any(poly[1:]), f"the sum is not constant mod Phi_{big_m}: {poly[:deg]}"
    norm = (r + 1) * (level + r + 1) ** r
    assert poly[0] % norm == 0, f"{poly[0]} is not divisible by (r+1) N^r = {norm}"
    return poly[0] // norm
