"""Reference values computed straight from the weights, for the tests.

They play against the tallies and the parser the package keeps, so they
share no code with it beyond the SlWeight they build.  The two half loops
at the end are the rank routes' contractions with no memo of their own:
they read the package's fusion and LR products, which other tests pin.
"""

from cblocks.cb import fusion_expand
from cblocks.schur import _lr_mult
from cblocks.young import SlWeight


def critical_level(r, weights):
    """-1 + (total size)/(r+1) when that is an integer, else None."""
    total = sum(sum(w.parts) for w in weights)
    if total % (r + 1):
        return None
    return total // (r + 1) - 1


def weight_from_fundamental(coeffs, r):
    """The weight a_1 w_1 + ... + a_r w_r: row i has a_i + ... + a_r boxes."""
    assert len(coeffs) == r and min(coeffs, default=0) >= 0
    return SlWeight(r, [sum(coeffs[i:]) for i in range(r)])


def padded_box_complement(p, rows, width):
    """Complement of p in the rows x width box, turned a half turn, read off
    the diagram padded to `rows` rows; full rows drop out."""
    return tuple(width - x for x in reversed(p + (0,) * (rows - len(p))) if x < width)


def fuse(r, level, parts):
    """Fusion vector of the diagrams `parts`, contracted left to right."""
    vec = {parts[0] if parts else (): 1}
    for q in parts[1:]:
        nxt = {}
        # no constituent spreads wider than mu[0] + q[0], so at that level or
        # above the product is the same: one entry serves those levels
        q0 = q[0] if q else 0
        for mu, c in vec.items():
            pair = (mu, q) if mu <= q else (q, mu)
            reach = mu[0] + q0 if mu else q0
            for nu, m in fusion_expand(r, reach if reach < level else level, *pair).items():
                nxt[nu] = nxt.get(nu, 0) + c * m
        vec = nxt
    return vec


def coinvariant_half(r, width, half):
    """Product of the diagrams `half` inside the (r+1) x width box, as
    {shape: multiplicity}, multiplied left to right."""
    # every partial product only grows, so shapes outside the box are dropped:
    # _lr_mult walks inside the box unless its slot already holds a wider
    # product.  A shape's c full columns come off before the product and go
    # back on after
    acc = {half[0] if half else (): 1}
    for q in half[1:]:
        nxt = {}
        for shape, mult in acc.items():
            c = shape[r] if len(shape) > r else 0
            base = tuple([x - c for x in shape if x > c]) if c else shape
            a, b = (base, q) if base <= q else (q, base)
            fit = width - c
            for u, m in _lr_mult(a, b, r + 1, fit).items():
                if u and u[0] > fit:
                    continue    # from a slot walked wider than this box
                if c:
                    u = tuple([x + c for x in u]) + (c,) * (r + 1 - len(u))
                nxt[u] = nxt.get(u, 0) + mult * m
        acc = nxt
    return acc
