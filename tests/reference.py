"""Reference values computed straight from the weights, for the tests.

They play against the tallies and the parser the package keeps, so they
share no code with it beyond the SlWeight they build.  The two half
vectors at the end, one left fold each, are the rank routes' contractions
by a plainer route: the
fusion half asks every product at the full level in the order the diagrams
come, and the classical half multiplies whole shapes, full columns and
all, with the uncached LR kernel.  They read the package's fusion products
and LR kernel, which other tests pin.
"""

from collections import Counter

from cblocks.cb import fusion_expand
from cblocks.schur import _lr_walk
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


def _fold(first, rest, product):
    """{shape: multiplicity} of `first` times each diagram of `rest` in turn,
    each step through `product(shape, diagram)`."""
    vector = Counter({first: 1})
    for diagram in rest:
        out = Counter()
        for shape, c in vector.items():
            for nu, m in product(shape, diagram).items():
                out[nu] += c * m
        vector = out
    return dict(vector)


def fuse(r, level, parts):
    """Fusion vector of the diagrams `parts`, contracted left to right,
    each product asked at `level` itself with the pair in the order given."""
    return _fold(parts[0] if parts else (), parts[1:],
                 lambda mu, q: fusion_expand(r, level, mu, q))


def coinvariant_half(r, width, half):
    """Product of the diagrams `half` inside the (r+1) x width box, as
    {shape: multiplicity}, multiplied left to right: each whole shape, full
    columns and all, times the next diagram by the uncached LR kernel."""
    return _fold(half[0] if half else (), half[1:],
                 lambda shape, q: _lr_walk(shape, q, r + 1, width))
