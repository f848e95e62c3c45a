"""Reference values computed straight from the weights, for the tests.

They play against the tallies and the parser the package keeps, so they
share no code with it beyond the SlWeight they build.
"""

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
