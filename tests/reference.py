"""Reference values computed straight from the weights, for the tests.

They play against the tallies the package keeps, so they share no code
with it.
"""


def critical_level(r, weights):
    """-1 + (total size)/(r+1) when that is an integer, else None."""
    total = sum(sum(w.parts) for w in weights)
    if total % (r + 1):
        return None
    return total // (r + 1) - 1
