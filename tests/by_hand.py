"""The ordered products, multiplied out one factor at a time.

Both running-product stores are checked against these, so each product
is written out here once and nowhere else in the tests.
"""

from confpoly.ring import ONE, LaurentPoly

# every k with n both small and large, so a shuffle walks n up and down
ORDERED_CALLS = [(k, n) for k in range(4) for n in (0, 1, 2, 5, 9, 14)]


def ordered_by_hand(k, n):
    """(1 + k*x)(1 + (k+1)*x) ... (1 + (n+k-1)*x)."""
    product = ONE
    for j in range(n):
        product = product * LaurentPoly({0: 1, 1: k + j})
    return product


def falling_by_hand(k, n):
    """(x^2 - k)(x^2 - k - 1) ... (x^2 - k - n + 1)."""
    product = ONE
    for j in range(n):
        product = product * LaurentPoly({2: 1, 0: -(k + j)})
    return product
