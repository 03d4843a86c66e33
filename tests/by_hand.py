"""Products written out by hand, each once and nowhere else in the tests.

The ordered products are multiplied out one factor at a time, and both
running-product stores are checked against them. The series product is
a plain convolution over exponent dicts, against which ``TruncSeries``
multiplication is checked.
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


def series_product_by_hand(a, b):
    """One {exponent: coefficient} dict per power of y in a * b."""
    out = []
    for m in range(a.order + 1):
        terms = {}
        for i in range(m + 1):
            p, q = a[i], b[m - i]
            for e1 in p.support():
                for e2 in q.support():
                    c = p.coefficient(e1) * q.coefficient(e2)
                    terms[e1 + e2] = terms.get(e1 + e2, 0) + c
        out.append({e: c for e, c in terms.items() if c})
    return out
