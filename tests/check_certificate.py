"""Check the certificate of `commbounds verify --format json` with the stdlib.

    commbounds verify --shape 9600 2400 600 --procs 37 --format json |
        python3 tests/check_certificate.py

The certificate proves that x* is the optimum D of
    minimize x1 + x2 + x3  s.t.  (mnk/P)^2 <= x1 x2 x3,
    nk/P <= x1,  mk/P <= x2,  mn/P <= x3.
From the JSON alone, in exact rational arithmetic, this re-derives primal
feasibility, mu >= 0, stationarity, complementary slackness and
x1 + x2 + x3 = D.  A value is (c0 + c1 b + c2 b^2) / den with b = r^(1/d).
"""

import json
import math
import sys
from fractions import Fraction


def iroot(n: int, d: int) -> int:
    """Floor of the d-th root of n >= 1, by integer Newton steps."""
    x = 1 << -(-n.bit_length() // d)
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def check(doc: dict) -> list:
    """The names of the conditions the certificate fails; [] if it holds."""
    cert = doc["certificate"]
    rn, rd, d = cert["radicand"]["num"], cert["radicand"]["den"], cert["root"]
    if not (rn > 0 and rd > 0 and math.gcd(rn, rd) == 1 and d in (1, 2, 3)):
        return ["field"]
    # sign() below needs 1, b, b^2 independent: no perfect d-th power
    if d > 1 and iroot(rn, d) ** d == rn and iroot(rd, d) ** d == rd:
        return ["field"]
    r = Fraction(rn, rd)

    def values(obj):
        if obj["den"] <= 0 or any(len(row) != d for row in obj["coefficients"]):
            raise ValueError(f"malformed coefficient lists {obj}")
        return [tuple(Fraction(c, obj["den"]) for c in row) + (0,) * (3 - d)
                for row in obj["coefficients"]]

    def mul(a, b):
        e = [sum(a[i] * b[j - i] for i in range(3) if 0 <= j - i <= 2) for j in range(5)]
        for j in range(4, d - 1, -1):  # b^j = r b^(j-d)
            e[j - d], e[j] = e[j - d] + e[j] * r, 0
        return tuple(e[:3])

    def sub(a, b):
        return tuple(u - v for u, v in zip(a, b))

    def sign(a):
        a0, a1, a2 = a
        if d == 1:
            s = a0 + a1 * r + a2 * r * r
        elif d == 2:  # a0 + a1 sqrt(r)
            s = a0 or a1 if a0 * a1 >= 0 else (a0 * a0 - a1 * a1 * r) * a0
        else:  # the norm, the element times |its complex conjugates|^2
            s = a0 ** 3 + a1 ** 3 * r + a2 ** 3 * r * r - 3 * a0 * a1 * a2 * r
        return (s > 0) - (s < 0)

    x, mu, (total,) = values(cert["x"]), values(cert["mu"]), values(cert["d"])
    if len(x) != 3 or len(mu) != 4:
        raise ValueError(f"need 3 values of x and 4 of mu, got {len(x)} and {len(mu)}")
    m, n, k = sorted(doc["shape"], reverse=True)
    P = doc["procs"]

    def const(q):
        return (Fraction(q), 0, 0)

    g = [sub(const(Fraction(m * n * k, P) ** 2), mul(mul(x[0], x[1]), x[2]))]
    g += [sub(const(Fraction(c, P)), xi) for c, xi in zip((n * k, m * k, m * n), x)]
    stat = [sub(sub(const(1), mul(mu[0], mul(x[(j + 1) % 3], x[(j + 2) % 3]))), mu[j + 1])
            for j in range(3)]
    checks = {
        "primal": all(sign(v) <= 0 for v in g),
        "dual": all(sign(v) >= 0 for v in mu),
        "stationarity": all(sign(v) == 0 for v in stat),
        "complementary": all(sign(mul(a, b)) == 0 for a, b in zip(mu, g)),
        "objective": sign(sub(tuple(map(sum, zip(*x))), total)) == 0,
    }
    return [name for name, ok in checks.items() if not ok]


if __name__ == "__main__":
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # read certificates of 1000-digit inputs
    try:
        failed = check(json.load(sys.stdin))
    except (KeyError, TypeError, ValueError) as e:
        sys.exit(f"certificate malformed: {e!r}")
    print("certificate fails: " + ", ".join(failed) if failed else "certificate holds")
    sys.exit(1 if failed else 0)
