"""Regenerate the frozen stable-CDF oracle values used in test_stablecdf.py.

Inverts the Laplace transform exp(-c p^a)/p (CDF) and exp(-c p^a)
(density) with mpmath's Talbot contour at 40 significant digits, which is
a fully independent path from the package's Kanter-integral quadrature.
W(0.5) at a = 0.7 is about 3.4e-38; Talbot needs degree 160 to resolve it
(degree 80 returns -3.2e-29 there), and at degree 160 every other value
agrees with degree 80 to the 17 digits printed.

Run:  python3 tests/oracles/gen_stable_oracle.py
"""

import mpmath as mp

mp.mp.dps = 40

CDF_POINTS = {
    0.3: [0.2, 1.0, 25.0, 1000.0],
    0.7: [0.5, 2.0, 5.0, 100.0, 10000.0, 1e7],
}
DENSITY_POINTS = {
    0.3: [1.0, 29.0, 10000.0],
    0.7: [5.0, 31.0, 300.0, 1e7],
}


def invert(a, Y, with_cdf_pole):
    a = mp.mpf(a)
    c = mp.gamma(1 - a) / a
    if with_cdf_pole:
        f = lambda p: mp.e ** (-c * p**a) / p
    else:
        f = lambda p: mp.e ** (-c * p**a)
    return mp.invertlaplace(f, mp.mpf(Y), method="talbot", degree=160)


def main():
    print("W_ORACLE = {")
    for a, ys in CDF_POINTS.items():
        for Y in ys:
            v = invert(a, Y, with_cdf_pole=True)
            print(f"    ({a}, {Y}): {mp.nstr(v, 17)},")
    print("}")
    print("WPRIME_ORACLE = {")
    for a, ys in DENSITY_POINTS.items():
        for Y in ys:
            v = invert(a, Y, with_cdf_pole=False)
            print(f"    ({a}, {Y}): {mp.nstr(v, 17)},")
    print("}")


if __name__ == "__main__":
    main()
