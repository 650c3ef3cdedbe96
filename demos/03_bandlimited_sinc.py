"""Bandlimited (Paley-Wiener) kernels and the two-sided sinc product
integral.

The space of functions with Fourier content in [-a, a] has kernel
sin(a(x - y)) / (pi (x - y)).  Integrating the product of two shifted
kernels over a growing window converges to another kernel value at the
slow O(1/R) rate typical of oscillatory tails.
"""

import numpy as np

from rkhskit import PaleyWienerSpace, build_span_basis, sinc_gram, sinc_ratio


def main():
    pw = PaleyWienerSpace(1.0)
    print("sinc kernel, a = 1")
    print(f"  k(0, 0)    = {pw.kernel(0.0, 0.0).real:.12f}   (1/pi = {1/np.pi:.12f})")
    print(f"  k(0, pi)   = {pw.kernel(0.0, np.pi).real:+.3e}  (zero: pi-spaced samples decouple)")
    print(f"  k(0, 1)    = {pw.kernel(0.0, 1.0).real:.12f}   (sin(1)/pi = {np.sin(1.0)/np.pi:.12f})")

    # pi-spaced sections are orthogonal, so their Gram matrix is diagonal
    basis = build_span_basis(pw.feature_map(), [k * np.pi for k in range(-3, 4)])
    off = np.abs(basis.gram - np.diag(np.diag(basis.gram))).max()
    print(f"\nGram of 7 pi-spaced sections: max off-diagonal {off:.2e}, diagonal 1/pi")

    # integral of sin(a(t-x))/(t-x) * sin(a(t-y))/(t-y) dt over (-R, R)
    # tends to pi * sin(a(x-y))/(x-y); the error decays like 1/R
    print("\ntwo-sided sinc product integral, a = 1, x = 0.4, y = -0.3")
    print("radius        lhs                rhs           |err|      4/radius")
    rhs = np.pi * sinc_ratio(1.0, -0.3 - 0.4)
    for radius in (10.0, 100.0, 1000.0):
        lhs = sinc_gram(1.0, (0.4, -0.3), radius)[0, 1]
        print(f"{radius:6.0f}   {lhs:+.12f}   {rhs:+.12f}   {abs(lhs - rhs):.2e}   {4/radius:.2e}")

    # coincident points: the integral of sin^2(a t)/t^2 tends to pi * a
    lhs = sinc_gram(2.0, (0.0, 0.0), 1000.0)[0, 1]
    print(f"\ncoincident points, a = 2: lhs = {lhs:.6f}, rhs = 2 pi = {np.pi * sinc_ratio(2.0, 0.0):.6f}")


if __name__ == "__main__":
    main()
