"""Desk-scale Fourier unitarity: norm preservation, mutual inversion,
and the averaged inversion formula on boxes.

All integrals are composite Gauss-Legendre on truncated domains, so each
identity holds up to a tail that shrinks as the frequency radius grows.
t is time, x is frequency throughout.
"""

import math

import numpy as np

from rkhskit import (
    box_domain,
    box_inversion_check,
    mutual_inverse_check,
    plancherel_norm_check,
)


def main():
    # the flat window has transform ~ sin(x)/x, so the frequency-side norm
    # picks up its time-side value at the slow O(1/radius) tail rate
    flat = box_domain([1.0], max_frequency=200.0)
    window = lambda t: np.ones_like(t)
    print("norm of the flat window on (-1, 1) on both sides of the transform")
    print("radius   time-side norm^2    freq-side norm^2    rel err")
    for radius in (12.5, 25.0, 50.0, 100.0):
        rep = plancherel_norm_check(window, flat, radius)
        rel = abs(rep.norm_freq - rep.norm_time) / rep.norm_time
        print(f"{radius:6.1f}   {rep.norm_time**2:.12f}      {rep.norm_freq**2:.12f}      {rel:.2e}")

    # a smooth rapidly decaying function instead: machine precision at once
    box = box_domain([8.0], max_frequency=200.0)
    gauss = lambda t: np.exp(-t * t / 2.0)
    rep = plancherel_norm_check(gauss, box, 25.0)
    rel = abs(rep.norm_freq - rep.norm_time) / rep.norm_time
    print(f"\nexp(-t^2/2) at radius 25: norm^2 = {rep.norm_time**2:.12f} "
          f"(sqrt(pi) = {math.sqrt(math.pi):.12f}), rel err {rel:.2e}")

    # transform then invert, compare pointwise at interior probes
    rep = mutual_inverse_check(gauss, box, 50.0)
    print(f"\nround trip through both transforms, {rep.n_probes} probes: max abs err {rep.max_abs_err:.2e}")

    # the inversion formula integrated over (0, t): jump discontinuities are
    # harmless under the integral sign, though convergence slows near them
    print("\naveraged inversion of the flat window, radius 50")
    for t in (0.5, 0.9):
        rep = box_inversion_check(window, flat, 50.0, [t])
        print(f"  int_0^{t}: lhs = {rep.lhs.real:.10f}, rhs = {rep.rhs.real:.10f}, gap = {abs(rep.lhs - rep.rhs):.2e}")

    # a 2-d separable case: cosine times flat window, given as one factor
    # per axis, so it is sampled, transformed and integrated axis by axis
    box2 = box_domain([1.0, 1.0], max_frequency=120.0)
    rep2 = box_inversion_check((np.cos, window), box2, 40.0, [0.5, 0.5])
    print(f"\n2-d box inversion of cos(t1) on (-1,1)^2 at t = (0.5, 0.5):")
    print(f"  lhs = {rep2.lhs.real:.10f}  (exact sin(0.5) * 0.5 = {math.sin(0.5) * 0.5:.10f})")
    print(f"  rhs = {rep2.rhs.real:.10f}, gap = {abs(rep2.lhs - rep2.rhs):.2e}")


if __name__ == "__main__":
    main()
