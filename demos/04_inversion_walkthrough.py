"""Recovering function values from a transform image.

Three stages on the same Sobolev space:
  1. a span member is inverted exactly through the kernel sections,
  2. a general source shows the coarse-basis warning and the error it signals,
  3. the integral-operator route recovers a primitive from samples of its
     derivative, with no span assumption at all.
"""

import math
import warnings

import numpy as np

from rkhskit import (
    SobolevSpace,
    build_span_basis,
    generalized_invert_at,
    indefinite_integral_sequence,
    invert_at,
    make_interval,
    sample,
    span_combination,
    transform,
)


def main():
    space = SobolevSpace(make_interval(-1.0, 1.0), c=0.0)
    pts = np.linspace(-0.9, 0.9, 13)   # spacing 0.15
    fm = space.feature_map(pts)
    basis = build_span_basis(fm, pts)

    # stage 1: f = sum_i c_i k(., x_i) round-trips through its transform
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(basis.size)
    image = transform(span_combination(basis, coeffs), fm)
    print("span member, 13 kernel sections, values via invert_at:")
    worst = 0.0
    for t in (-0.75, -0.3, 0.45, 0.9):
        got = invert_at(image, t, basis)
        want = sum(c * space.kernel(t, float(x)) for c, x in zip(coeffs, basis.points))
        worst = max(worst, abs(got - want))
        print(f"  t = {t:+.2f}:  recovered = {got.real:+.10f}, direct = {want.real:+.10f}")
    print(f"  worst abs error {worst:.2e}")

    # stage 2: probing between basis points triggers the coarse warning
    print("\nprobing t = 0.31 (between basis points):")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        invert_at(image, 0.31, basis)
    msg = str(caught[0].message) if caught else "no warning"
    print(f"  {msg}")

    # stage 3: f' is sampled, the integral operator maps it back to f - f(0);
    # the inverse formula evaluates the primitive pointwise, and the error
    # shrinks as the section basis is refined
    print("\nprimitive of cos from its transform (exact value sin t):")
    for n in (13, 25, 49):
        pts_n = np.linspace(-0.9, 0.9, n)
        fm_n = space.feature_map(pts_n)
        basis_n = build_span_basis(fm_n, pts_n)
        seq = indefinite_integral_sequence(fm_n)
        img_cos = transform(sample(fm_n.grid, np.cos), fm_n)
        errs = [abs(generalized_invert_at(seq, img_cos, t, basis_n) - math.sin(t))
                for t in (0.25, 0.5, 0.8)]
        print(f"  {n:3d} sections:  worst err over t in (0.25, 0.5, 0.8) = {max(errs):.2e}")


if __name__ == "__main__":
    main()
