"""First-order Sobolev spaces with a boundary condition at c: closed-form
kernels, the reproducing property checked by quadrature, and the isometry
of the indefinite integral transform.

The kernel on (a, b) with f(c) = 0 and weight rho is

    k(x, y) = int over the overlap of (c, x) and (c, y) of dt / rho(t)

so with rho = 1 and c = 0 it is sign(x) * min(|x|, |y|) when x, y sit on
the same side of c, and 0 otherwise.
"""

import numpy as np

from rkhskit import HVector, SobolevSpace, derivative_values, inner_weighted, make_interval, sample


def main():
    iv = make_interval(-1.0, 1.0)
    space = SobolevSpace(iv, c=0.0)

    print("closed-form kernel values, rho = 1, c = 0 on (-1, 1)")
    for x, y in [(0.3, 0.7), (0.7, 0.3), (-0.5, 0.2), (-0.4, -0.9)]:
        print(f"  k({x:5.2f}, {y:5.2f}) = {space.kernel(x, y):+.12f}")

    # reproducing property: f(y) - f(c) = <f', slope section at y> in the
    # derivative space.  Evaluation points must be declared to the feature
    # map so the slope jumps land on panel edges.
    ys = (0.25, 0.6, -0.35)
    fm = space.feature_map(ys)
    f = sample(fm.grid, lambda t: np.cos(3.0 * t) + 0.2 * t * t)
    fprime = HVector(fm.grid, derivative_values(fm.grid, f.values))
    print("\nreproducing check for f(t) = cos(3t) + 0.2 t^2")
    for y, slope in zip(ys, space.kernel_section_slope(ys, fm.grid)):
        lhs = inner_weighted(fprime, HVector(fm.grid, slope)).real
        rhs = np.cos(3.0 * y) + 0.2 * y * y - 1.0   # f(y) - f(0)
        print(f"  y = {y:+.2f}:  <f', k_y'> = {lhs:+.10f},  f(y) - f(0) = {rhs:+.10f},  diff = {abs(lhs - rhs):.2e}")

    # the map g -> int_c^x g dt is an isometry from the weighted L2 space
    # onto the Sobolev space: ||g||_L2 equals the Sobolev norm of its image
    g = sample(fm.grid, lambda t: np.exp(-t) * np.sin(2.0 * t))
    F = space.indefinite_transform(g)
    Fvals = HVector(fm.grid, np.array([F(t) for t in fm.grid.nodes]))
    n_src = float(np.sqrt(inner_weighted(g, g).real))
    n_img = space.norm_from_samples(Fvals)
    print(f"\nisometry of the indefinite integral: ||g|| = {n_src:.12f}, ||Ig||_W = {n_img:.12f}, rel diff = {abs(n_src - n_img) / n_src:.2e}")

    # a weight that vanishes at the anchor makes the kernel grow without
    # bound under refinement: the diagonal is int_0^x dt/t
    print("\nrho = t on (0, 1), c = 0: k(0.5, 0.5) under panel refinement (divergent)")
    for panels in (8, 32, 128):
        grow = SobolevSpace(make_interval(0.0, 1.0), c=0.0, rho=lambda t: t, panels=panels)
        print(f"  panels = {panels:4d}:  k = {grow.kernel(0.5, 0.5):.6f}")


if __name__ == "__main__":
    main()
