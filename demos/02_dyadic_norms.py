"""
Dyadic frequency blocks and smoothness norms
============================================
"""

import math

import numpy as np

from gnslab import BesovIndex, Grid, SpectralField, besov_norm, block_lp_norms, build_cutoff, dilate, partition_sum

grid = Grid(n=2, N=64, L=2.0 * math.pi)
cutoff = build_cutoff(grid)
lo, hi = cutoff.safe_band()
print(f"resolved dyadic blocks q = {cutoff.q_min}..{cutoff.q_max}, safe band |k| in ({lo:.3f}, {hi:.3f})")

# the smooth annuli tile frequency space: their sum is 1 on the band
radii = np.exp(np.linspace(math.log(lo * 1.001), math.log(hi * 0.999), 1000))
dev = np.max(np.abs(partition_sum(radii) - 1.0))
print(f"partition of unity deviation on the band: {dev:.2e}")

# a field with energy in two separated blocks
f = SpectralField.from_modes(grid, {(3, 0): 0.5, (9, 0): 0.25})
per_block = block_lp_norms(f, p=2.0)
for q, val in zip(range(cutoff.q_min, cutoff.q_max + 1), per_block):
    print(f"  block q={q}:  L2 = {val:.6f}")

# Besov norm = weighted summary of the block column above
for s in (0.5, -1.0):
    idx = BesovIndex(s, 2.0, 1.0)
    val = besov_norm(f, idx)
    expect = sum(2.0 ** (s * q) * b for q, b in zip(range(cutoff.q_min, cutoff.q_max + 1), per_block))
    print(f"besov s={s:+.1f}, p=2, r=1:  {val:.6f}  (block sum {expect:.6f})")

# halving the box doubles every wavenumber; the norm scales like 2^(s - n/p)
g = SpectralField.from_modes(grid, {(3, 0): 1.0})
idx = BesovIndex(0.5, 2.0, 1.0)
before = besov_norm(g, idx)
after = besov_norm(dilate(g, 1), idx)
print(f"dilation gain: {after / before:.6f}  (expected 2^(s - n/p) = {2.0 ** (0.5 - 1.0):.6f})")
