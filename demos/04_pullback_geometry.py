"""Two Kaehler forms, one map: the pullback identities, measured.

The forms are exact (the Bergman metric of each potential), and so is the
differential of the map (the Daleckii-Krein formula for (I - Z Z*)^(-1/2) Z);
central differences of the potentials and of psi itself serve as their oracles.

Run:  python demos/04_pullback_geometry.py
"""
from functools import partial

import numpy as np

from hjts import (
    Element,
    PotentialId,
    TypeI,
    TypeIV,
    format_kind,
    check_beta_exactness,
    check_lemma_a1,
    check_lemma_a2,
    check_symplectic_duality,
    check_volume_duality,
    kahler_matrix,
    potential,
    psi,
    sample_domain,
)
from hjts.duality import _psi_differential_rows, psi_rows
from hjts.geometry import complex_hessian, pullback_eval, real_jacobian

rng = np.random.default_rng(3)

print("=== potentials on the disc at z = 0.6 ===")
kind = TypeI(1, 1)
z = Element(kind, np.array([0.6], dtype=complex))
for pid in PotentialId:
    print(f"  {pid.value:>11s}: {potential(pid, z):+.8f}")

print()
print("=== the hyperbolic Hessian and its pullback ===")
omega_hyp = kahler_matrix(PotentialId.HYPERBOLIC, z)  # closed form, no step
print(f"  Hessian at 0.6:      {omega_hyp.hessian[0,0].real:.8f}   (exact 2.44140625)")
measured = complex_hessian(partial(potential, PotentialId.HYPERBOLIC), z)
print(f"  by differences:      {measured[0,0].real:.8f}   (the oracle, step 1e-5)")
_, derivs = _psi_differential_rows(kind, z.coords[None, :], np.array([[1.0 + 0j]]))
print(f"  d psi radial:        {derivs[0, 0, 0].real:.12f}   (exact 1.953125)")
jac = real_jacobian(psi_rows, z)  # psi on every stencil row at once
print(f"  by differences:      {jac.matrix[0,0]:.12f}   (the oracle, step 1e-5)")
omega_flat = kahler_matrix(PotentialId.FLAT, psi(z))
u, v = np.array([1.0 + 0j]), np.array([1j])
print(f"  (psi* omega_0)(u,v): {pullback_eval(omega_flat, jac, u, v):.8f}")
print(f"  omega_hyp(u,v):      {omega_hyp.evaluate(u, v):.8f}")

print()
print("=== both pullback identities, higher rank ===")
for kind in (TypeI(2, 2), TypeIV(4)):
    z = sample_domain(kind, rng, 0.9)
    err1, err2 = check_symplectic_duality(z)
    vol = check_volume_duality(z)
    print(f"  {format_kind(kind):>8s}: dual-form err {err1:.1e}, flat-form err {err2:.1e}, "
          f"volume err {vol:.1e}")

print()
print("=== the derivative identities behind the proof ===")
kind = TypeI(2, 2)
z = sample_domain(kind, rng, 0.85)
w = Element(kind, np.array([1.0, 0, 0, 0], dtype=complex))
print(f"  log-derivative of N, N*:  {check_lemma_a1(z, w):.2e}")
print(f"  trace-derivative, worst (p, k): {check_lemma_a2(z, w):.2e}")
print(f"  beta = d(gamma), both mirrors: {check_beta_exactness(z, w):.2e}")
