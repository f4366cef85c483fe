"""Walkthrough: the floating-point companion.

The z-dependent statements (three-term relations among theta functions, the
logarithmic-derivative lemma) and the residue-theorem setups are checked
numerically: theta(z, tau) by one truncated-sum kernel that computes the
z-free weights once per (tau, characteristic) and walks each z by Horner's
rule, residues by seeded contour integration over a contour whose theta
values are summed once per characteristic, all derivatives analytic.

Run:  python demos/numeric_checks.py
"""

from fractions import Fraction as F

from theta5 import (NumericConfig, char, check_bridge, check_prop31,
                    check_residues, residue_num, run_numeric_check, theta_num)

cfg = NumericConfig()
print(f"seed = {cfg.rng_seed}; sampling Re tau in {cfg.re_tau}, Im tau in {cfg.im_tau}")
print()

print("== a residue, concretely: phi(z) = theta^2[1,1/5](z) theta[1,3/5](z) / theta^3[1,1](z)")
tau = 0.13 + 1.21j
phi = lambda z: (theta_num(z, tau, char(1, F(1, 5))) ** 2
                 * theta_num(z, tau, char(1, F(3, 5)))
                 / theta_num(z, tau, char(1, 1)) ** 3)
res = residue_num(phi, 0j, 0.1, cfg)
print(f"Res(phi, 0) at tau = {tau}:  |{res:.3e}|  (an elliptic function whose only")
print("pole sits at 0 must have vanishing residue there)")
print()

print("== all twelve phi/psi setups, five seeded tau values each")
for name, worst in check_residues(5, cfg).items():
    print(f"  setup {name:8s} max |residue| = {worst:.3e}")
print()

print("== the three-term relations at 20 random (z, tau) points")
print(f"  first  relation: max residual = {check_prop31('first', 20, cfg):.3e}")
print(f"  second relation: max residual = {check_prop31('second', 20, cfg):.3e}")
print()

print("== exact/numeric bridge at tau = 0.2 + 1.4i")
print(f"  worst relative gap over the catalog characteristics: {check_bridge():.3e}")
print()

print("== the named checks (same surface as `theta5 numeric-check`)")
for check_id in ("N1", "N2", "N3", "N4", "N5", "N6"):
    r = run_numeric_check(check_id, cfg=cfg)
    print(f"  {r.id}: {'pass' if r.passed else 'FAIL'} "
          f"residual={r.value:.2e} tol={r.tolerance:.0e}  {r.description}")
