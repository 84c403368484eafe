"""
Checking the derivation against the master equation
====================================================

The truncated master equation is an independent oracle: it evolves the
full state distribution with no symbolic input beyond the scheme itself.
Two checks run here.  A single dying particle must follow the analytic
survival law exp(-t).  And for logistic growth the time derivative of
the mean must equal the expected drift, state by state, which ties the
symbolic first jump moment to the actual flow of probability.
"""

import math
from fractions import Fraction

from onestep import (RateMode, StateBox, build_generator, default_box,
                     distribution_moments, drift_vector, evolve_distribution,
                     jump_moments, parse_scheme, point_mass, rate)

# --- one particle, unit death rate -----------------------------------------

death = parse_scheme("phi -> 0 @ beta\n")
box = StateBox((1,))
gen = build_generator(death, {rate("beta"): 1}, box)

print("pure death, one particle:")
print("    t    p(alive)    exp(-t)     |diff|")
dist = point_mass(box, (1,))
for t in (0.25, 0.5, 1.0, 2.0):
    dist = evolve_distribution(gen, dist, t, dt=1e-3)
    alive = dist.probabilities[1]
    print(f"    {t:<4} {alive:.8f}  {math.exp(-t):.8f}  "
          f"{abs(alive - math.exp(-t)):.2e}")
print()

# --- logistic growth: mean flow equals expected drift -----------------------

scheme = parse_scheme("phi <-> 2 phi @ lambda, gamma\nphi -> 0 @ beta\n")
rates = {rate("lambda"): 1, rate("beta"): Fraction(1, 5),
         rate("gamma"): Fraction(1, 20)}
vbox = default_box(scheme, rates, initial_state=(10,))
vgen = build_generator(scheme, rates, vbox)
print(f"logistic growth on a box of {vbox.size} states:")

start = point_mass(vbox, (10,))
at_t = evolve_distribution(vgen, start, 1.0, dt=1e-3)
mean, cov = distribution_moments(at_t)
print(f"    at t = 1: mean = {mean[0]:.6f}, variance = {cov[0, 0]:.6f}, "
      f"leaked mass = {at_t.leaked:.2e}")

# d<phi>/dt by central difference
h = 0.005
ahead = evolve_distribution(vgen, at_t, 1.0 + h, dt=1e-3)
behind = evolve_distribution(vgen, start, 1.0 - h, dt=1e-3)
m_ahead, _ = distribution_moments(ahead)
m_behind, _ = distribution_moments(behind)
slope = (m_ahead[0] - m_behind[0]) / (2 * h)

# sum_phi A(phi) p(phi) with the exact (falling-factorial) drift
drift = drift_vector(scheme, RateMode.EXACT)[0]
phi = scheme.species[0]
expectation = sum(float(drift.evaluate({phi: s[0], **rates})) * p
                  for s, p in zip(vbox.states(), at_t.probabilities))

print(f"    d<phi>/dt numerically   = {slope:.8f}")
print(f"    expected drift <A(phi)> = {expectation:.8f}")
print(f"    |difference|            = {abs(slope - expectation):.2e}")
print()

# --- spot check: enumerated jump moments are the symbolic coefficients ------

state = (7,)
moments = jump_moments(scheme, rates, [state])
den = moments.denominator       # every moment is an int numerator over it
print(f"jump moments at phi = {state[0]} (exact rationals):")
print(f"    first  = {Fraction(moments.first[0, 0], den)}")
print(f"    second = {Fraction(moments.second[0, 0][0], den)}")
print(f"    drift polynomial evaluated there = "
      f"{drift.evaluate({phi: state[0], **rates})}")
