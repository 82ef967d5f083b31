"""Instance generators.

Three deterministic families that witness how far equilibria can sit from
the optimum (big_nash, nash_ratio_lb, uniform_gap), plus a seeded random
generator for sweep tests.  Generators are pure functions of their
parameters; the random family uses a fixed, portable PRNG so identical
seeds give identical instances everywhere.
"""

import math
from fractions import Fraction

from .model import Assignment, Instance, _Kernel, _as_fraction, format_rational


def gen_big_nash(n: int) -> Instance:
    """Two identical resources, two tasks of weight n^2 and n-2 unit tasks.

    Every equilibrium must separate the two heavy tasks, which forces a cost
    at least n/5 times the optimum (the optimum stacks both heavy tasks on
    one resource and every unit task on the other).
    """
    if n <= 2:
        raise ValueError("this family needs more than two tasks")
    heavy = Fraction(n * n)
    weights = (heavy, heavy) + (Fraction(1),) * (n - 2)
    return Instance(weights=weights, delays=(Fraction(1), Fraction(1)))


def gen_uniform_gap(epsilon) -> Instance:
    """Two unit tasks on resources with delays 1/2 and 1 + epsilon.

    For epsilon > 0 the only equilibrium stacks both tasks on the fast
    resource at cost 2 while the optimum splits them at cost 1.5 + epsilon;
    at epsilon = 0 two equilibria coexist with costs 2 and 3/2, meeting the
    4/3 equilibrium-gap bound for identical weights exactly.
    """
    epsilon = _as_fraction(epsilon)
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    return Instance(
        weights=(Fraction(1), Fraction(1)),
        delays=(Fraction(1, 2), 1 + epsilon),
    )


def gen_nash_ratio_lb(epsilon):
    """Identical-resource instance whose two equilibria differ by nearly 5/3.

    With block size b = ceil(2/epsilon): six tasks of weight 3b, six of
    weight 6b and 6b+1 unit tasks on six unit-delay resources.  Returns
    (instance, segregated, mixed) where segregated and mixed are reference
    equilibria: segregated keeps each weight class together (cost
    36b^2+138b+1), mixed spreads one task of each heavy class plus about b
    unit tasks onto every resource (cost at least (6b+13)*10b).  The cost
    ratio segregated/mixed is at most (3/5)(1+epsilon).
    """
    epsilon = _as_fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    big = math.ceil(Fraction(2) / epsilon)
    n = 6 * big + 13
    # tasks 1..6 weigh 3M, tasks 7..12 weigh 6M, tasks 13..n weigh 1
    weights = (
        (Fraction(3 * big),) * 6 + (Fraction(6 * big),) * 6 + (Fraction(1),) * (6 * big + 1)
    )
    inst = Instance(weights=weights, delays=(Fraction(1),) * 6)

    segregated = [0] * n
    for i in range(6 * big + 1):  # all unit tasks share resource 1
        segregated[12 + i] = 1
    for i in range(6):  # weight-6M tasks in pairs on resources 2..4
        segregated[6 + i] = 2 + i // 2
    for i in range(6):  # weight-3M tasks in triples on resources 5..6
        segregated[i] = 5 + i // 3

    mixed = [0] * n
    for r in range(1, 6):  # resources 1..5: one 6M, one 3M, M unit tasks
        mixed[6 + (r - 1)] = r
        mixed[r - 1] = r
        for i in range(big):
            mixed[12 + (r - 1) * big + i] = r
    mixed[11] = 6  # resource 6: one 6M, one 3M, M+1 unit tasks
    mixed[5] = 6
    for i in range(5 * big, 6 * big + 1):
        mixed[12 + i] = 6

    return inst, Assignment(tuple(segregated)), Assignment(tuple(mixed))


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64: a fixed 64-bit PRNG (Steele, Lea & Flood's constants).

    Chosen for the random family because its output is defined purely by
    integer arithmetic, so seeded instances are reproducible on every
    platform and Python version.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound); fine for test plumbing."""
        return self.next_u64() % bound

    def draws(self, count: int, bound: int) -> list:
        """The next `count` draws of `below(bound)`, in one loop over locals.
        With bound 1 every draw is 0, so the state only advances."""
        if bound == 1:
            self.state = (self.state + count * _GAMMA) & _MASK64
            return [0] * count
        state, out = self.state, []
        append = out.append
        for _ in range(count):
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            append((z ^ (z >> 31)) % bound)
        self.state = state
        return out


#: Number of evenly spaced rationals a random range is sampled from.
RANDOM_GRID_POINTS = 9


def _scaled_grid(bounds):
    """The RANDOM_GRID_POINTS evenly spaced rationals of the range (lo, hi),
    one point if lo == hi, as ints and a common denominator: with lo = a/b,
    hi = c/d and k = points - 1, point j is (k*a*d + j*(c*b - a*d)) / (k*b*d)."""
    lo, hi = map(_as_fraction, bounds)
    if lo <= 0:
        raise ValueError("ranges must be positive")
    if hi < lo:
        raise ValueError(f"empty range: {format_rational(lo)}:{format_rational(hi)}")
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    if lo == hi:
        return (a,), b
    k = RANDOM_GRID_POINTS - 1
    start, step = k * a * d, c * b - a * d
    return tuple(start + j * step for j in range(RANDOM_GRID_POINTS)), k * b * d


def _draw_scaled(rng: SplitMix64, grid, count: int):
    """`count` grid values drawn by `rng`, as ints and their scale, reduced
    to the LCM of the drawn values' reduced denominators, as an instance's
    kernel is: the gcd of the scale and the drawn ints divides both out."""
    ints, scale = grid
    picks = rng.draws(count, len(ints))
    common = math.gcd(scale, *map(ints.__getitem__, set(picks)))
    values = [k // common for k in ints]
    return tuple(map(values.__getitem__, picks)), scale // common


def gen_random(n: int, m: int, weight_range, delay_range, seed: int) -> Instance:
    """Seeded random instance with weights and delays from rational grids.

    Each range (lo, hi) is replaced by RANDOM_GRID_POINTS evenly spaced
    rational values lo + j*(hi-lo)/(points-1); sampling draws all n weights
    first, then all m delays, one PRNG draw each, so the instance is a pure
    function of (n, m, ranges, seed).  Each grid is computed on ints, and
    the instance is built straight from its kernel: no Fraction is built
    per task or grid point.
    """
    if n < 1 or m < 1:
        raise ValueError("need at least one task and one resource")
    weight_grid = _scaled_grid(weight_range)
    delay_grid = _scaled_grid(delay_range)
    rng = SplitMix64(seed)
    weights = _draw_scaled(rng, weight_grid, n)
    delays = _draw_scaled(rng, delay_grid, m)
    return Instance._from_kernel(_Kernel(*weights, *delays))
