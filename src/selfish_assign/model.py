"""Exact model of the selfish resource-assignment game under the sum-of-loads cost.

Each task carries a positive rational weight and picks exactly one resource.
A resource with delay d and total assigned weight S imposes load d*S on every
task that uses it; the social cost is the sum of the loads incurred by the
individual tasks.  Equilibrium checks hinge on exact ties, so nothing is
ever rounded: every value the API takes or returns is a fractions.Fraction.

Every number is read by one reader (`_reduced`) to one grammar, the same
on every Python version: optional whitespace and sign, then "D/D" or a
decimal "D", "D.", ".D" or "D.D" with an optional exponent "[eE][-+]?D",
then optional whitespace, where D is a run of ASCII digits 0-9 of any length.
The numerator and the denominator may each have at most MAX_NUMBER_DIGITS
digits once the exponent is applied; the reader counts them from the text
before it builds either and raises NumberTooLongError (a ValueError) above.

Inside, an instance is its ints (`Instance._kernel`): weights and delays
each multiplied by the LCM of their reduced denominators, which keeps every
comparison and tie.  The constructor and instance files read numbers
straight into those ints; an array of ints alone is its own kernel, with
scale 1.  Construction also scans the kernel weights once for their least,
greatest and total (one `count` when they are all equal), which every
weight check and quantity then reads in O(1); `total_weight` is a plain
property, with no first-access lock.  The Fraction tuples `weights` and
`delays` are built only when something reads them.  Instance texts are
read by one module-level JSON decoder.  `dumps_json` writes every JSON
document the package emits, byte-identical to `json.dumps(value,
indent=2)`, a list of records column by column.  An assignment in a
document is written as the array of its target, and one that expands a
count vector (a `CountAssignment`, or its `to_assignment()`) from its
counts alone.

A task of weight w that moves to resource r pays d_r * (S_r + w), a line
in w.  `improving_moves` builds the lower envelope of those m lines once
(`_envelope`, O(m) on the sorted delays) and looks each distinct task
weight up on it once (`_best_move`, O(log m)).  `is_nash` reads the same
envelope, once for the lightest task of each occupied resource; a count
vector keeps its closed form, which is cheaper.  Every evaluator reads an
assignment's per-resource counts and weight sums (`_weight_on_resources`),
walked once per instance and kept on the assignment.
"""

import bisect
import decimal
import functools
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import NamedTuple, Union


def parse_rational(value) -> Fraction:
    """Read one number exactly: an int (not a bool), a Fraction, an integral
    float, or a string of the number grammar (see the module docstring).  A
    non-integral float is refused as inexact, an infinite one (a JSON number
    beyond float range) as such, anything else as not a number."""
    return Fraction(*_reduced(value))


#: The number grammar; groups: sign, numerator, denominator, integer digits,
#: fraction digits, exponent.
_NUMBER = re.compile(
    r"\s*([-+]?)(?:([0-9]+)/([0-9]+)|(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?)\s*"
)


#: The most digits a number read from text may have in its numerator or its
#: denominator.  They are counted from the text before either int is built
#: (the exponent applied, the fraction not yet reduced), since a few bytes
#: such as "1e99999999999" would otherwise ask for an int of about 40 GB.
#: Every command runs in well under a second on a small instance of such numbers.
MAX_NUMBER_DIGITS = 20_000


class NumberTooLongError(ValueError):
    """A number whose numerator or denominator would have more than
    MAX_NUMBER_DIGITS digits; raised before any of it is built."""

    def __init__(self, text: str, digits: int):
        self.digits = digits
        shown = text if len(text) <= 40 else text[:37] + "..."
        count = digits if digits < 10**30 else "over 10**30"
        super().__init__(
            f"number {shown!r} needs {count} digits, at most {MAX_NUMBER_DIGITS} are allowed"
        )


def _int(digits: str) -> int:
    """int(digits), through decimal beyond Python's int-to-string digit limit."""
    try:
        return int(digits)
    except ValueError:
        return int(decimal.Decimal(digits))


def _reduced(value):
    """(p, q) in lowest terms with q > 0: the one reader of numbers, behind
    parse_rational, instance files and the Instance constructor.  JSON ints
    and "p/q" strings of ASCII digits are read inline."""
    if type(value) is int:
        return value, 1
    if type(value) is str:
        numerator, _, denominator = value.partition("/")
        if numerator.isdigit() and denominator.isdigit() and value.isascii():
            try:
                p, q = int(numerator), int(denominator)
            except ValueError:  # beyond the digit limit
                p = q = 0
            if q:
                g = math.gcd(p, q)
                return p // g, q // g
    if isinstance(value, Fraction) or isinstance(value, int) and not isinstance(value, bool):
        return value.numerator, value.denominator
    if isinstance(value, float):
        if value.is_integer():
            return int(value), 1
        if math.isinf(value):
            raise ValueError("JSON number beyond float range; quote it as a string")
        raise ValueError(f"non-integer JSON number {value!r} is inexact; quote it as a string")
    match = _NUMBER.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ValueError(f"not a rational number: {value!r}")
    sign, numerator, denominator, whole, fraction, exponent = match.groups()
    if numerator is not None:
        digits = max(len(numerator.lstrip("0")), len(denominator.lstrip("0")))
        if digits > MAX_NUMBER_DIGITS:
            raise NumberTooLongError(value, digits)
        p, q = _int(numerator), _int(denominator)
        if not q:
            raise ValueError(f"not a rational number: {value!r}")
    else:
        # the value is mantissa * 10**e, the mantissa without zeros at either end
        fraction = fraction or ""
        significant = (whole + fraction).lstrip("0")
        mantissa = significant.rstrip("0")
        if not mantissa:
            return 0, 1
        e = (_int(exponent) if exponent else 0) - len(fraction) + len(significant) - len(mantissa)
        digits = len(mantissa) + e if e >= 0 else max(len(mantissa), 1 - e)
        if digits > MAX_NUMBER_DIGITS:
            raise NumberTooLongError(value, digits)
        p = _int(mantissa)
        p, q = (p * 10**e, 1) if e >= 0 else (p, 10**-e)
    g = math.gcd(p, q)
    return (-p if sign == "-" else p) // g, q // g


def _digits(k: int) -> str:
    """Exact decimal digits of an int.  decimal renders them also beyond
    Python's int-to-string digit limit (4300 digits by default)."""
    try:
        return str(k)
    except ValueError:
        return format(decimal.Decimal(k), "f")


def format_rational(x: Fraction) -> str:
    """Render a rational as "p/q", always with an explicit denominator."""
    return f"{_digits(x.numerator)}/{_digits(x.denominator)}"


def _json_number(p: int, q: int):
    """Canonical instance-file encoding of p/q in lowest terms: plain int
    when q is 1, else "p/q".

    json writes ints through str(), which refuses more than 4300 digits by
    default; an integer above 14000 bits (4215 digits) is written as a "p/1"
    string instead.
    """
    if q == 1 and p.bit_length() <= 14000:
        return p
    return f"{_digits(p)}/{_digits(q)}"


def _json_numbers(ints, scale: int) -> list:
    """The `_json_number` of each ints[i] / scale, one per distinct int."""
    encoded = {}
    for k in set(ints):
        g = math.gcd(k, scale)
        encoded[k] = _json_number(k // g, scale // g)
    return list(map(encoded.__getitem__, ints))


def _scaled(values):
    """Ints proportional to the positive rationals `values`, and the LCM of
    their denominators they were multiplied by, which keeps every comparison
    and tie.  An array of ints (exactly int: a bool is refused below) is its
    own kernel, with scale 1.  An array of ints and strings is read one
    distinct value at a time, in order of first appearance, so errors come
    in scan order."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        return tuple(values), 1
    if kinds <= {int, str}:
        reduced = {v: _reduced(v) for v in dict.fromkeys(values)}
        scale = math.lcm(*(q for _, q in reduced.values()))
        scaled = {v: p * (scale // q) for v, (p, q) in reduced.items()}
        return tuple(map(scaled.__getitem__, values)), scale
    # 1, 1.0, true and Fraction(1) are equal keys: read such arrays entry by entry
    reduced = list(map(_reduced, values))
    scale = math.lcm(*(q for _, q in reduced))
    return tuple(p * (scale // q) for p, q in reduced), scale


def _rationals(ints, scale) -> tuple:
    """The Fractions ints[i] / scale, one Fraction per distinct int."""
    values = {k: Fraction(k, scale) for k in set(ints)}
    return tuple(map(values.__getitem__, ints))


def _canonical(ints, scale: int):
    """The kernel form of the rationals ints[i] / scale: the ints and the
    scale divided by their gcd, which leaves the scale the LCM of the
    reduced denominators."""
    distinct = set(ints)
    common = math.gcd(scale, *distinct)
    if common == 1:
        return tuple(ints), scale
    reduced = {k: k // common for k in distinct}
    return tuple(map(reduced.__getitem__, ints)), scale // common


def _lowest_terms(p: int, q: int) -> tuple:
    """The positive ratio p/q in lowest terms, reduced by one gcd."""
    g = math.gcd(p, q)
    return p // g, q // g


def _reciprocal_sum(delays):
    """The sum of 1 / d over the positive ints `delays` as (P, L), P / L:
    L is the LCM of the distinct delays and P the sum of L // d."""
    common = math.lcm(*set(delays))
    return sum(map(common.__floordiv__, delays)), common


class _Kernel(NamedTuple):
    """An instance on ints: weights times `weight_scale` and delays times
    `delay_scale`, each scale the LCM of the denominators.  A load or cost
    computed on these ints is the true one times weight_scale * delay_scale."""

    weights: tuple
    weight_scale: int
    delays: tuple
    delay_scale: int

    def rational(self, value: int) -> Fraction:
        """The true value of a load or cost computed on the ints."""
        return Fraction(value, self.weight_scale * self.delay_scale)


def _array(values, name: str) -> tuple:
    """`values` as a tuple.  A str, bytes or mapping (anything with `keys`,
    as `dict` tells one), which would be read as its characters, byte values
    or keys, is refused by name, as an instance file refuses a "weights" or
    "delays" that is not an array."""
    if isinstance(values, (str, bytes, bytearray)) or hasattr(values, "keys"):
        raise ValueError(f"{name} must be an array of numbers, got {type(values).__name__}")
    return tuple(values)


class _WeightSummary(NamedTuple):
    """The least, greatest and total kernel weight of an instance."""

    least: int
    greatest: int
    total: int


def _summarize_weights(weights: tuple) -> _WeightSummary:
    """The summary of the non-empty int `weights`: one `count` scan when
    they are all equal, else `min`, `max` and `sum`.  A last weight unlike
    the first skips the `count` scan."""
    first = weights[0]
    if weights[-1] == first and weights.count(first) == len(weights):
        return _WeightSummary(first, first, first * len(weights))
    return _WeightSummary(min(weights), max(weights), sum(weights))


@dataclass(frozen=True, init=False, repr=False)
class Instance:
    """A problem instance: task weights plus resource delays.

    Delays are sorted non-decreasing on construction, so resource 1 is always
    a fastest resource.  Task order is preserved (assignments are indexed by
    task).  Immutable; safe to share between threads.

    The instance is its kernel (`_kernel`): the weights and the delays each
    scaled to ints by the LCM of their reduced denominators.  That scaling
    is canonical, so equality and hashing compare kernels.  The constructor
    reads each number as an instance file does (`parse_rational`'s reader),
    straight into the kernel, and refuses a str, bytes or mapping passed as
    an array.  Construction also scans the kernel weights once for their
    least, greatest and total (`_weight_summary`), so the positivity check,
    `identical_weights`, `unit_weights`, `total_weight`, `weight_spread`
    and `average_load` take O(1); `total_weight` is a plain property, with
    no first-access lock.  Those quantities and `throughput` are each built
    from one int pair in lowest terms (`_total_weight_pair` and its
    siblings), which the report's digest renders too.  The `weights` and `delays` Fraction tuples
    are built on first use (threads that race build equal values).
    """

    _kernel: _Kernel

    def __init__(self, weights, delays):
        self._set_kernel(_Kernel(*_scaled(_array(weights, "weights")),
                                 *_scaled(_array(delays, "delays"))))

    @classmethod
    def _from_kernel(cls, kernel: _Kernel) -> "Instance":
        """The instance with this canonical kernel; its delays may be in any order."""
        inst = cls.__new__(cls)
        inst._set_kernel(kernel)
        return inst

    def _set_kernel(self, kernel: _Kernel):
        """Sort the delays, summarize the weights and set both once they pass
        the one check of every instance."""
        kernel = kernel._replace(delays=tuple(sorted(kernel.delays)))
        if not kernel.weights:
            raise ValueError("an instance needs at least one task")
        if not kernel.delays:
            raise ValueError("an instance needs at least one resource")
        summary = _summarize_weights(kernel.weights)
        if summary.least <= 0:
            raise ValueError("task weights must be positive")
        if kernel.delays[0] <= 0:
            raise ValueError("resource delays must be positive")
        object.__setattr__(self, "_kernel", kernel)
        object.__setattr__(self, "_weight_summary", summary)

    @functools.cached_property
    def weights(self) -> tuple:
        return _rationals(self._kernel.weights, self._kernel.weight_scale)

    @functools.cached_property
    def delays(self) -> tuple:
        return _rationals(self._kernel.delays, self._kernel.delay_scale)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(weights={self.weights!r}, delays={self.delays!r})"

    @property
    def n(self) -> int:
        return len(self._kernel.weights)

    @property
    def m(self) -> int:
        return len(self._kernel.delays)

    # Each pair (p, q) below is p/q in lowest terms: the one source of the
    # property of the same name and of the report's digest.

    @property
    def _total_weight_pair(self) -> tuple:
        return _lowest_terms(self._weight_summary.total, self._kernel.weight_scale)

    @property
    def _throughput_pair(self) -> tuple:
        kernel = self._kernel
        reciprocals, common = _reciprocal_sum(kernel.delays)
        return _lowest_terms(kernel.delay_scale * reciprocals, common)

    @property
    def _average_load_pair(self) -> tuple:
        return _lowest_terms(self._weight_summary.total, self._kernel.weight_scale * self.m)

    @property
    def _weight_spread_pair(self) -> tuple:
        return _lowest_terms(self._weight_summary.greatest, self._weight_summary.least)

    @property
    def total_weight(self) -> Fraction:
        return Fraction(*self._total_weight_pair)

    @property
    def throughput(self) -> Fraction:
        """Sum of reciprocal delays; the fractional optimum loads every
        resource to n/throughput."""
        return Fraction(*self._throughput_pair)

    @property
    def average_load(self) -> Fraction:
        """Total weight divided by the number of resources (the per-resource
        load every assignment averages to when delays are all 1)."""
        return Fraction(*self._average_load_pair)

    @property
    def weight_spread(self) -> Fraction:
        """Ratio of the largest task weight to the smallest."""
        return Fraction(*self._weight_spread_pair)

    @property
    def delay_spread(self) -> Fraction:
        """Ratio of the largest resource delay to the smallest."""
        delays = self._kernel.delays
        return Fraction(delays[-1], delays[0])

    @property
    def identical_weights(self) -> bool:
        return self._weight_summary.least == self._weight_summary.greatest

    @property
    def unit_weights(self) -> bool:
        # identical weights w = p/q scale to p with weight_scale q
        least, greatest, _ = self._weight_summary
        return least == greatest == self._kernel.weight_scale

    @property
    def identical_delays(self) -> bool:
        delays = self._kernel.delays
        return delays[0] == delays[-1]

    @property
    def distinct_weight_values(self) -> tuple:
        return _rationals(sorted(set(self._kernel.weights)), self._kernel.weight_scale)

    @property
    def distinct_delay_values(self) -> tuple:
        return _rationals(sorted(set(self._kernel.delays)), self._kernel.delay_scale)


def _checked_indices(values, least: int, message: str) -> tuple:
    """`values` as a tuple, each entry an int (not a bool) of at least
    `least`; else a ValueError of `message` and the first bad entry."""
    values = tuple(values)
    # the loop runs only to find the bad entry or accept int subclasses
    if not (set(map(type, values)) <= {int} and min(values, default=least) >= least):
        for entry in values:
            if not isinstance(entry, int) or isinstance(entry, bool) or entry < least:
                raise ValueError(f"{message}, got {entry!r}")
    return values


@dataclass(frozen=True)
class Assignment:
    """A pure-strategy profile: entry i is the 1-based resource task i uses.

    The constructor checks every entry (`_checked_indices`); the package's
    own builders, whose entries are ints they made, use `_built` instead.
    An evaluator checks that the entries fit its instance (`_check_fits`).

    Immutable, with one cache: the evaluators walk its tasks once per
    instance, and it keeps the per-resource counts and weight sums of the
    last instance it was evaluated on (`_walked`, see
    `_weight_on_resources`).  The target cannot change, so threads that
    race build equal values, as `Instance` says of its Fraction tuples.
    """

    target: tuple

    #: (kernel, counts, sums) of the last walk of the tasks; None before one
    _walked = None
    #: the count vector the target expands (`CountAssignment.to_assignment`),
    #: from which `dumps_json` writes the target; None for any other target
    _counts = None

    def __post_init__(self):
        object.__setattr__(
            self, "target", _checked_indices(self.target, 1, "resource indices are 1-based ints")
        )

    @classmethod
    def _built(cls, target: tuple) -> "Assignment":
        """The assignment of `target` without the constructor's check, for
        the package's own builders alone (`to_assignment`, `greedy_nash`, the
        exact DPs, the oracle's witnesses).  It trusts that `target` is a
        tuple of exact ints of at least 1, which the constructor would keep
        unchanged; input from outside the package takes the constructor."""
        a = cls.__new__(cls)
        object.__setattr__(a, "target", target)
        return a


@dataclass(frozen=True)
class CountAssignment:
    """Per-resource task counts; a sufficient description of an assignment
    when all task weights are identical."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(self.counts)
        if not counts:
            raise ValueError("a count vector needs at least one resource")
        object.__setattr__(
            self, "counts", _checked_indices(counts, 0, "task counts are non-negative ints")
        )

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_assignment(self) -> Assignment:
        """Materialize: tasks in index order fill resources in index order.
        The assignment keeps the vector (`_counts`), from which a report
        writes its target."""
        counts = self.counts
        runs = map(itertools.repeat, range(1, len(counts) + 1), counts)
        a = Assignment._built(tuple(itertools.chain.from_iterable(runs)))
        object.__setattr__(a, "_counts", counts)
        return a


AnyAssignment = Union[Assignment, CountAssignment]


def _check_fits(inst: Instance, target: tuple):
    """Raise unless the 1-based `target` names one resource of the instance
    per task."""
    if len(target) != inst.n:
        raise ValueError(f"assignment has {len(target)} entries, instance has {inst.n} tasks")
    if max(target) > inst.m:
        i = next(i for i, resource in enumerate(target) if resource > inst.m)
        raise ValueError(f"task {i + 1} uses resource {target[i]}, instance has {inst.m}")


def _weight_on_resources(inst: Instance, a: AnyAssignment):
    """Per-resource task counts and weight sums on the instance's ints,
    validating the assignment.  The one reader of count vectors: a count
    vector c of identical weight w puts c_r * w on resource r, in O(m) and
    with no cache.  An assignment's tasks are walked once per instance: the
    walk keeps (kernel, counts, sums) on the assignment, and a later call
    with the same kernel object returns those; a call with another kernel
    walks again and keeps its own.  Callers only read the lists."""
    kernel = inst._kernel
    m, weights = inst.m, kernel.weights
    if isinstance(a, CountAssignment):
        counts = a.counts
        if len(counts) != m:
            raise ValueError(f"count vector has {len(counts)} entries, instance has {m} resources")
        if a.total != inst.n:
            raise ValueError(f"count vector places {a.total} tasks, instance has {inst.n}")
        if not inst.identical_weights:
            raise ValueError("count vectors only describe assignments of identical-weight tasks")
        return counts, list(map(weights[0].__mul__, counts))
    walked = a._walked
    if walked is not None and walked[0] is kernel:
        return walked[1], walked[2]
    target = a.target
    _check_fits(inst, target)
    counts = [0] * m
    sums = [0] * m
    for w, resource in zip(weights, target):
        counts[resource - 1] += 1
        sums[resource - 1] += w
    object.__setattr__(a, "_walked", (kernel, counts, sums))
    return counts, sums


def _loads_on_resources(inst: Instance, a: AnyAssignment) -> list:
    """Per-resource loads d_r * S_r on the instance's ints, in one pass."""
    _, sums = _weight_on_resources(inst, a)
    return list(map(operator.mul, inst._kernel.delays, sums))


def resource_load(inst: Instance, a: AnyAssignment, resource: int) -> Fraction:
    """Load of the 1-based `resource`: its delay times the weight assigned to it."""
    if not 1 <= resource <= inst.m:
        raise IndexError(f"resource index {resource} out of range 1..{inst.m}")
    return inst._kernel.rational(_loads_on_resources(inst, a)[resource - 1])


def resource_loads(inst: Instance, a: AnyAssignment) -> list:
    """Loads of all resources in index order, in one pass over the tasks."""
    return list(map(inst._kernel.rational, _loads_on_resources(inst, a)))


def task_load(inst: Instance, a: AnyAssignment, task: int) -> Fraction:
    """Load incurred by the 1-based `task`: the load of the resource it uses.
    A count vector is read as its materialized assignment."""
    if not 1 <= task <= inst.n:
        raise IndexError(f"task index {task} out of range 1..{inst.n}")
    loads = _loads_on_resources(inst, a)
    return inst._kernel.rational(loads[_target(a)[task - 1] - 1])


def _target(a: AnyAssignment) -> tuple:
    """The 1-based resource of each task; a count vector, validated before,
    fills resources in index order as `CountAssignment.to_assignment` does."""
    return a.to_assignment().target if isinstance(a, CountAssignment) else a.target


def cost(inst: Instance, a: AnyAssignment) -> Fraction:
    """Social cost: the sum over tasks of the load each task incurs.

    For a count vector with common task weight w this is w * sum(c_l^2 * d_l).
    """
    kernel = inst._kernel
    counts, sums = _weight_on_resources(inst, a)
    return kernel.rational(sum(map(operator.mul, map(operator.mul, counts, kernel.delays), sums)))


def _envelope(delays, sums):
    """The lower envelope of the move lines d_r * (S_r + w), as
    (breaks, lines): `lines` holds (slope d_r, intercept d_r * S_r, 0-based
    r) from the steepest to the flattest line, and `breaks[i]` is the least
    int weight at which line i + 1 is at most line i.  Built in O(m) with
    one stack (the monotone chain, in its dual form) from the sorted delays,
    slowest resource first.  Of equal delays the smallest intercept stays,
    the lowest index on a tie; a line is popped while its intercept is at
    least the new line's, or while the new line meets the one below it no
    later than it does, which leaves every line the flattest minimum on an
    interval of w > 0.  Meeting points are compared as cross-multiplied ints."""
    hull = []
    for resource in range(len(delays) - 1, -1, -1):
        slope = delays[resource]
        intercept = slope * sums[resource]
        if hull and hull[-1][0] == slope:
            # equal delays: the smaller intercept stays, the lower index on a tie
            if intercept <= hull[-1][1]:
                hull.pop()
            else:
                continue
        # pop the top while the new line is at most it at w = 0, or meets the
        # line below it no later than the top does
        while hull and (
            hull[-1][1] >= intercept
            or len(hull) > 1
            and (intercept - hull[-2][1]) * (hull[-2][0] - hull[-1][0])
            <= (hull[-1][1] - hull[-2][1]) * (hull[-2][0] - slope)
        ):
            hull.pop()
        hull.append((slope, intercept, resource))
    # w * (s_i - s_i+1) >= b_i+1 - b_i holds for an int w iff w is at least
    # the ceiling of that quotient
    breaks = [-((b - b_next) // (s - s_next))
              for (s, b, _), (s_next, b_next, _) in zip(hull, hull[1:])]
    return breaks, hull


def _best_move(hull, w: int):
    """The best move of a weight-`w` task over all m resources, as (load,
    0-based target): the lowest load, the lowest index on a tie.  A bisection
    on the envelope's breaks moves past line i while
    w * (s_i - s_i+1) >= b_i+1 - b_i, so a tie goes to the flatter line,
    which has the lower index: O(log m)."""
    breaks, lines = hull
    slope, intercept, resource = lines[bisect.bisect_right(breaks, w)]
    return slope * w + intercept, resource


def _counts_are_nash(counts, delays) -> bool:
    """The equilibrium test of a count vector of identical-weight tasks:
    c_i * d_i <= (c_j + 1) * d_j for all resource pairs i, j."""
    loads = list(map(operator.mul, counts, delays))
    return max(loads) <= min(map(operator.add, loads, delays))


def is_nash(inst: Instance, a: AnyAssignment) -> bool:
    """True iff no task can strictly lower its own load by moving alone.

    A move to a resource where the task would incur an equal load does not
    break equilibrium.  All tasks on a resource incur its load d_r * S_r,
    while a move to r' costs d_r' * (S_r' + w), which grows with the task's
    weight w; so only the lightest task on each resource can be tempted.
    Its best move over all m resources (`_best_move` on one `_envelope`) is
    below its own load iff it has an improving one, as its own resource
    would cost it more: O(n + m log m).  A count vector keeps the cheaper
    closed form c_i * d_i <= (c_j + 1) * d_j for all resource pairs i, j.
    """
    kernel = inst._kernel
    delays = kernel.delays
    counts, sums = _weight_on_resources(inst, a)
    if isinstance(a, CountAssignment):
        return _counts_are_nash(counts, delays)
    lightest = [0] * inst.m  # 0: no task there
    for w, resource in zip(kernel.weights, a.target):
        if not lightest[resource - 1] or w < lightest[resource - 1]:
            lightest[resource - 1] = w
    hull = _envelope(delays, sums)
    for w, d, s in zip(lightest, delays, sums):
        if w and _best_move(hull, w)[0] < d * s:
            return False
    return True


def improving_moves(inst: Instance, a: AnyAssignment):
    """One best improving move per deviating task: (task, resource, new load).

    Empty iff the assignment is a Nash equilibrium.  The witness move is the
    one minimizing the task's new load, lowest resource index on ties.  It
    depends only on the task's weight: the task's own resource always costs
    it more than its own load, so whenever a move beats that load, the
    lowest-load, lowest-index resource over all m does too.  So one lower
    envelope of the m move lines (`_envelope`) is built per call, each
    distinct weight is looked up on it once (`_best_move`), the first time a
    task needs it, and a task moves iff its weight's best load is below its
    own load: O(n + m + k log m) for k distinct weights, in task order.
    Moves to equal loads share one Fraction, so a caller can render each
    load once.  A count vector is evaluated as its materialized assignment.
    """
    kernel = inst._kernel
    delays = kernel.delays
    _, sums = _weight_on_resources(inst, a)
    hull = _envelope(delays, sums)
    owns = list(map(operator.mul, delays, sums))
    moves = []
    best = {}  # weight -> (load, 0-based target), once looked up
    rationals = {}  # one Fraction per distinct new load
    for task, (w, resource) in enumerate(zip(kernel.weights, _target(a)), start=1):
        move = best.get(w)
        if move is None:
            move = best[w] = _best_move(hull, w)
        load, other = move
        if load < owns[resource - 1]:
            rational = rationals.get(load)
            if rational is None:
                rational = rationals[load] = kernel.rational(load)
            moves.append((task, other + 1, rational))
    return moves


@dataclass(frozen=True)
class RatioReport:
    """Extreme costs over all assignments and over the Nash subset.

    Ratios, derived from the costs: coordination_ratio = worst Nash /
    optimum, nash_gap = worst Nash / best Nash, opt_gap = best Nash /
    optimum.  Each extreme value comes with a witness assignment that
    re-evaluates to it.
    """

    min_cost: Fraction
    min_nash_cost: Fraction
    max_nash_cost: Fraction
    min_cost_witness: Assignment
    min_nash_witness: Assignment
    max_nash_witness: Assignment
    coordination_ratio: Fraction = field(init=False)
    nash_gap: Fraction = field(init=False)
    opt_gap: Fraction = field(init=False)

    def __post_init__(self):
        if not self.min_cost <= self.min_nash_cost <= self.max_nash_cost:
            raise ValueError("extreme costs violate min <= min Nash <= max Nash")
        object.__setattr__(self, "coordination_ratio", self.max_nash_cost / self.min_cost)
        object.__setattr__(self, "nash_gap", self.max_nash_cost / self.min_nash_cost)
        object.__setattr__(self, "opt_gap", self.min_nash_cost / self.min_cost)


# ---------------------------------------------------------------------------
# Instance files.  Schema: {"weights": [rat, ...], "delays": [rat, ...]}
# where rat is an integer, a decimal string, or a "p/q" string.  Generators
# may add a "reference_assignments" object of named 1-based index arrays.
# ---------------------------------------------------------------------------

def instance_to_jsonable(inst: Instance, reference_assignments=None) -> dict:
    """Canonical JSON-ready document for an instance, written from its
    kernel one distinct value at a time."""
    kernel = inst._kernel
    doc = {
        "weights": _json_numbers(kernel.weights, kernel.weight_scale),
        "delays": _json_numbers(kernel.delays, kernel.delay_scale),
    }
    if reference_assignments:
        doc["reference_assignments"] = {
            name: list(a.target) for name, a in reference_assignments.items()
        }
    return doc


def instance_from_jsonable(obj):
    """Parse an instance document; returns (Instance, reference assignments).
    The numbers are read straight into the instance's kernel."""
    if not isinstance(obj, dict):
        raise ValueError("instance document must be a JSON object")
    for key in ("weights", "delays"):
        if key not in obj or not isinstance(obj[key], list):
            raise ValueError(f'instance document needs a "{key}" array')
    inst = Instance(obj["weights"], obj["delays"])
    named = obj.get("reference_assignments", {})
    if not isinstance(named, dict):
        raise ValueError('"reference_assignments" must be a JSON object')
    references = {}
    for name, target in named.items():
        if not isinstance(target, list):
            raise ValueError(f"reference assignment {name!r} must be an array")
        try:
            references[name] = Assignment(tuple(target))
            _check_fits(inst, references[name].target)
        except ValueError as exc:
            raise ValueError(f"reference assignment {name!r}: {exc}") from None
    return inst, references


def dumps_json(value) -> str:
    """`json.dumps(value, indent=2, default=lambda a: list(_target(a)))`,
    byte for byte, for a document of str-keyed dicts, lists, scalars and
    assignments, without json's pure-Python indenting encoder.  Scalars of
    the exact types str, int, float, bool and None have one encoder
    (`_SCALAR_TEXT`), built on the functions json itself calls; a list of
    ints, at most half of them distinct, takes one text per value
    (`_scalar_texts`, which says why bools and floats do not).  An
    `Assignment` or `CountAssignment` is written as the array of its
    target: from its count vector, where it has one (a `CountAssignment`,
    or the `_counts` that `to_assignment` keeps), one repeated text per
    resource and never entry by entry; else as its target tuple.
    A non-empty list is written in one piece when its items are all such
    scalars, or at least `_TEMPLATE_MIN_ROWS` records of one shape:
    non-empty plain dicts with the same keys in the same order, each value
    such a scalar or such a record.  Such a list is written column by
    column, and a nested record that rows share (one object) is written
    once.  A shorter list of records, or one with a row of another shape,
    is walked item by item, as is every dict; scalar subclasses and empty
    containers are written by json.dumps."""
    chunks = []
    _write_json(value, "\n", chunks.append)
    return "".join(chunks)


def _float_text(x: float) -> str:
    """A float as json writes it: its repr, or NaN, Infinity, -Infinity."""
    if x - x == 0:  # finite
        return repr(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


#: The JSON text of a scalar, by exact type; json.dumps writes the same.
_SCALAR_TEXT = {
    str: _encode_str,
    int: repr,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


#: Fewest records a list must have to be written column by column: the
#: columns cost more than walking a shorter list item by item.
_TEMPLATE_MIN_ROWS = 5


def _scalar_texts(items, kinds):
    """The JSON text of each of `items`, scalars of the exact types `kinds`.
    Ints whose values repeat, at most half of them distinct (an assignment
    on m resources), take one `repr` per distinct value and one dict lookup
    per item.  Equal values of other types can have other texts (1 == True
    == 1.0, 0.0 == -0.0), so bool, float and mixed lists are not merged."""
    if len(kinds) == 1:
        kind = next(iter(kinds))
        if kind is int:
            distinct = set(items)
            if 2 * len(distinct) <= len(items):
                return map(dict(zip(distinct, map(repr, distinct))).__getitem__, items)
        return map(_SCALAR_TEXT[kind], items)
    return [_SCALAR_TEXT[type(item)](item) for item in items]


def _record_texts(rows, newline: str):
    """The JSON text of each of `rows`, plain dicts, written column by column
    at the depth whose line breaks are `newline`; None unless the rows are
    records of one shape: non-empty, with the same keys in the same order,
    and each column all scalars or all such records.  A record column is
    written once per distinct object in it (the rows keep every id alive),
    by a recursive call on those objects, and the rows fill one `%`
    template."""
    shapes = set(map(tuple, rows))
    keys = shapes.pop()
    if shapes or not keys:
        return None
    inner = newline + "  "
    columns = []
    for column in zip(*map(dict.values, rows)):
        kinds = set(map(type, column))
        if kinds <= _SCALAR_TEXT.keys():
            columns.append(_scalar_texts(column, kinds))
            continue
        distinct = {id(value): value for value in column}
        texts = _record_texts(list(distinct.values()), inner) if kinds == {dict} else None
        if texts is None:
            return None
        columns.append(map(dict(zip(distinct, texts)).__getitem__, map(id, column)))
    template = "{" + inner + ("," + inner).join(
        _encode_str(key).replace("%", "%%") + ": %s" for key in keys
    ) + newline + "}"
    return list(map(template.__mod__, zip(*columns)))


def _one_piece(items, newline: str):
    """The text of the non-empty list `items` in one piece: all scalars, or
    at least `_TEMPLATE_MIN_ROWS` records of one shape; None for any other
    list."""
    inner = newline + "  "
    kinds = set(map(type, items))
    if kinds <= _SCALAR_TEXT.keys():
        pieces = _scalar_texts(items, kinds)
    elif kinds != {dict} or len(items) < _TEMPLATE_MIN_ROWS:
        return None
    else:
        pieces = _record_texts(items, inner)
        if pieces is None:
            return None
    return "[" + inner + ("," + inner).join(pieces) + newline + "]"


def _write_json(value, newline: str, write):
    """Write `value` at the depth whose line breaks are `newline`."""
    encode = _SCALAR_TEXT.get(type(value))
    if encode is not None:
        write(encode(value))
    elif isinstance(value, (list, tuple)) and value:
        text = _one_piece(value, newline)
        if text is not None:
            write(text)
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            write(separator)
            _write_json(item, inner, write)
            separator = "," + inner
        write(newline + "]")
    elif isinstance(value, dict) and value:
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            write(separator + _encode_str(key) + ": ")
            _write_json(item, inner, write)
            separator = "," + inner
        write(newline + "}")
    elif isinstance(value, (Assignment, CountAssignment)):
        counts = value._counts if isinstance(value, Assignment) else value.counts
        if counts is None:
            _write_json(value.target, newline, write)
        elif any(counts):
            inner = newline + "  "
            separator = "," + inner
            runs = "".join((repr(r) + separator) * c for r, c in enumerate(counts, 1))
            write("[" + inner + runs[: -len(separator)] + newline + "]")
        else:  # no task
            write("[]")
    else:  # one line: scalar subclasses and empty containers
        write(json.dumps(value))


def dumps_instance(inst: Instance, reference_assignments=None) -> str:
    return dumps_json(instance_to_jsonable(inst, reference_assignments)) + "\n"


def _refuse_constant(name: str):
    raise ValueError(f"JSON constant {name} is not a rational number")


#: The one decoder of instance texts, built once.
_INSTANCE_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def loads_instance(text: str):
    """Read an instance file: a bare NaN, Infinity or -Infinity, which json
    would read as a float, is refused by name.  A str is read by one
    module-level decoder; bytes, and a str that starts with a byte order
    mark (which the decoder alone would not name), go through json.loads,
    which decodes the one and refuses the other with its own message."""
    if isinstance(text, str) and not text.startswith("\ufeff"):
        document = _INSTANCE_DECODER.decode(text)
    else:
        document = json.loads(text, parse_constant=_refuse_constant)
    return instance_from_jsonable(document)
