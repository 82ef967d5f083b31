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

Inside, an instance is its ints (`Instance._kernel`): weights and delays
each multiplied by the LCM of their reduced denominators, which keeps every
comparison and tie.  Instance files are read straight into those ints, and
the Fraction tuples `weights` and `delays` are built only when something
reads them.  The evaluators here, the greedy builders, the dynamic programs
and the oracle all compute on the ints and build a Fraction only for the
values they return.  Instance files are written from the kernel too, one
encoding per distinct value.  `dumps_json` writes every JSON document the
package emits, byte-identical to `json.dumps(value, indent=2)`.
"""

import decimal
import functools
import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import NamedTuple, Union

#: Exact rational number: p/q in lowest terms, q > 0.  All weights, delays,
#: loads, costs and ratios in this package are Rationals.
Rational = Fraction


def parse_rational(value) -> Fraction:
    """Read one number exactly: an int (not a bool), a Fraction, an integral
    float, or a string of the number grammar (see the module docstring).  A
    non-integral float is refused as inexact, anything else as not a number."""
    return Fraction(*_reduced(value))


#: The number grammar; groups: sign, numerator, denominator, integer digits,
#: fraction digits, exponent.
_NUMBER = re.compile(
    r"\s*([-+]?)(?:([0-9]+)/([0-9]+)|(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?)\s*"
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
        raise ValueError(f"non-integer JSON number {value!r} is inexact; quote it as a string")
    match = _NUMBER.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ValueError(f"not a rational number: {value!r}")
    sign, numerator, denominator, whole, fraction, exponent = match.groups()
    if numerator is not None:
        p, q = _int(numerator), _int(denominator)
        if not q:
            raise ValueError(f"not a rational number: {value!r}")
    else:
        fraction = fraction or ""
        p, e = _int(whole + fraction), (_int(exponent) if exponent else 0) - len(fraction)
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
    and tie.  An array of ints and strings is read one distinct value at a
    time, in order of first appearance, so errors come in scan order."""
    if set(map(type, values)) <= {int, str}:
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


def _as_fraction(x) -> Fraction:
    """x as a Fraction; a string is read by the number grammar."""
    if type(x) is Fraction:
        return x
    return parse_rational(x) if isinstance(x, str) else Fraction(x)


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


@dataclass(frozen=True, init=False, repr=False)
class Instance:
    """A problem instance: task weights plus resource delays.

    Delays are sorted non-decreasing on construction, so resource 1 is always
    a fastest resource.  Task order is preserved (assignments are indexed by
    task).  Immutable; safe to share between threads.

    The instance is its kernel (`_kernel`): the weights and the delays each
    scaled to ints by the LCM of their reduced denominators.  That scaling
    is canonical, so equality and hashing compare kernels.  The `weights`
    and `delays` Fraction tuples are built on first use (threads that race
    build equal values); instance files are read straight into a kernel.
    """

    _kernel: _Kernel

    def __init__(self, weights, delays):
        weights = tuple(map(_as_fraction, weights))
        delays = tuple(sorted(map(_as_fraction, delays)))
        self._set_kernel(_Kernel(*_scaled(weights), *_scaled(delays)))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "delays", delays)

    @classmethod
    def _from_kernel(cls, kernel: _Kernel) -> "Instance":
        """The instance with this kernel; its delays may be in any order."""
        inst = cls.__new__(cls)
        inst._set_kernel(kernel._replace(delays=tuple(sorted(kernel.delays))))
        return inst

    def _set_kernel(self, kernel: _Kernel):
        """Set the kernel once it passes the one check of every instance."""
        if not kernel.weights:
            raise ValueError("an instance needs at least one task")
        if not kernel.delays:
            raise ValueError("an instance needs at least one resource")
        if min(kernel.weights) <= 0:
            raise ValueError("task weights must be positive")
        if kernel.delays[0] <= 0:
            raise ValueError("resource delays must be positive")
        object.__setattr__(self, "_kernel", kernel)

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

    @property
    def total_weight(self) -> Fraction:
        kernel = self._kernel
        return Fraction(sum(kernel.weights), kernel.weight_scale)

    @property
    def throughput(self) -> Fraction:
        """Sum of reciprocal delays; the fractional optimum loads every
        resource to n/throughput."""
        kernel = self._kernel
        common = math.lcm(*kernel.delays)
        return Fraction(kernel.delay_scale * sum(map(common.__floordiv__, kernel.delays)), common)

    @property
    def average_load(self) -> Fraction:
        """Total weight divided by the number of resources (the per-resource
        load every assignment averages to when delays are all 1)."""
        return self.total_weight / self.m

    @property
    def weight_spread(self) -> Fraction:
        """Ratio of the largest task weight to the smallest."""
        weights = self._kernel.weights
        return Fraction(max(weights), min(weights))

    @property
    def delay_spread(self) -> Fraction:
        """Ratio of the largest resource delay to the smallest."""
        delays = self._kernel.delays
        return Fraction(delays[-1], delays[0])

    @property
    def identical_weights(self) -> bool:
        weights = self._kernel.weights
        return weights.count(weights[0]) == len(weights)

    @property
    def unit_weights(self) -> bool:
        # identical weights w = p/q scale to p with weight_scale q
        return self.identical_weights and self._kernel.weights[0] == self._kernel.weight_scale

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


@dataclass(frozen=True)
class Assignment:
    """A pure-strategy profile: entry i is the 1-based resource task i uses."""

    target: tuple

    def __post_init__(self):
        target = tuple(self.target)
        # the loop runs only to find the bad entry or accept int subclasses
        if not (set(map(type, target)) <= {int} and min(target, default=1) >= 1):
            for entry in target:
                if not isinstance(entry, int) or isinstance(entry, bool) or entry < 1:
                    raise ValueError(f"resource indices are 1-based ints, got {entry!r}")
        object.__setattr__(self, "target", target)

    def __len__(self) -> int:
        return len(self.target)


@dataclass(frozen=True)
class CountAssignment:
    """Per-resource task counts; a sufficient description of an assignment
    when all task weights are identical."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(self.counts)
        if not counts:
            raise ValueError("a count vector needs at least one resource")
        if not (set(map(type, counts)) <= {int} and min(counts) >= 0):  # as in Assignment
            for c in counts:
                if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                    raise ValueError(f"task counts are non-negative ints, got {c!r}")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_assignment(self) -> Assignment:
        """Materialize: tasks in index order fill resources in index order."""
        target = []
        for resource, c in enumerate(self.counts, start=1):
            target.extend([resource] * c)
        return Assignment(tuple(target))


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
    vector c of identical weight w puts c_r * w on resource r."""
    m, weights = inst.m, inst._kernel.weights
    if isinstance(a, CountAssignment):
        counts = a.counts
        if len(counts) != m:
            raise ValueError(f"count vector has {len(counts)} entries, instance has {m} resources")
        if a.total != inst.n:
            raise ValueError(f"count vector places {a.total} tasks, instance has {inst.n}")
        if not inst.identical_weights:
            raise ValueError("count vectors only describe assignments of identical-weight tasks")
        return counts, list(map(weights[0].__mul__, counts))
    target = a.target
    _check_fits(inst, target)
    counts = [0] * m
    sums = [0] * m
    for w, resource in zip(weights, target):
        counts[resource - 1] += 1
        sums[resource - 1] += w
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


def task_load(inst: Instance, a: Assignment, task: int) -> Fraction:
    """Load incurred by the 1-based `task`: the load of the resource it uses."""
    if not 1 <= task <= inst.n:
        raise IndexError(f"task index {task} out of range 1..{inst.n}")
    loads = _loads_on_resources(inst, a)
    return inst._kernel.rational(loads[a.target[task - 1] - 1])


def cost(inst: Instance, a: AnyAssignment) -> Fraction:
    """Social cost: the sum over tasks of the load each task incurs.

    For a count vector with common task weight w this is w * sum(c_l^2 * d_l).
    """
    kernel = inst._kernel
    counts, sums = _weight_on_resources(inst, a)
    return kernel.rational(sum(map(operator.mul, map(operator.mul, counts, kernel.delays), sums)))


def _improving_moves_of(delays, sums, resource: int, w: int, own: int):
    """The deviation scan: every move of a weight-`w` task off the 0-based
    `resource` that would incur a load below `own`, as (new load, 0-based
    target) in target order, given the per-resource weight sums.  Its
    minimum is the best move: lowest load, lowest target index on ties."""
    for other, d in enumerate(delays):
        if other != resource:
            load = d * (sums[other] + w)
            if load < own:
                yield load, other


def _counts_are_nash(counts, delays) -> bool:
    """The equilibrium test of a count vector of identical-weight tasks:
    c_i * d_i <= (c_j + 1) * d_j for all resource pairs i, j.  Works on
    Fractions and on scaled ints alike."""
    loads = list(map(operator.mul, counts, delays))
    return max(loads) <= min(map(operator.add, loads, delays))


def _lightest_tasks_stay(delays, sums, lightest) -> bool:
    """The lightest-task equilibrium check, given per-resource weight sums
    and lightest weights (a false value for an empty resource): one
    deviation scan per occupied resource, slowest first, stopping at the
    first improving move.  Works on Fractions and on scaled ints alike."""
    for resource in range(len(delays) - 1, -1, -1):
        w = lightest[resource]
        if w:
            own = delays[resource] * sums[resource]
            if next(_improving_moves_of(delays, sums, resource, w, own), None):
                return False
    return True


def is_nash(inst: Instance, a: AnyAssignment) -> bool:
    """True iff no task can strictly lower its own load by moving alone.

    A move to a resource where the task would incur an equal load does not
    break equilibrium.  All tasks on a resource incur its load d_r * S_r,
    while a move to r' costs d_r' * (S_r' + w), which grows with the task's
    weight w; so only the lightest task on each resource can be tempted, and
    one deviation scan per occupied resource decides, stopping at the first
    improving move: O(n + m^2).  Slow resources, the likeliest to lose a
    task, are scanned first.  For count vectors this reduces to
    c_i * d_i <= (c_j + 1) * d_j for all resource pairs i, j.
    """
    kernel = inst._kernel
    counts, sums = _weight_on_resources(inst, a)
    if isinstance(a, CountAssignment):
        return _counts_are_nash(counts, kernel.delays)
    lightest = [0] * inst.m  # 0: no task there
    for w, resource in zip(kernel.weights, a.target):
        if not lightest[resource - 1] or w < lightest[resource - 1]:
            lightest[resource - 1] = w
    return _lightest_tasks_stay(kernel.delays, sums, lightest)


def improving_moves(inst: Instance, a: Assignment):
    """One best improving move per deviating task: (task, resource, new load).

    Empty iff the assignment is a Nash equilibrium.  The witness move is the
    one minimizing the task's new load, lowest resource index on ties.  It
    depends only on the task's resource and weight, so the deviation scan
    runs once per distinct (resource, weight) pair, lightest first; as in
    `is_nash`, once a weight on a resource has no improving move, no heavier
    task there has one.  O(n + p*m) for p scanned pairs.
    """
    kernel = inst._kernel
    delays = kernel.delays
    _, sums = _weight_on_resources(inst, a)
    tasks_by_weight = [{} for _ in range(inst.m)]
    for task, (w, resource) in enumerate(zip(kernel.weights, a.target), start=1):
        tasks_by_weight[resource - 1].setdefault(w, []).append(task)
    moves = []
    for resource, groups in enumerate(tasks_by_weight):
        own = delays[resource] * sums[resource]
        for w in sorted(groups):
            best = min(_improving_moves_of(delays, sums, resource, w, own), default=None)
            if best is None:
                break
            load, other = best
            load = kernel.rational(load)
            moves.extend((task, other + 1, load) for task in groups[w])
    moves.sort()
    return moves


@dataclass(frozen=True)
class RatioReport:
    """Extreme costs over all assignments and over the Nash subset.

    Ratios: coordination_ratio = worst Nash / optimum, nash_gap = worst Nash /
    best Nash, opt_gap = best Nash / optimum.  Each extreme value comes with a
    witness assignment that re-evaluates to it.
    """

    min_cost: Fraction
    min_nash_cost: Fraction
    max_nash_cost: Fraction
    coordination_ratio: Fraction
    nash_gap: Fraction
    opt_gap: Fraction
    min_cost_witness: Assignment
    min_nash_witness: Assignment
    max_nash_witness: Assignment

    def __post_init__(self):
        if not self.min_cost <= self.min_nash_cost <= self.max_nash_cost:
            raise ValueError("extreme costs violate min <= min Nash <= max Nash")
        if self.coordination_ratio != self.max_nash_cost / self.min_cost:
            raise ValueError("coordination_ratio inconsistent with extreme costs")
        if self.nash_gap != self.max_nash_cost / self.min_nash_cost:
            raise ValueError("nash_gap inconsistent with extreme costs")
        if self.opt_gap != self.min_nash_cost / self.min_cost:
            raise ValueError("opt_gap inconsistent with extreme costs")


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
    inst = Instance._from_kernel(
        _Kernel(*_scaled(obj["weights"]), *_scaled(obj["delays"]))
    )
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
    """`json.dumps(value, indent=2)`, byte for byte, for a document of
    str-keyed dicts, lists and scalars, without json's pure-Python indenting
    encoder: str, int and finite float scalars go to the functions json
    itself calls, a list of ints and strs is joined in one piece, and the
    other scalars (bools, None, nan, infinities) and empty containers are
    written by json.dumps."""
    chunks = []
    _write_json(value, "\n", chunks.append)
    return "".join(chunks)


def _write_json(value, newline: str, write):
    """Write `value` at the depth whose line breaks are `newline`."""
    kind = type(value)
    if kind is str:
        write(_encode_str(value))
    elif kind is int:
        write(int.__repr__(value))
    elif kind is float and math.isfinite(value):
        write(float.__repr__(value))
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds <= {int, str}:  # joined in one piece
            if kinds == {int}:
                pieces = map(int.__repr__, value)
            else:
                pieces = [_encode_str(v) if type(v) is str else int.__repr__(v) for v in value]
            write("[" + inner + ("," + inner).join(pieces) + newline + "]")
        else:
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
    else:  # one line: the other scalars and empty containers
        write(json.dumps(value))


def dumps_instance(inst: Instance, reference_assignments=None) -> str:
    return dumps_json(instance_to_jsonable(inst, reference_assignments)) + "\n"


def loads_instance(text: str):
    return instance_from_jsonable(json.loads(text))
