"""Exact model of the selfish resource-assignment game under the sum-of-loads cost.

Each task carries a positive rational weight and picks exactly one resource.
A resource with delay d and total assigned weight S imposes load d*S on every
task that uses it; the social cost is the sum of the loads incurred by the
individual tasks.  Equilibrium checks hinge on exact ties, so nothing is
ever rounded: every value the API takes or returns is a fractions.Fraction.

Inside, each instance is scaled to ints once (`Instance._kernel`): weights
and delays each multiplied by the LCM of their denominators, which keeps
every comparison and tie.  The evaluators here, the greedy builders, the
dynamic programs and the oracle all compute on those ints and build a
Fraction only for the values they return.
"""

import decimal
import functools
import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

#: Exact rational number: p/q in lowest terms, q > 0.  All weights, delays,
#: loads, costs and ratios in this package are Rationals.
Rational = Fraction


def parse_rational(value) -> Fraction:
    """Parse a number from an instance file.

    Accepted forms: a JSON integer, a "p/q" string, or a decimal string
    (decimals convert exactly: "0.5" -> 1/2).  Non-integer JSON floats are
    rejected because their binary representation is inexact.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value.is_integer():
            return Fraction(int(value))
        raise ValueError(
            f"non-integer JSON number {value!r} is inexact; quote it as a string"
        )
    if isinstance(value, str):
        text = value.strip()
        try:
            try:
                return Fraction(text)
            except ValueError:
                if not _PLAIN_RATIONAL.fullmatch(text):
                    raise
                return _wide_rational(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational number: {value!r}") from exc
    raise ValueError(f"not a rational number: {value!r}")


#: "p/q", integer and decimal strings without digit separators; Fraction
#: refuses these only when an integer in them exceeds Python's int-to-string
#: digit limit (4300 digits by default).
_PLAIN_RATIONAL = re.compile(r"[-+]?(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _wide_rational(text: str) -> Fraction:
    """Fraction(text) for a plain rational string beyond the digit limit:
    decimal reads each side exactly and is not subject to the limit."""
    numerator, _, denominator = text.partition("/")
    value = Fraction(decimal.Decimal(numerator))
    return value / int(decimal.Decimal(denominator)) if denominator else value


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


def _json_number(x: Fraction):
    """Canonical instance-file encoding: plain int when integral, else "p/q".

    json writes ints through str(), which refuses more than 4300 digits by
    default; an integer above 14000 bits (4215 digits) is written as a "p/1"
    string instead.
    """
    if x.denominator == 1 and x.numerator.bit_length() <= 14000:
        return x.numerator
    return format_rational(x)


def _scaled(values):
    """Ints proportional to the positive rationals `values`, and the LCM of
    their denominators they were multiplied by.  Scaling by a positive
    constant keeps every comparison and tie."""
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


def _as_fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


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


@dataclass(frozen=True)
class Instance:
    """A problem instance: task weights plus resource delays.

    Delays are sorted non-decreasing on construction, so resource 1 is always
    a fastest resource.  Task order is preserved (assignments are indexed by
    task).  Immutable; safe to share between threads.
    """

    weights: tuple
    delays: tuple

    def __post_init__(self):
        weights = tuple(map(_as_fraction, self.weights))
        delays = tuple(sorted(map(_as_fraction, self.delays)))
        if not weights:
            raise ValueError("an instance needs at least one task")
        if not delays:
            raise ValueError("an instance needs at least one resource")
        if any(w.numerator <= 0 for w in weights):
            raise ValueError("task weights must be positive")
        if any(d.numerator <= 0 for d in delays):
            raise ValueError("resource delays must be positive")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "delays", delays)

    @functools.cached_property
    def _kernel(self) -> _Kernel:
        """The instance scaled to ints, computed on first use (threads that
        race compute equal values).  Not a field: equality, hashing and repr
        see weights and delays only."""
        return _Kernel(*_scaled(self.weights), *_scaled(self.delays))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        return len(self.delays)

    @property
    def total_weight(self) -> Fraction:
        kernel = self._kernel
        return Fraction(sum(kernel.weights), kernel.weight_scale)

    @property
    def throughput(self) -> Fraction:
        """Sum of reciprocal delays; the fractional optimum loads every
        resource to n/throughput."""
        return sum((Fraction(1, 1) / d for d in self.delays), Fraction(0))

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
        return self.delays[-1] / self.delays[0]

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
        return self.delays[0] == self.delays[-1]

    @property
    def distinct_weight_values(self) -> tuple:
        return tuple(sorted(set(self.weights)))

    @property
    def distinct_delay_values(self) -> tuple:
        return tuple(sorted(set(self.delays)))


@dataclass(frozen=True)
class Assignment:
    """A pure-strategy profile: entry i is the 1-based resource task i uses."""

    target: tuple

    def __post_init__(self):
        target = tuple(self.target)
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


def _as_counts(inst: Instance, a: CountAssignment) -> tuple:
    if len(a.counts) != inst.m:
        raise ValueError(f"count vector has {len(a.counts)} entries, instance has {inst.m} resources")
    if a.total != inst.n:
        raise ValueError(f"count vector places {a.total} tasks, instance has {inst.n}")
    if not inst.identical_weights:
        raise ValueError("count vectors only describe assignments of identical-weight tasks")
    return a.counts


def _weight_on_resources(inst: Instance, a: Assignment):
    """Per-resource task counts and weight sums on the instance's ints,
    validating the assignment."""
    target, m = a.target, inst.m
    if len(target) != inst.n:
        raise ValueError(f"assignment has {len(target)} entries, instance has {inst.n} tasks")
    if max(target) > m:
        i = next(i for i, resource in enumerate(target) if resource > m)
        raise ValueError(f"task {i + 1} uses resource {target[i]}, instance has {m}")
    counts = [0] * m
    sums = [0] * m
    for w, resource in zip(inst._kernel.weights, target):
        counts[resource - 1] += 1
        sums[resource - 1] += w
    return counts, sums


def _loads_on_resources(inst: Instance, a: AnyAssignment) -> list:
    """Per-resource loads d_r * S_r on the instance's ints, in one pass."""
    kernel = inst._kernel
    if isinstance(a, CountAssignment):
        w = kernel.weights[0]
        return [d * c * w for d, c in zip(kernel.delays, _as_counts(inst, a))]
    _, sums = _weight_on_resources(inst, a)
    return list(map(operator.mul, kernel.delays, sums))


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
    if isinstance(a, CountAssignment):
        counts = _as_counts(inst, a)
        unit = sum(map(operator.mul, map(operator.mul, counts, counts), kernel.delays))
        return kernel.rational(kernel.weights[0] * unit)
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
    if isinstance(a, CountAssignment):
        return _counts_are_nash(_as_counts(inst, a), kernel.delays)
    _, sums = _weight_on_resources(inst, a)
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
    """Canonical JSON-ready document for an instance."""
    doc = {
        "weights": [_json_number(w) for w in inst.weights],
        "delays": [_json_number(d) for d in inst.delays],
    }
    if reference_assignments:
        doc["reference_assignments"] = {
            name: list(a.target) for name, a in reference_assignments.items()
        }
    return doc


def instance_from_jsonable(obj):
    """Parse an instance document; returns (Instance, reference assignments)."""
    if not isinstance(obj, dict):
        raise ValueError("instance document must be a JSON object")
    for key in ("weights", "delays"):
        if key not in obj or not isinstance(obj[key], list):
            raise ValueError(f'instance document needs a "{key}" array')
    inst = Instance(
        weights=tuple(parse_rational(w) for w in obj["weights"]),
        delays=tuple(parse_rational(d) for d in obj["delays"]),
    )
    references = {}
    for name, target in (obj.get("reference_assignments") or {}).items():
        if not isinstance(target, list):
            raise ValueError(f"reference assignment {name!r} must be an array")
        references[name] = Assignment(tuple(target))
    return inst, references


def dumps_instance(inst: Instance, reference_assignments=None) -> str:
    return json.dumps(instance_to_jsonable(inst, reference_assignments), indent=2) + "\n"


def loads_instance(text: str):
    return instance_from_jsonable(json.loads(text))
