"""Correctness checks on CLI reports, computed without the program's code.

Every check here uses only the benchmark's own copy of each instance (exact
`Fraction` weights and delays) and the report the CLI printed.  Costs are
recomputed in O(n + m) from the reported assignment, and equilibria are
checked by the lightest-task test: all tasks on a resource share its load,
so only the lightest task on each resource can gain by moving, which makes
the test O(n + m^2).
"""

import hashlib
import json
import os
from fractions import Fraction


def _loads(inst, target):
    """Per-resource task counts and weight sums of an assignment."""
    if len(target) != inst.n:
        raise ValueError(f"assignment lists {len(target)} tasks, instance has {inst.n}")
    counts = [0] * inst.m
    sums = [Fraction(0)] * inst.m
    for w, r in zip(inst.weights, target):
        if not (isinstance(r, int) and 1 <= r <= inst.m):
            raise ValueError(f"resource index {r!r} outside 1..{inst.m}")
        counts[r - 1] += 1
        sums[r - 1] += w
    return counts, sums


def own_cost(inst, target):
    counts, sums = _loads(inst, target)
    return sum((c * d * s for c, d, s in zip(counts, inst.delays, sums)), Fraction(0))


def own_is_nash(inst, target):
    _, sums = _loads(inst, target)
    lightest = [None] * inst.m
    for w, r in zip(inst.weights, target):
        if lightest[r - 1] is None or w < lightest[r - 1]:
            lightest[r - 1] = w
    for r, w in enumerate(lightest):
        if w is None:
            continue
        own = inst.delays[r] * sums[r]
        for other in range(inst.m):
            if other != r and inst.delays[other] * (sums[other] + w) < own:
                return False
    return True


def _exact(value):
    return Fraction(value["exact"])


def report_digest(report):
    """SHA-256 of a report without its timing, with file arguments reduced to
    their base names so the digest does not depend on where inputs live."""
    stable = dict(report)
    stable.pop("elapsed_ms", None)
    stable["arguments"] = {
        key: os.path.basename(value) if key in ("instance", "assignment") else value
        for key, value in report.get("arguments", {}).items()
    }
    text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Checks one pass of reports in plan order.  A `ratio` report is seen
    before the `solve` report of the same instance, so the exhaustive
    optimum is known when the solver's answer is checked."""

    def __init__(self):
        self.min_cost = {}  # instance path -> enumerated optimum
        self.moves = 0  # improving moves listed by `verify` reports

    def check(self, op, report):
        """Problems found in the report of a successful run (empty if none)."""
        check = getattr(self, "_" + op.command)
        try:
            return check(op, op.inst, report["result"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return [f"malformed report: {type(exc).__name__}: {exc}"]

    def _cost_matches(self, inst, result):
        if _exact(result["cost"]) != own_cost(inst, result["assignment"]):
            return ["reported cost differs from the cost of the reported assignment"]
        return []

    def _solve(self, op, inst, result):
        problems = self._cost_matches(inst, result)
        value = _exact(result["cost"])
        if op.route and result["algorithm"] != op.route:
            problems.append(f"routed to {result['algorithm']}, expected {op.route}")
        if inst.unit_weights:
            throughput = sum((1 / d for d in inst.delays), Fraction(0))
            if value < inst.n * inst.n / throughput:
                problems.append("cost below the fractional lower bound n^2/throughput")
        optimum = self.min_cost.get(inst.path)
        if optimum is not None:
            if not result["approximate"] and value != optimum:
                problems.append(f"exact solve cost {value} != enumerated optimum {optimum}")
            if result["approximate"]:
                factor = _exact(result["approximation_factor"])
                if not optimum <= value <= factor * optimum:
                    problems.append("approximate cost outside [optimum, (1+epsilon) optimum]")
        return problems

    def _nash(self, op, inst, result):
        problems = self._cost_matches(inst, result)
        if not (result["is_nash"] and own_is_nash(inst, result["assignment"])):
            problems.append("nash output is not an equilibrium")
        return problems

    def _verify(self, op, inst, result):
        problems = []
        if _exact(result["cost"]) != own_cost(inst, op.assignment):
            problems.append("reported cost differs from the cost of the given assignment")
        _, sums = _loads(inst, op.assignment)
        loads = [d * s for d, s in zip(inst.delays, sums)]
        if [_exact(x) for x in result["resource_loads"]] != loads:
            problems.append("resource loads differ from the benchmark's own")
        nash = own_is_nash(inst, op.assignment)
        moves = result["improving_moves"]
        self.moves += len(moves)
        if result["is_nash"] != nash or nash != (not moves):
            problems.append("is_nash disagrees with the lightest-task check or the move list")
        return problems

    def _ratio(self, op, inst, result):
        problems = []
        costs = {key: _exact(result[key + "_cost"]) for key in ("min", "min_nash", "max_nash")}
        witnesses = result["witnesses"]
        for key, witness in (("min", "min_cost"), ("min_nash", "min_nash"), ("max_nash", "max_nash")):
            if own_cost(inst, witnesses[witness]) != costs[key]:
                problems.append(f"{witness} witness does not re-cost to the reported value")
        for witness in ("min_nash", "max_nash"):
            if not own_is_nash(inst, witnesses[witness]):
                problems.append(f"{witness} witness is not an equilibrium")
        if not costs["min"] <= costs["min_nash"] <= costs["max_nash"]:
            problems.append("extreme costs out of order")
        if not all(bound["satisfied"] for bound in result["bounds"]):
            problems.append("an equilibrium bound is violated")
        self.min_cost[inst.path] = costs["min"]
        return problems
