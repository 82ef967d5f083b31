"""Constructive algorithms for the assignment game.

Exact solvers: two O(n + m log m) greedy builders for identical-weight tasks
(one for the optimum, one for the cheapest Nash equilibrium), seeded in closed
form from the fractional optimum, an O(n log m' + classes * m') greedy
equilibrium builder for arbitrary weights, and dynamic programs for few
distinct delays (identical delays being its one-class case) and for few
distinct weights.  Every optimum and every Nash state leaves empty the
resources slower than d_(n), the n-th smallest delay, so the equilibrium
builder and both programs run on the first m' resources alone, those of
delay at most d_(n) (`_usable`; m' = m when n >= m), and so does the
oracle's walk.  Both programs keep table values only and rebuild their
choices on the reconstruction path alone.  The delay program solves each
(count vector, class) row in O(n log n) by divide and conquer: a run's cost
obeys the quadrangle inequality, so the best start of the last run never
decreases with the number of tasks.  The weights program gives each
resource a run of the weight order, which bounds the takes it tries.
Approximate solvers round weights (or delays) up onto a geometric grid and
run the matching DP; the result, re-costed under the original instance, is
within 1+epsilon of optimal.

Everything is exact.  Inputs and results are Fractions; inside, every
algorithm here runs on the instance's ints (`Instance._kernel`): weights
and delays each multiplied by the LCM of their denominators, the cost
divided back out at the end.
"""

import bisect
import heapq
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .model import (Assignment, CountAssignment, Instance, _canonical, _reciprocal_sum, cost,
                    parse_rational)

#: `solve --algorithm auto` routes to a DP when the delays (or the weights)
#: take at most this many distinct values; the DPs themselves accept any
#: number and are bounded by MAX_DP_STEPS.
DEFAULT_DISTINCT_VALUES = 4

#: Hard cap on the steps an exact DP is predicted to take, checked before
#: any table exists; each prediction is an upper bound, and at least the
#: number of entries its tables hold.  On a 2-core x86_64 VM (Python 3.11)
#: the DPs ran at 70-120 ns per predicted step, so the cap is 7-12 s.
MAX_DP_STEPS = 10**8

#: Hard cap on the bits of a power that geometric rounding builds: (1 +
#: epsilon)**j while it looks for k, then k-th powers of the values.  Their
#: bits are predicted before any is built.  It is the rounding's one guard,
#: and it bounds k too, as each of these powers has more than k bits.  On a
#: 2-core x86_64 VM (Python 3.11), rounding two values at the cap took about
#: 0.05 s; 50 distinct values there took about 0.8 s.
MAX_GRID_POWER_BITS = 2**18

@dataclass(frozen=True)
class DPSolution:
    """An optimal (or approximate) assignment with its exact cost."""

    cost: Fraction
    assignment: Assignment


@dataclass(frozen=True)
class RoundedInstance:
    """An instance whose weights (or delays) were rounded up onto a geometric
    grid of at most k+1 values, each within a factor 1+epsilon of the
    original."""

    original: Instance
    rounded: Instance
    k: int
    epsilon: Fraction


def _counts_below_threshold(delays, n: int, slope: int) -> list:
    """For each resource k, how many of its marginals (slope * c + 1) * d_k
    lie strictly below T = (slope * (n - m) + m) / throughput: ceil(x_k)
    with x_k = (T / d_k - 1) / slope, or 0 if x_k <= 0.  The x_k sum to
    n - m, so the counts add up to at least n - m and less than n.

    On the instance's scaled-int delays D_k, with L their LCM and
    P = sum(L / D_k), x_k = (top - D_k * P) / (slope * D_k * P) for
    top = (slope * (n - m) + m) * L: O(m) int operations, no Fraction."""
    reciprocals, common = _reciprocal_sum(delays)  # P, L
    top = (slope * (n - len(delays)) + len(delays)) * common
    return [max(0, -((d * reciprocals - top) // (slope * d * reciprocals))) for d in delays]


def _marginal_counts(delays, n: int, slope: int, key) -> list:
    """Place n identical tasks one at a time on the scaled-int `delays`,
    each on a resource whose next marginal (slope * c_k + 1) * d_k is
    lowest, ties broken by key(marginal, c_k, k); the heap holds one entry
    per resource.

    Each resource's marginals grow with c_k, so the placements are the n
    smallest marginals in heap order, and the marginals below a threshold
    are a prefix of that order.  `_counts_below_threshold` counts a prefix
    of at least n - m placements in closed form; the heap places the rest,
    at most m tasks.
    """
    counts = _counts_below_threshold(delays, n, slope)
    heap = [key((slope * c + 1) * d, c, k) for k, (c, d) in enumerate(zip(counts, delays))]
    heapq.heapify(heap)
    for _ in range(n - sum(counts)):
        k = heap[0][-1]
        counts[k] += 1
        heapq.heapreplace(heap, key((slope * counts[k] + 1) * delays[k], counts[k], k))
    return counts


def _lowest_index(marginal, c, k):
    """`find_opt`'s tie-break: equal marginals go to the lowest index."""
    return marginal, k


def _fewest_tasks(marginal, c, k):
    """`find_opt_nash`'s tie-break: equal marginals go to the resource with
    the fewest tasks, then the lowest index."""
    return marginal, c, k


def _marginal_greedy(inst: Instance, slope: int, key) -> CountAssignment:
    """`_marginal_counts` on an identical-weight instance's scaled-int delays."""
    if not inst.identical_weights:
        raise ValueError("this algorithm needs all task weights to be identical")
    return CountAssignment(tuple(_marginal_counts(inst._kernel.delays, inst.n, slope, key)))


def find_opt(inst: Instance) -> CountAssignment:
    """Lowest-cost assignment for identical-weight tasks.

    Places one task at a time on a resource k minimizing (2*c_k + 1) * d_k,
    which is proportional to the cost increase of adding a task to k; ties
    go to the lowest resource index.  The placements below the marginal
    (2n - m)/throughput are counted in closed form, so the heap makes at
    most m steps: O(n + m log m).
    """
    return _marginal_greedy(inst, 2, _lowest_index)


def find_opt_nash(inst: Instance) -> CountAssignment:
    """Cheapest Nash assignment for identical-weight tasks.

    Places one task at a time on a resource k minimizing (c_k + 1) * d_k,
    proportional to the load the new task would incur, which keeps every
    prefix in equilibrium; ties break by fewest tasks, then lowest resource
    index.  The placements below n/throughput are counted in closed form,
    so the heap makes at most m steps: O(n + m log m).
    """
    return _marginal_greedy(inst, 1, _fewest_tasks)


def _usable(delays, n: int) -> int:
    """m', the resources that an optimum or a Nash state of n tasks on the
    sorted `delays` can use: all m when n >= m, else those of delay at most
    d_(n), the n-th smallest, the whole boundary delay class kept.

    At most n resources are used, so while a resource of delay above d_(n)
    is used, one of the first n is empty.  Moving the used resource's group
    there strictly lowers the cost, and each of its tasks strictly gains;
    so every optimum and every Nash state leaves resources m' + 1..m empty.
    A state on the first m' resources is Nash there iff it is Nash on all
    m: while one of the first n is empty every task may move there, at a
    load below any move beyond m', and otherwise each task is alone on a
    resource of delay at most d_(n).  The trim is a prefix, so every
    resource keeps its index.  O(log m)."""
    if n >= len(delays):
        return len(delays)
    return bisect.bisect_right(delays, delays[n - 1])


def greedy_nash(inst: Instance) -> Assignment:
    """A Nash assignment for arbitrary weights.

    Considers tasks in non-increasing weight order (ties by task index) and
    puts each on the resource where it would incur the least load (ties by
    lowest resource index).  Because later tasks are never heavier, no task
    ever gains by moving afterwards, so the result is an equilibrium.  Within
    a weight class a heap keyed by (load the task would incur, resource)
    finds that resource; it is rebuilt when the weight changes.  A task
    never goes beyond the first m' resources (`_usable`): while it is
    placed, one of the first n is empty and cheaper.  So the heap holds
    those alone: O(n log m' + classes * m').  Sums and heap keys are the
    instance's scaled ints.
    """
    delays, weights = inst._kernel.delays, inst._kernel.weights
    sums = [0] * _usable(delays, inst.n)  # zip below stops at the last usable resource
    target = [0] * inst.n
    heap, w = [], None
    # a stable sort keeps equal weights in task order
    for i in sorted(range(inst.n), key=weights.__getitem__, reverse=True):
        if weights[i] != w:
            w = weights[i]
            heap = [(d * (s + w), r) for r, (d, s) in enumerate(zip(delays, sums))]
            heapq.heapify(heap)
        r = heap[0][1]
        sums[r] += w
        heapq.heapreplace(heap, (delays[r] * (sums[r] + w), r))
        target[i] = r + 1
    return Assignment._built(tuple(target))


def _classes(values):
    """Distinct values, increasing, and the indices holding each one.  Given
    the instance's scaled ints, the distinct values are the scaled ints of
    the classes."""
    members = {}
    for i, v in enumerate(values):
        members.setdefault(v, []).append(i)
    values = sorted(members)
    return values, [members[v] for v in values]


def _vector_count(sizes) -> int:
    """V = prod(n_c + 1), the count vectors over classes of n_c members;
    `sizes` maps a class size n_c to the number of classes of that size, so
    the predictors below cost a few operations per distinct size, on ints
    of about as many bits as there are classes."""
    return math.prod(pow(s + 1, c) for s, c in sizes.items())


def _delay_dp_steps(n: int, sizes) -> int:
    """An upper bound on the candidates `_delay_class_dp` scans for n tasks
    on K delay classes of n_c resources (`sizes`, see `_vector_count`), the
    classes of the first m' resources that the program runs on.

    Of the V count vectors, V * n_c / (n_c + 1) have v_c > 0, so the
    (vector, class) rows number the sum of that over the classes.
    `_row_minima` solves each j at one of n.bit_length() + 1 levels; at one
    level the scan ranges [start[j - h], start[j + h]] of consecutive j
    telescope to at most n, plus one candidate per j.  So a row reads at
    most n * (n.bit_length() + 1) + n + 1 <= (n + 1)(n.bit_length() + 2)
    candidates, and the rows of one resource and of the full vector (one
    `_last_run` each) at most n + 1.  The path takes
    at most m' = sum n_c steps, each at most K `_last_run` scans of at most
    n + 1 candidates.  The bound is at least the (n + 1) * V entries of the
    table, as n_c / (n_c + 1) >= 1/2 and the row bound is at least 2(n + 1).
    """
    vectors = _vector_count(sizes)
    rows = sum(c * s * (vectors // (s + 1)) for s, c in sizes.items())
    resources, classes = sum(s * c for s, c in sizes.items()), sum(sizes.values())
    return (n + 1) * (rows * (n.bit_length() + 2) + resources * classes)


def _run_take_count(sizes) -> int:
    """The takes `_run_takes` yields over all count vectors v of classes of
    n_a tasks (`sizes`, see `_vector_count`): the sum over v of
    R(v) = 1 + sum_a v_a + sum_{a<b} v_a v_b.

    Over the V vectors, v_a sums to V * n_a / 2 and v_a v_b (a != b) to
    V * n_a * n_b / 4, so with S = sum n_a and Q = sum n_a^2 the total is
    V + V * S / 2 + V * (S^2 - Q) / 8.  Each part is an int, being a sum of
    V / ((n_a + 1)(n_b + 1)) times products of the ints n_a (n_a + 1) / 2.
    """
    vectors = _vector_count(sizes)
    total = sum(s * c for s, c in sizes.items())
    squares = sum(s * s * c for s, c in sizes.items())
    return vectors + vectors * total // 2 + vectors * (total * total - squares) // 8


def _weight_dp_steps(m: int, cost_rows: int, sizes) -> int:
    """An upper bound on the steps of `dp_few_weights` on m resources (the
    m' that it runs on) with `cost_rows` distinct delays among them and
    weight classes of n_a tasks (`sizes`, see `_vector_count`):
    (m - 1) * sum_v R(v) + (cost_rows + m) * V.

    The forward pass sums each take that `_run_takes` yields once on each
    of the resources 2..m-1, and on resource m only the full vector's
    R(full) <= sum_v R(v) takes: at most (m - 1) * sum_v R(v) sums
    (`_run_take_count`, exact for the takes yielded).  The cost rows hold
    cost_rows * V entries, `group` V more, and the path tries at most
    (m - 1) * V takes, as a vector's run takes are at most V.  The bound is at least the (m + cost_rows) * V
    entries that the table, the cost rows and `group` hold.
    """
    return (m - 1) * _run_take_count(sizes) + (cost_rows + m) * _vector_count(sizes)


def _shown_count(count: int):
    """`count` as a message states it: a count of more than 10**4 bits, near
    the 4300 digits an int prints by default, is shown by a power of ten
    below it (0.301029 < log10(2))."""
    bits = count.bit_length()
    return count if bits <= 10**4 else f"more than 10**{(bits - 1) * 301029 // 10**6}"


def _count_vectors(members, steps: int):
    """Count vectors over the classes `members` as mixed-radix ints, first
    class most significant so that index order is itertools.product order:
    (radix, strides, number of vectors).  Refuses a program predicted to
    take more than MAX_DP_STEPS `steps`, before any table exists."""
    if steps > MAX_DP_STEPS:
        raise ValueError(f"dynamic programming would need {_shown_count(steps)} steps,"
                         f" above the bound {MAX_DP_STEPS}")
    radix = [len(idx) + 1 for idx in members]
    strides = list(itertools.accumulate(reversed(radix[1:]), operator.mul, initial=1))
    return radix, strides[::-1], math.prod(radix)


def _schedule(n: int) -> list:
    """The order in which `_row_minima` solves j = 0..n, coarsest step
    first, as (j, lo, hi) triples.  At step h, a power of two, each j with
    j + 1 an odd multiple of h is listed with lo = j - h, or the sentinel
    slot n + 1 (whose start stays 0) when j < h, and hi = j + h, or None
    when j + h > n; each of j - h and j + h comes earlier in the list.  It
    depends on n alone, so the delay program builds it once per table."""
    order = []
    half = 1 << n.bit_length()
    while half:
        order += [(j, j - half if j >= half else n + 1, j + half if j + half <= n else None)
                  for j in range(half - 1, n + 1, 2 * half)]
        half >>= 1
    return order


def _row_minima(prev, scaled, n: int, into, schedule):
    """value[j] = min over i <= j of prev[i] + (j - i) * (scaled[j] - scaled[i])
    for j = 0..n, in the order of `schedule` = `_schedule(n)`; with `into`
    not None, each into[j] is lowered to value[j] in place and `into` is
    returned.

    The run cost (j - i) * (scaled[j] - scaled[i]) obeys the quadrangle
    inequality for non-decreasing `scaled`, and adding prev[i] keeps it, so
    start[j], the largest minimizing i, never decreases with j.  So each j
    scans only the i between the starts of its schedule slots lo and hi:
    O(n log n) per row.  A j whose hi is None, or whose hi's start is at
    least j, starts at i = j with best = prev[j], the empty run.  Each scan
    runs down from its upper bound and keeps a candidate only if strictly
    smaller, so the first minimum it meets is the largest minimizing i.
    """
    fresh = into is None
    value = [0] * (n + 1) if fresh else into
    start = [0] * (n + 2)  # start[n + 1], the sentinel lo slot, stays 0
    for j, lo, hi in schedule:
        top = scaled[j]
        if hi is None or (i := start[hi]) >= j:
            i = j
            best = prev[j]
        else:
            best = prev[i] + (j - i) * (top - scaled[i])
        bi = i
        ilo = start[lo]
        while i > ilo:
            i -= 1
            candidate = prev[i] + (j - i) * (top - scaled[i])
            if candidate < best:
                best, bi = candidate, i
        if fresh or best < value[j]:
            value[j] = best
        start[j] = bi
    return value


def _last_run(prev, scaled, j: int):
    """The minimum over i <= j of prev[i] + (j - i) * (scaled[j] - scaled[i])
    and the largest i attaining it, in one O(j) scan down from i = j, which
    keeps a candidate only if strictly smaller; prev None is the row of no
    resources, where only i = 0 is possible."""
    top = scaled[j]
    if prev is None:
        return j * top, 0
    best, bi = prev[j], j
    i = j
    while i:
        i -= 1
        candidate = prev[i] + (j - i) * (top - scaled[i])
        if candidate < best:
            best, bi = candidate, i
    return best, bi


def _delay_class_dp(inst: Instance) -> DPSolution:
    """Optimal assignment on the instance's first m' resources (`_usable`),
    the rest left empty; class c is the 0-based resources `members[c]` of
    the c-th smallest of their scaled-int `delays`.

    With tasks sorted by non-increasing weight there is an optimal assignment
    whose resource groups are consecutive runs of that order.  table[v][j] is
    the cheapest placement of the j heaviest tasks on the resources counted
    by vector v: the last run goes on one more resource of some class.

    The table keeps values only and is filled one vector at a time, a whole
    row of n + 1 entries, in index order.  For class c the row is the
    minimum over i <= j of table[prev][i] + d_c * C(i, j), prev being v less
    one resource of class c and C(i, j) = (j - i)(P_j - P_i) the run
    i+1..j, with P the weight prefix sums; the vector keeps one row, and
    each class row is lowered into it as it is computed, so the row ends as
    the entrywise minimum of the class rows.  For i < i' <= j < j',
    C(i, j') + C(i', j) - C(i, j) - C(i', j') =
    (i' - i)(P_j' - P_j) + (j' - j)(P_i' - P_i) >= 0 (the quadrangle
    inequality), so the largest minimizing i, the shortest run, never
    decreases with j, and `_row_minima` solves a row in O(n log n).  Its
    order of j and the neighbours that bound each j's starts depend on n
    alone, so `_schedule(n)` lists them once for every row of the table.
    The tasks are in the stable non-increasing weight order, ties by task
    index.  The full vector is read only at j = n, so each of its class
    rows is one O(n) scan.

    The choices are rebuilt on the path alone, from the full vector at
    j = n back to no resources: the first class whose row attains the entry,
    with the largest i that does (the shortest last run); at j = 0 the
    resources left stay empty, first class first.
    """
    n, delays = inst.n, inst._kernel.delays
    delays, members = _classes(delays[:_usable(delays, n)])
    radix, strides, vectors = _count_vectors(
        members, _delay_dp_steps(n, Counter(map(len, members))))
    weights = inst._kernel.weights
    # a stable sort keeps equal weights in task order
    order = sorted(range(n), key=weights.__getitem__, reverse=True)
    prefix = list(itertools.accumulate(map(weights.__getitem__, order), initial=0))
    # scaled[cls][i] = d * P_i, so a run i+1..j on class cls costs (j - i)(scaled[j] - scaled[i])
    scaled = [[d * p for p in prefix] for d in delays]
    table = [None] * vectors  # table[0], no resources, stays None
    schedule = _schedule(n)
    # count vectors in index order: v reads only rows v - stride < v, all complete
    vecs = itertools.islice(itertools.product(*map(range, radix)), 1, vectors - 1)
    for v, vec in enumerate(vecs, 1):
        row = None  # each class row is lowered into the vector's one row
        for cls, stride in enumerate(strides):
            if vec[cls]:
                if v == stride:  # one resource takes all j
                    row = [j * x for j, x in enumerate(scaled[cls])]
                else:
                    row = _row_minima(table[v - stride], scaled[cls], n, row, schedule)
        table[v] = row
    full = vectors - 1
    best = min(_last_run(table[full - stride], scaled[cls], n)[0]
               for cls, stride in enumerate(strides))

    target = [0] * n
    remaining = [list(idx) for idx in members]
    j, v, value = n, full, best
    while v:
        for cls, (stride, base) in enumerate(zip(strides, radix)):
            if v // stride % base:
                found, i = _last_run(table[v - stride], scaled[cls], j)
                if found == value:
                    break
        else:
            raise AssertionError(f"no class row attains the entry at j = {j}")
        resource = remaining[cls].pop() + 1
        for pos in range(i, j):
            target[order[pos]] = resource
        j, v = i, v - stride
        value = table[v][j] if v else 0
    return DPSolution(inst._kernel.rational(best), Assignment._built(tuple(target)))


def dp_identical_delays(inst: Instance) -> DPSolution:
    """Optimal assignment when all resource delays are equal, any weights.

    The delay-class program with one class: a table over (resources used,
    tasks handled) with the best size of the last run of tasks in weight
    order.  Each of the m rows takes O(n log n), since run costs obey the
    quadrangle inequality: O(m n log n).  The one class is the boundary
    class, so nothing is trimmed.
    """
    if not inst.identical_delays:
        raise ValueError("this dynamic program needs all resource delays to be identical")
    return _delay_class_dp(inst)


def dp_few_delays(inst: Instance) -> DPSolution:
    """Optimal assignment when the delays take few distinct values.

    Extends the identical-delay program: the state counts how many resources
    of each delay class have been used, and each step peels the lightest
    remaining run of tasks onto a resource of some class.  The program runs
    on the first m' resources (`_usable`), whose K' classes are the K
    classes less those of delay above d_(n), each kept whole: with
    V' = prod(n_c + 1) over them, O(V' K' n log n), as each (count vector,
    class) row takes O(n log n) by the quadrangle inequality of run costs.
    A program predicted above MAX_DP_STEPS steps is refused.
    """
    return _delay_class_dp(inst)


def _take_step(takes, heads, count: int, stride: int):
    """One class of the run-take sweep: the takes ending at this class of
    `count` members added to `takes`, and the new heads.  `heads` holds
    what a take that goes on to this class holds below it: 0 for a take
    that starts here, then the takes that began below and took every class
    since whole."""
    parts = range(stride, (count + 1) * stride, stride)  # this class in part or whole
    return (takes + [h + x for h in heads for x in parts],
            [0, *parts, *[h + count * stride for h in heads[1:]]])


def _run_takes(radix, strides):
    """For each count vector v in product order, the take vectors t <= v, as
    mixed-radix ints, whose classes with t_c > 0 form an interval a..b of
    the weight order, the classes strictly inside taken whole and the two
    ends in part or whole: 1 + sum v_a + sum over a < b of v_a * v_b takes.
    Vectors with a common prefix share the takes that end within it.  The
    last class has stride 1: each of its counts adds one take per head, so
    a prefix's vectors are yielded from one loop, with no generator and no
    head list of their own."""
    last = len(radix) - 1

    def extend(c, takes, heads):
        if c < last:
            for count in range(radix[c]):
                yield from extend(c + 1, *_take_step(takes, heads, count, strides[c]))
            return
        yield takes
        for count in range(1, radix[c]):
            takes = takes + [h + count for h in heads]
            yield takes

    return extend(0, [0], [0])


def _vector_run_takes(v: int, radix, strides) -> list:
    """The run takes of the one count vector v (see `_run_takes`), in
    ascending mixed-radix order, which is product order."""
    takes, heads = [0], [0]
    for stride, base in zip(strides, radix):
        takes, heads = _take_step(takes, heads, v // stride % base, stride)
    return sorted(takes)


def dp_few_weights(inst: Instance) -> DPSolution:
    """Optimal assignment when the weights take few distinct values.

    The state is the number of tasks of each weight class already placed on
    the first k resources; each step chooses how many tasks of each class the
    k-th resource receives, the first minimum in itertools.product order.
    The program runs on the first m' resources (`_usable`) alone: an
    optimum leaves the rest empty, and so, taking the empty take first,
    does the path on all m.

    Swapping a heavier task a on resource r with a lighter task b on
    resource s changes the cost by (w_a - w_b)(d_s * c_s - d_r * c_r), so
    every table entry has an optimum in which each resource takes a run of
    the weight order, and the minimum runs over those takes alone
    (`_run_takes`).  The table keeps values only, and the last resource is
    filled only at the full vector, the one entry of it that is read.
    group[t], the tasks of take t times their weight, comes from one
    mixed-radix sweep of counts and weight sums, and costs[k][t] =
    d_k * group[t], the cost of take t on resource k + 1, is computed once
    per distinct delay.  Each vector gathers its rests v - t and its takes
    t with one `operator.itemgetter` each, built once and applied to every
    resource, so an entry is one `min` over the pairwise sums of two
    gathered tuples.  The choices are rebuilt on the path alone: at each of
    the m' - 1 steps, the first take in product order whose value attains
    the entry.  That take is a run take (ROADMAP item 9 gives the swap
    argument), so the path tries v's run takes alone, ascending
    (`_vector_run_takes`).  With V the count vectors and R(v) the run
    takes of v, that is O((m' - 1) * sum_v R(v) + (D' + m') * V) for D'
    distinct delays among the m'; a program predicted above MAX_DP_STEPS
    steps is refused (`_weight_dp_steps`).
    """
    weights, members = _classes(inst._kernel.weights)
    delays = inst._kernel.delays
    m = _usable(delays, inst.n)
    delays = delays[:m]
    radix, strides, vectors = _count_vectors(
        members, _weight_dp_steps(m, len(set(delays)), Counter(map(len, members))))
    # group[t]: tasks in take vector t times their weight, before the delay
    counts, sums = [0], [0]
    for base, w in zip(radix, weights):
        counts = [c + x for c in counts for x in range(base)]
        sums = [s + x * w for s in sums for x in range(base)]
    group = list(map(operator.mul, counts, sums))
    cost_rows = {d: list(map(d.__mul__, group)) for d in set(delays)}
    costs = [cost_rows[d] for d in delays]

    # table[k][v], k < m - 1: cheapest placement of the tasks counted by v on
    # resources 1..k+1; table[0] is costs[0] and is never written.  Entry v
    # reads entries u <= v of the previous resource only, so v can run
    # outermost.
    table = [costs[0]] + [[0] * vectors for _ in range(2, m)]
    steps = list(zip(table, table[1:], costs[1:]))  # (table[k - 1], table[k], costs[k])
    full = vectors - 1
    best = table[0][full]  # one resource takes every task
    add = operator.add
    for v, takes in enumerate(_run_takes(radix, strides) if m > 1 else ()):
        if not v:
            continue  # v = 0 has one take, the empty one, and its entries stay 0
        rest = operator.itemgetter(*map(v.__sub__, takes))
        take = operator.itemgetter(*takes)
        for prev, row, cost_row in steps:
            row[v] = min(map(add, rest(prev), take(cost_row)))
        if v == full:  # the one entry of the last resource that is read
            best = min(map(add, rest(table[-1]), take(costs[-1])))

    v, value, taken = full, best, []
    for k in range(m - 1, 0, -1):
        takes = _vector_run_takes(v, radix, strides)
        values = map(add, map(table[k - 1].__getitem__, map(v.__sub__, takes)),
                     map(costs[k].__getitem__, takes))
        try:
            take = takes[operator.indexOf(values, value)]
        except ValueError:
            raise AssertionError(f"no take attains the entry of resource {k + 1}") from None
        taken.append(take)
        v -= take
        value = table[k - 1][v]
    taken.append(v)  # resource 1 takes the rest

    target = [0] * inst.n
    queues = [iter(idx) for idx in members]
    for k, t in enumerate(reversed(taken), start=1):
        for queue, stride, base in zip(queues, strides, radix):
            for _ in range(t // stride % base):
                target[next(queue)] = k
    return DPSolution(inst._kernel.rational(best), Assignment._built(tuple(target)))


def _int_kth_root(x: int, k: int):
    """Exact integer k-th root of x >= 0, or None if x is not a perfect power.

    Newton's integer steps fall from any start at or above the root to its
    floor.  They start just above it, from a float estimate of its leading
    bits, so they take a few steps: from twice the root, each step would
    shrink it by a factor of only about 1 - 1/k."""
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1) or k == 1:
        return x
    log_root = math.log2(x) / k
    shift = max(0, int(log_root) - 52)
    root = (int(2 ** (log_root - shift) * (1 + 2**-20)) + 1) << shift
    if root**k < x:  # not expected: the estimate is far closer than 2**-20
        root = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        refined = ((k - 1) * root + x // root ** (k - 1)) // k
        if refined >= root:
            break
        root = refined
    return root if root**k == x else None


def _grid_steps(ratio: Fraction, epsilon: Fraction) -> int:
    """The smallest k >= 1 with (1 + epsilon)**k >= ratio, by doubling and
    then bisection; a power of more than MAX_GRID_POWER_BITS bits is
    refused before it is built.  The numerator of 1 + epsilon has at least
    2 bits, so that check ends the doubling before high = 2**18, and a k
    returned is at most 2**17."""
    base = 1 + epsilon
    low, high = 0, 1  # base**low < ratio
    while base**high < ratio:
        low, high = high, 2 * high
        _check_power_bits(high * base.numerator.bit_length())  # base's larger term
    return low + 1 + bisect.bisect_left(
        range(low + 1, high + 1), True, key=lambda k: base**k >= ratio)


def _check_power_bits(bits: int):
    """Refuse a power of more than MAX_GRID_POWER_BITS bits before it is built."""
    if bits > MAX_GRID_POWER_BITS:
        raise ValueError(
            f"geometric rounding needs powers of {bits} bits, above the bound {MAX_GRID_POWER_BITS}"
        )


def _cell_above(vk, t: int, grid: int, k: int, top: int, powers):
    """The first cell u > t whose grid power lo**(k - u) * hi**u is at least
    vk, and that power, given vk above cell t's power `grid` and at most
    `top` = hi**k, cell k's.

    Gallops up by s = 1, 2, 4, ... cells, each jump one exact division by
    lo**s and one product with hi**s (exact while the cell reached is at
    most k, as lo**(k - t) then has the factor lo**s), then bisects back
    down the last jump by halves, so a value m cells on costs O(log m)
    such steps.  `powers` caches (lo**s, hi**s) for s = 2**i, i >= 0.
    """
    lower, below, upper, above = t, grid, k, top  # vk > below, vk <= above
    i = 0
    while lower + (1 << i) < k:
        if i == len(powers):
            a, b = powers[-1]
            powers.append((a * a, b * b))
        a, b = powers[i]
        probe = below // a * b
        if vk <= probe:
            upper, above = lower + (1 << i), probe
            break
        lower, below = lower + (1 << i), probe
        i += 1
    while upper - lower > 1:  # upper - lower <= 2**i
        i -= 1
        if lower + (1 << i) < upper:
            a, b = powers[i]
            probe = below // a * b
            if vk <= probe:
                upper, above = lower + (1 << i), probe
            else:
                lower, below = lower + (1 << i), probe
    return upper, above


def _round_up_geometric(ints, epsilon: Fraction):
    """Round each of the positive ints up onto the geometric grid
    lo * (hi/lo)**(t/k).

    k is the smallest positive integer with (1 + epsilon)**k >= hi/lo, so
    consecutive grid points differ by at most a factor 1 + epsilon; powers
    of more than MAX_GRID_POWER_BITS bits (k times the bits of hi, for
    k > 1) raise ValueError before any is built, the one bound on k.  One
    sweep of the sorted values maps each v to the first cell t with
    v**k <= lo**(k - t) * hi**t, galloping on from the previous value's
    cell (`_cell_above`), so to the smallest grid point at or above v; the
    grid point is materialized exactly when it is an int, otherwise
    as the largest original value in the same grid cell (still an upper
    bound within 1 + epsilon).  For ints that are rationals times a common
    scale, the grid is the rationals' grid times that scale, and one of its
    points is an int exactly when the rational point is rational.  Returns
    (rounded ints in input order, k).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lo, hi = min(ints), max(ints)
    if lo == hi:
        return ints, 1
    k = _grid_steps(Fraction(hi, lo), epsilon)
    if k > 1:  # every power built below is at most hi**k
        _check_power_bits(k * hi.bit_length())

    cells = {}  # grid power lo**(k - t) * hi**t of cell t -> its values, ascending
    powers = [(lo, hi)]  # (lo**s, hi**s) for s = 2**i, built as the jumps need them
    t, grid, top = 0, lo**k, hi**k
    for v in sorted(set(ints))[:-1]:
        vk = v**k
        if vk > grid:  # t < k, as vk < hi**k
            t, grid = _cell_above(vk, t, grid, k, top, powers)
        cells.setdefault(grid, []).append(v)
    cells.setdefault(top, []).append(hi)  # cell k, without sweeping up to it
    rounded_value = {}
    for grid, cell_values in cells.items():
        grid_point = _int_kth_root(grid, k)
        rounded = grid_point if grid_point is not None else cell_values[-1]
        for v in cell_values:
            rounded_value[v] = rounded
    return tuple(map(rounded_value.__getitem__, ints)), k


def round_weights(inst: Instance, epsilon) -> RoundedInstance:
    """Round task weights up onto a geometric grid of at most k+1 values;
    the rounding runs on the instance's ints."""
    epsilon = parse_rational(epsilon)
    kernel = inst._kernel
    rounded, k = _round_up_geometric(kernel.weights, epsilon)
    weights, scale = _canonical(rounded, kernel.weight_scale)
    rounded = Instance._from_kernel(kernel._replace(weights=weights, weight_scale=scale))
    return RoundedInstance(original=inst, rounded=rounded, k=k, epsilon=epsilon)


def round_delays(inst: Instance, epsilon) -> RoundedInstance:
    """Round resource delays up onto a geometric grid of at most k+1 values;
    the rounding runs on the instance's ints.

    The rounding map is monotone, so resource order (and therefore assignment
    indices) carries over between the original and rounded instances.
    """
    epsilon = parse_rational(epsilon)
    kernel = inst._kernel
    rounded, k = _round_up_geometric(kernel.delays, epsilon)
    delays, scale = _canonical(rounded, kernel.delay_scale)
    rounded = Instance._from_kernel(kernel._replace(delays=delays, delay_scale=scale))
    return RoundedInstance(original=inst, rounded=rounded, k=k, epsilon=epsilon)


def approx_solve_weights(inst: Instance, epsilon) -> DPSolution:
    """Assignment with cost at most (1 + epsilon) times the optimum.

    Rounds weights up onto the geometric grid (so at most k+1 distinct
    values), solves the rounded instance exactly with the few-weights DP, and
    re-costs the resulting assignment under the original weights.
    """
    rounding = round_weights(inst, epsilon)
    solution = dp_few_weights(rounding.rounded)
    return DPSolution(cost(inst, solution.assignment), solution.assignment)


def approx_solve_delays(inst: Instance, epsilon) -> DPSolution:
    """Assignment with cost at most (1 + epsilon) times the optimum, obtained
    by rounding delays instead of weights."""
    rounding = round_delays(inst, epsilon)
    solution = dp_few_delays(rounding.rounded)
    return DPSolution(cost(inst, solution.assignment), solution.assignment)


@dataclass(frozen=True)
class FractionalOptimum:
    """The optimal splittable assignment of unit-weight tasks.

    Every kept resource gets mass n / (D * d) where D is the throughput of
    the kept resources, giving each a load of n/D and a total cost of n^2/D,
    which lower-bounds the cost of every integral assignment.
    """

    masses: tuple
    load: Fraction
    cost: Fraction


def fractional_opt(inst: Instance) -> FractionalOptimum:
    """Optimal fractional assignment for unit-weight tasks.

    When there are more resources than tasks, the m - n largest-delay
    resources are dropped first; no integral assignment benefits from them
    and they would inflate the throughput.

    On the kept scaled-int delays D_k = s * d_k, with sum(1 / D_k) = P / L,
    the throughput is s * P / L, the load n * L / (s * P) and resource k's
    mass n * L / (P * D_k).
    """
    if not inst.unit_weights:
        raise ValueError("the fractional optimum is defined for unit weights")
    n, kernel = inst.n, inst._kernel
    kept = kernel.delays[:n]
    reciprocals, common = _reciprocal_sum(kept)
    load = Fraction(n * common, kernel.delay_scale * reciprocals)
    masses = tuple(Fraction(n * common, reciprocals * d) for d in kept)
    return FractionalOptimum(masses=masses, load=load, cost=n * load)
