"""Detecting piercings, deciding inductive piercedness, and building pierced codes."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .codes import MAX_NEURONS, NeuralCode, enumerate_interval, validate_code
from .graphs import MAX_ENUMERATED, EliminationOrdering, chordality, chordless_cycle_witness, relationship_graph
from .polarization import PiercingStep, polarized_ideal
from .pseudomonomials import canonical_form


class DiagnosticsError(ValueError):
    """The code has silent neurons or duplicate neuron pairs."""


def require_clean(code: NeuralCode) -> None:
    diag = validate_code(code)
    if not diag.clean:
        raise DiagnosticsError(
            f"silent neurons {list(diag.silent)}, duplicate pairs {list(diag.duplicate_pairs)}"
        )


def _detect_on_words(words: frozenset[int], i: int) -> PiercingStep | None:
    bit = 1 << (i - 1)
    with_i = [w & ~bit for w in words if w & bit]
    if not with_i:
        return None
    sigma = tau = with_i[0]
    for w in with_i[1:]:
        sigma &= w
        tau |= w
    rank = (tau & ~sigma).bit_count()
    if len(with_i) != 1 << rank:
        return None
    for gamma in enumerate_interval(sigma, tau):
        if gamma not in words:
            return None
    return PiercingStep(i, sigma, tau)


def detect_piercing(code: NeuralCode, i: int) -> PiercingStep | None:
    """The step certifying neuron i as a piercing, or None.

    sigma and tau are forced: they are the intersection and union of the
    words containing i (with i dropped), since the interval condition pins
    the appearance set of i and an interval determines its endpoints.
    """
    if not 1 <= i <= code.n:
        raise ValueError(f"neuron {i} out of range 1..{code.n}")
    if not any(w >> (i - 1) & 1 for w in code.words):
        raise ValueError(f"neuron {i} is silent")
    return _detect_on_words(code.words, i)


@dataclass(frozen=True)
class PiercingOrder:
    """Steps in construction order; replaying them through build_code recovers the code."""

    steps: tuple[PiercingStep, ...]

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(s.neuron for s in self.steps)

    def render(self) -> str:
        return "\n".join(s.render() for s in self.steps)


@dataclass(frozen=True)
class PiercingProfile:
    """Counts j_{k,l}: piercings of rank k contained in l other place fields."""

    n: int
    jkl: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_counts(cls, n: int, counts) -> "PiercingProfile":
        items = []
        total = 0
        for (k, l), c in sorted(counts.items()):
            if not isinstance(c, int):
                raise ValueError(f"piercing count j[{k},{l}] = {c!r} is not an integer")
            if c < 0:
                raise ValueError(f"negative piercing count j[{k},{l}] = {c}")
            if c == 0:
                continue
            if not 0 <= k <= n - 1 or not 0 <= l <= n - 1 - k:
                raise ValueError(f"impossible piercing type j[{k},{l}] = {c} for n = {n}")
            items.append(((k, l), c))
            total += c
        if total != n:
            raise ValueError(f"piercing counts sum to {total}, expected n = {n}")
        return cls(n, tuple(items))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.jkl)

    @property
    def jk(self) -> tuple[int, ...]:
        """Marginal counts j_k for k = 0..n-1."""
        out = [0] * self.n
        for (k, _), c in self.jkl:
            out[k] += c
        return tuple(out)

    def render(self) -> str:
        parts = [f"j[{k},{l}]={c}" for (k, l), c in self.jkl]
        return " ".join(parts) if parts else "(empty)"

    def render_marginals(self) -> str:
        return " ".join(f"j{k}={c}" for k, c in enumerate(self.jk))


def piercing_profile(order: PiercingOrder) -> PiercingProfile:
    """Tabulate j_{k,l} over the steps of a piercing order."""
    counts = Counter((s.k, s.ell) for s in order.steps)
    return PiercingProfile.from_counts(len(order.steps), counts)


def build_code(steps) -> NeuralCode:
    """Fold the piercing construction starting from the empty code."""
    words = {0}
    existing = 0
    top = 0
    for step in steps:
        bit = 1 << (step.neuron - 1)
        if existing & bit:
            raise ValueError(f"neuron {step.neuron} added twice")
        interval = enumerate_interval(step.sigma, step.tau)
        for gamma in interval:
            if gamma not in words:
                raise ValueError(f"{step.render()}: interval not contained in the current code")
        words.update(gamma | bit for gamma in interval)
        existing |= bit
        top = max(top, step.neuron)
    return NeuralCode(top, frozenset(words))


def _peel(words: frozenset[int], left, order=None, tail=()):
    """Every piercing order of a clean word set, found by peeling it from the last step down.

    Each stage tries the neuron `order` puts last among those `left`, or,
    with no order, every neuron left, lowest first. For each one that is a
    piercing of the current words it deletes that neuron from every word
    and peels the rest, with its step put in front of `tail`. Once no
    neuron is left it yields the steps as a PiercingOrder, so the first
    order yielded takes the lowest piercing neuron at each stage. At the
    first stage where no neuron tried is a piercing it returns True, and
    each caller returns True in turn, which ends the whole walk.

    With no order, a stuck stage proves that no order exists, so ending
    the walk there loses none: deleting any neuron i from a pierced code C
    leaves a pierced code.  Proof: drop i from every step of a construction
    of C.  Step i then adds no word, and each other step j pierces
    [sigma_j - i, tau_j - i], the image of [sigma_j, tau_j], which lies in
    the code built so far because [sigma_j, tau_j] did; the steps build
    C - i.  A pierced code with neurons left has a piercing neuron (the
    last of any construction), and peeling one leaves a pierced code, so
    on a pierced code no stage of any branch gets stuck.
    """
    if not left:
        yield PiercingOrder(tail)
        return False
    stuck = True
    for i in left if order is None else (order[len(left) - 1],):
        step = _detect_on_words(words, i)
        if step is None:
            continue
        stuck = False
        bit = 1 << (i - 1)
        # a list: tuple() of a generator is resized into place, so the freed
        # tuples of each length pile up in its free lists (about 1 MB of RSS)
        rest = [j for j in left if j != i]
        if (yield from _peel(frozenset(w & ~bit for w in words), rest, order, (step,) + tail)):
            return True
    return stuck


def steps_for_order(code: NeuralCode, order) -> PiercingOrder | None:
    """The steps realizing a given construction order, or None if some step fails."""
    order = tuple(order)
    if sorted(order) != list(range(1, code.n + 1)):
        raise ValueError("order must be a permutation of 1..n")
    require_clean(code)
    return next(_peel(code.words, range(1, code.n + 1), order), None)


def is_inductively_pierced(code: NeuralCode) -> PiercingOrder | None:
    """The order the peel finds, taking the lowest piercing neuron at each stage, else None."""
    require_clean(code)
    return next(_peel(code.words, range(1, code.n + 1)), None)


def iter_piercing_orders(code: NeuralCode):
    """Every piercing order of the code, the peel's first.

    One walk over every branch of the peel: on a pierced code no branch
    gets stuck (see `_peel`), so the walk needs no memo of dead word sets,
    and on any other code it ends at the first stuck stage.
    """
    if code.n > MAX_ENUMERATED:
        raise ValueError(f"n={code.n} exceeds the enumeration guard of {MAX_ENUMERATED}")
    require_clean(code)
    yield from _peel(code.words, range(1, code.n + 1))


@dataclass(frozen=True)
class FastVerdict:
    """Outcome of the quadratic-plus-chordal test, with its certificate."""

    pierced: bool
    cf_degrees: tuple[int, ...]
    ordering: EliminationOrdering | None
    chordless_cycle: tuple[int, ...] | None
    reason: str

    def __bool__(self) -> bool:
        return self.pierced


def is_inductively_pierced_fast(code: NeuralCode) -> FastVerdict:
    """Inductively pierced iff the canonical form is quadratic and the graph is chordal."""
    require_clean(code)
    cf = canonical_form(code)
    degrees = tuple(f.degree for f in cf)
    if any(d != 2 for d in degrees):
        return FastVerdict(False, degrees, None, None, "canonical form is not quadratic")
    graph = relationship_graph(polarized_ideal(cf, code.n))
    ordering = chordality(graph)
    if ordering is None:
        cycle = chordless_cycle_witness(graph)
        reason = f"chordless {len(cycle)}-cycle " + "-".join(map(str, cycle)) + " in the relationship graph"
        return FastVerdict(False, degrees, None, cycle, reason)
    return FastVerdict(True, degrees, ordering, None, "")


def code_intervals(words, max_rank: int | None = None) -> list[tuple[int, int]]:
    """(sigma, tau) pairs whose whole interval lies inside the word set."""
    ws = sorted(words)
    out = []
    for sigma in ws:
        for tau in ws:
            if sigma & ~tau:
                continue
            if max_rank is not None and (tau & ~sigma).bit_count() > max_rank:
                continue
            if all(g in words for g in enumerate_interval(sigma, tau)):
                out.append((sigma, tau))
    return out


def random_pierced_code(n: int, kmax: int | None = None, seed: int = 0):
    """Deterministic random pierced code: each step picks a uniform interval of rank <= kmax.

    Returns (order, code); the code is inductively pierced by construction.
    """
    if n > MAX_NEURONS:
        raise ValueError(f"n={n} exceeds the cap of {MAX_NEURONS} neurons")
    if kmax is not None and kmax < 0:
        raise ValueError(f"kmax must be at least 0, got {kmax}")
    if seed < 0:
        # random.Random seeds with the absolute value, so -s would repeat s
        raise ValueError(f"seed must be at least 0, got {seed}")
    rng = random.Random(seed)
    words = {0}
    steps = []
    for t in range(1, n + 1):
        choices = code_intervals(words, kmax)
        sigma, tau = choices[rng.randrange(len(choices))]
        steps.append(PiercingStep(t, sigma, tau))
        bit = 1 << (t - 1)
        words.update(g | bit for g in enumerate_interval(sigma, tau))
    order = PiercingOrder(tuple(steps))
    return order, NeuralCode(n, frozenset(words))


def enumerate_pierced_codes(max_n: int, max_rank: int | None = None):
    """Every code reachable by piercing sequences with fresh labels 1..max_n, deduplicated."""
    yield NeuralCode(0, frozenset({0}))
    seen = {frozenset({0})}
    level = [frozenset({0})]
    for t in range(1, max_n + 1):
        bit = 1 << (t - 1)
        nxt = []
        for words in level:
            for sigma, tau in code_intervals(words, max_rank):
                new = frozenset(words | {g | bit for g in enumerate_interval(sigma, tau)})
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        nxt.sort(key=sorted)
        for words in nxt:
            yield NeuralCode(t, words)
        level = nxt
