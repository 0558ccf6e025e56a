"""Squarefree monomials in paired x/y variables and polarized neural ideals.

Polarization sends the pseudo-monomial factor (1-x_j) to y_j, turning the
vanishing ideal of a code into a squarefree monomial ideal of the ring on
2n variables, where it is graded and its Betti numbers make sense.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .codes import MAX_INDEX, LineReader, indices_of
from .pseudomonomials import PseudoMonomial


class IdealParseError(ValueError):
    """Raised for malformed monomial-list files."""


@dataclass(frozen=True)
class SquarefreeMonomial:
    """prod x_i (i in xsupp) * prod y_j (j in ysupp); multidegree (|xsupp|, |ysupp|)."""

    xsupp: int
    ysupp: int

    def __post_init__(self):
        if self.xsupp < 0 or self.ysupp < 0:
            raise ValueError("negative support mask")

    @property
    def multidegree(self) -> tuple[int, int]:
        return (self.xsupp.bit_count(), self.ysupp.bit_count())

    @property
    def degree(self) -> int:
        return self.xsupp.bit_count() + self.ysupp.bit_count()

    def sort_key(self):
        return (self.degree, self.xsupp, self.ysupp)

    def divides(self, other: "SquarefreeMonomial") -> bool:
        return self.xsupp & ~other.xsupp == 0 and self.ysupp & ~other.ysupp == 0

    def support_mask(self, n: int) -> int:
        """Combined mask in the 2n-variable bit space (x_i -> bit i-1, y_i -> bit n+i-1)."""
        return self.xsupp | (self.ysupp << n)

    def render(self) -> str:
        parts = [f"x{i}" for i in indices_of(self.xsupp)]
        parts += [f"y{i}" for i in indices_of(self.ysupp)]
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.render()


def polarize(f: PseudoMonomial) -> SquarefreeMonomial:
    """Replace each (1-x_j) factor by y_j."""
    return SquarefreeMonomial(f.sigma, f.tau)


def depolarize(m: SquarefreeMonomial) -> PseudoMonomial:
    """Inverse substitution y_j -> (1-x_j); defined only for disjoint supports."""
    if m.xsupp & m.ysupp:
        raise ValueError(f"{m.render()} depolarizes to a multiple of x_i*(1-x_i)")
    return PseudoMonomial(m.xsupp, m.ysupp)


def _first_divisors(masks) -> list[int | None]:
    """For each position, the first position before it whose mask divides its mask; None if none does.

    The masks must be sorted by bit count. A proper divisor has fewer bits,
    so it sorts before its multiple: each mask is checked against the masks
    of fewer bits, up to the first that divides it, and failing that
    against its first copy, found by a dict lookup.
    """
    first: dict[int, int] = {}  # mask -> position of its first copy
    out: list[int | None] = []
    lower = 0  # the masks below this position have fewer bits than m
    for j, m in enumerate(masks):
        deg = m.bit_count()
        while masks[lower].bit_count() < deg:
            lower += 1
        copy = first.setdefault(m, j)
        out.append(next((k for k in range(lower) if masks[k] & ~m == 0), None if copy == j else copy))
    return out


def minimalize(monomials) -> list[SquarefreeMonomial]:
    """Drop duplicates and every monomial divisible by another one."""
    uniq = sorted(set(monomials), key=SquarefreeMonomial.sort_key)
    shift = max((m.xsupp.bit_length() for m in uniq), default=0)
    divisors = _first_divisors([m.xsupp | m.ysupp << shift for m in uniq])
    return [m for m, a in zip(uniq, divisors) if a is None]


@dataclass(frozen=True)
class SquarefreeIdeal:
    """Squarefree monomial ideal in F2[x1..xn, y1..yn] given by minimal generators."""

    n: int
    gens: tuple[SquarefreeMonomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(sorted(self.gens, key=SquarefreeMonomial.sort_key)))
        width = (1 << self.n) - 1
        for g in self.gens:
            if g.xsupp & ~width or g.ysupp & ~width:
                raise ValueError(f"generator {g.render()} uses variables beyond n={self.n}")
            if g.xsupp == 0 and g.ysupp == 0:
                raise ValueError("the unit ideal is not representable")
            if g.xsupp & g.ysupp:
                raise ValueError(f"generator {g.render()} is divisible by some x_i*y_i")
        divisors = _first_divisors([g.support_mask(self.n) for g in self.gens])
        # a later copy dividing an earlier one is outranked by the reverse pair
        pairs = [(a, b) for b, a in enumerate(divisors) if a is not None]
        if pairs:
            a, b = min(pairs)
            raise ValueError(f"{self.gens[a].render()} divides {self.gens[b].render()}: generators are not minimal")

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def render(self) -> str:
        return ", ".join(g.render() for g in self.gens) if self.gens else "0"


def polarized_ideal(cf, n: int) -> SquarefreeIdeal:
    """Polarize each canonical-form element; the images stay a minimal generating set."""
    return SquarefreeIdeal(n, tuple(polarize(f) for f in cf))


@dataclass(frozen=True)
class PiercingStep:
    """One constructive step: the neuron pierces the interval [sigma, tau] of the prior code."""

    neuron: int
    sigma: int
    tau: int

    def __post_init__(self):
        if self.neuron < 1:
            raise ValueError("neuron index must be positive")
        if self.sigma & ~self.tau:
            raise ValueError("sigma must be contained in tau")
        if self.tau >> (self.neuron - 1) & 1:
            raise ValueError("the pierced interval cannot involve the new neuron")

    @property
    def k(self) -> int:
        """Rank of the pierced interval."""
        return (self.tau & ~self.sigma).bit_count()

    @property
    def ell(self) -> int:
        """Number of fields the new field sits inside."""
        return self.sigma.bit_count()

    def render(self) -> str:
        sig = "{" + ",".join(str(i) for i in indices_of(self.sigma)) + "}"
        tau = "{" + ",".join(str(i) for i in indices_of(self.tau)) + "}"
        return f"step {self.neuron}: sigma={sig} tau={tau} k={self.k} l={self.ell}"

    def __str__(self) -> str:
        return self.render()


def piercing_variables(step: PiercingStep, existing) -> tuple[SquarefreeMonomial, ...]:
    """Variables x_i for existing fields disjoint from the new one, plus y_j for j in sigma.

    `existing` is the mask of neurons present before the step; there are
    (|existing| - k - l) x's and l y's.
    """
    if step.tau & ~existing:
        raise ValueError(f"{step.render()}: pierces neurons that are not present yet")
    if existing >> (step.neuron - 1) & 1:
        raise ValueError(f"neuron {step.neuron} is already present")
    out = [SquarefreeMonomial(1 << (i - 1), 0) for i in indices_of(existing & ~step.tau)]
    out += [SquarefreeMonomial(0, 1 << (j - 1)) for j in indices_of(step.sigma)]
    return tuple(out)


def extend_ideal(J_prev: SquarefreeIdeal, step: PiercingStep) -> SquarefreeIdeal:
    """Adjoin x_new * v for each piercing variable v.

    For a genuinely new piercing step the union needs no antichain
    reduction; if it would, the step is inconsistent and we raise.
    The refusal can fire here, unlike in `ideal_from_steps`, because
    `J_prev` comes from the caller and need not be the ideal of the
    steps before this one. The neurons present before the step are
    those below the new one.
    """
    existing = (1 << (step.neuron - 1)) - 1
    for g in J_prev.gens:
        if (g.xsupp | g.ysupp) & ~existing:
            raise ValueError("previous ideal uses neurons outside the existing set")
    new_bit = 1 << (step.neuron - 1)
    new = [SquarefreeMonomial(v.xsupp | new_bit, v.ysupp) for v in piercing_variables(step, existing)]
    try:
        return SquarefreeIdeal(max(J_prev.n, step.neuron), J_prev.gens + tuple(new))
    except ValueError as exc:
        raise ValueError(f"inconsistent piercing step: {exc}") from exc


def ideal_from_steps(steps) -> SquarefreeIdeal:
    """The ideal extend_ideal folds out of a construction sequence, validated once.

    Each step adjoins x_new * v for its piercing variables v over the
    neurons present before it. The ideal has as many variable pairs as the
    largest neuron, the highest bit of the neurons placed. Unlike
    `extend_ideal`, it does not rewrap a refusal as an inconsistent step,
    since no step sequence can cause one: x_p * v divides x_q * w only if
    v is x_q, placed before p, and w is x_p, placed before q, and
    `piercing_variables` refuses a neuron placed twice. `SquarefreeIdeal`
    still runs its own check.
    """
    gens = []
    existing = 0
    for step in steps:
        bit = 1 << (step.neuron - 1)
        gens += [SquarefreeMonomial(v.xsupp | bit, v.ysupp) for v in piercing_variables(step, existing)]
        existing |= bit
    return SquarefreeIdeal(existing.bit_length(), tuple(gens))


_FACTOR_RE = re.compile(r"^([xy])([0-9]+)$")


def parse_ideal(text: str) -> SquarefreeIdeal:
    """Read a monomial-list file: one monomial per line, factors like "x3*y5".

    Accepts any squarefree ideal whose generators hold no x_i*y_i, not only
    polarized neural ones; redundant generators are reduced away.  Refused,
    naming the line: a variable twice in one monomial, as reading it once
    would give the radical's Betti table, and x_i with y_i, which
    SquarefreeIdeal does not represent.  Comments and the optional "n="
    header (the variable-pair count, otherwise the maximum index seen)
    follow LineReader, with indices capped at MAX_INDEX.  So every index is
    at most n and every line has a factor, and minimalize drops repeats and
    multiples: SquarefreeIdeal refuses nothing the reader passes on.
    """
    reader = LineReader(text, MAX_INDEX, IdealParseError)
    gens: list[SquarefreeMonomial] = []
    for line in reader:
        if line == "0":
            continue
        supports = {"x": 0, "y": 0}
        for factor in line.split("*"):
            m = _FACTOR_RE.match(factor.strip())
            if m is None:
                raise reader.fail(f"bad factor {factor.strip()!r}")
            kind, bit = m.group(1), reader.bit(m.group(2))
            if (supports["x"] | supports["y"]) & bit:
                i = bit.bit_length()
                raise reader.fail(f"{kind}{i} appears twice: the monomial is not squarefree" if supports[kind] & bit
                                  else f"x{i} and y{i} appear together: a generator may not hold both")
            supports[kind] |= bit
        gens.append(SquarefreeMonomial(supports["x"], supports["y"]))
    return SquarefreeIdeal(reader.n, tuple(minimalize(gens)))
