"""Pseudo-monomials and the minimal generating set of a code's vanishing ideal."""

from __future__ import annotations

from dataclasses import dataclass

from .codes import NeuralCode, indices_of


@dataclass(frozen=True)
class PseudoMonomial:
    """Product of x_i over sigma and (1-x_j) over tau, with disjoint supports."""

    sigma: int
    tau: int

    def __post_init__(self):
        if self.sigma < 0 or self.tau < 0:
            raise ValueError("negative support mask")
        if self.sigma & self.tau:
            raise ValueError("sigma and tau must be disjoint")

    @property
    def degree(self) -> int:
        return self.sigma.bit_count() + self.tau.bit_count()

    def sort_key(self):
        return (self.degree, self.sigma, self.tau)

    def divides(self, other: "PseudoMonomial") -> bool:
        return self.sigma & ~other.sigma == 0 and self.tau & ~other.tau == 0

    def vanishes_on(self, word: int) -> bool:
        """False exactly when every sigma-neuron fires in the word and no tau-neuron does."""
        return not (self.sigma & ~word == 0 and self.tau & word == 0)

    def vanishes_on_code(self, code: NeuralCode) -> bool:
        return all(self.vanishes_on(w) for w in code.words)

    def render(self) -> str:
        parts = [f"x{i}" for i in indices_of(self.sigma)]
        parts += [f"(1-x{i})" for i in indices_of(self.tau)]
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.render()


def canonical_form(code: NeuralCode) -> tuple[PseudoMonomial, ...]:
    """Divisibility-minimal pseudo-monomials vanishing on every codeword.

    Built one codeword at a time, as in Petersen, Youngs, Vega and Curto,
    "Neural ideals in SageMath" (arXiv:1609.09602). Starting from the unit
    ideal, the terms that vanish on the next word c are kept; every other term
    m is multiplied by x_i (c_i = 0) or (1-x_i) (c_i = 1) for each neuron i
    outside its support, and a product is dropped when a kept term divides it.

    No term m that grows has a factor vanishing on c, so each product m*b has
    exactly one: b. A kept term k therefore divides m*b only when b is its one
    factor vanishing on c and its other factors, k/b, all lie in m. So for
    each word the kept terms with one vanishing factor b are paired as
    (k/b, b), and for each m the b of every pair whose k/b divides m is
    blocked; every other product is kept with no further test. Products
    never repeat, since each holds its one vanishing factor and m.
    The cost grows with the number of words and terms, not with 3^n.
    Output is sorted by (degree, sigma, tau) for reproducible listings.
    """
    # A term is one mask: sigma in the low n bits, tau in the next n.
    n = code.n
    full = (1 << n) - 1
    terms = [0]
    for c in sorted(code.words):
        zero_at_c = (full ^ c) | (c << n)  # the factors x_i, (1-x_i) that vanish on c
        kept = []
        growing = []
        blocking = []  # (k/b, b) for each kept term k whose one factor vanishing on c is b
        for m in terms:
            z = m & zero_at_c
            if z:
                kept.append(m)
                if z & (z - 1) == 0:
                    blocking.append((m ^ z, z))
            else:
                growing.append(m)
        for m in growing:
            supp = (m | m >> n) & full
            free = zero_at_c & ~(supp | supp << n)
            for rest, b in blocking:
                if rest & ~m == 0:
                    free &= ~b
            while free:
                b = free & -free
                free ^= b
                kept.append(m | b)
        terms = kept
    found = [PseudoMonomial(m & full, m >> n) for m in terms]
    found.sort(key=PseudoMonomial.sort_key)
    return tuple(found)
