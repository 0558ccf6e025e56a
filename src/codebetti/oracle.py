"""Brute-force Betti tables for squarefree ideals via restricted homology over F2.

This is the independent cross-check for every closed formula in the
library: for each relevant squarefree multidegree it computes the reduced
homology of the restricted Stanley-Reisner complex with bit-packed
Gaussian elimination, and reads the table off the dimensions.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

from .betti import BettiTable
from .codes import NeuralCode, validate_code
from .piercing import is_inductively_pierced
from .polarization import SquarefreeIdeal, polarized_ideal
from .pseudomonomials import canonical_form


# size guards, each checked before the work it bounds
MAX_HOMOLOGY_VERTICES = 24  # restricted_homology: vertices of one restriction
MAX_ORACLE_VARS = 20  # betti_table_oracle: distinct variables in the generators
MAX_RESTRICTIONS = 1 << 20  # betti_table_oracle: restrictions swept


class GuardExceeded(RuntimeError):
    """A brute-force sweep would exceed one of its size guards."""


class HypothesisViolation(ValueError):
    """The code falls outside the hypotheses of the regularity characterization."""


def _gf2_rank(rows) -> int:
    """Rank over F2; rows are int bitmasks, eliminated against stored pivots."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            msb = row.bit_length() - 1
            piv = pivots.get(msb)
            if piv is None:
                pivots[msb] = row
                rank += 1
                break
            row ^= piv
    return rank


def _boundary_rank(upper, lower) -> int:
    """Rank of the boundary map from size-s faces to size-(s-1) faces."""
    index = {f: i for i, f in enumerate(lower)}
    rows = []
    for f in upper:
        row = 0
        m = f
        while m:
            b = m & -m
            row |= 1 << index[f ^ b]
            m ^= b
        rows.append(row)
    return _gf2_rank(rows)


def _homology_dims(faces_by_size) -> dict[int, int]:
    """Reduced homology dimensions keyed by chain degree (face size minus one).

    The empty face sits in degree -1, so a restriction whose complex is just
    {empty} reports one dimension there; that is what makes the sweep put the
    single w=0 table entry at multidegree (0, 0) with no special casing.
    """
    top = len(faces_by_size) - 1
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        if faces_by_size[s] and faces_by_size[s - 1]:
            ranks[s] = _boundary_rank(faces_by_size[s], faces_by_size[s - 1])
    dims = {}
    for s in range(top + 1):
        h = len(faces_by_size[s]) - ranks[s] - ranks[s + 1]
        if h:
            dims[s - 1] = h
    return dims


def _faces(gens, within: int):
    """Faces of the complex restricted to `within`, grouped by size; a face contains no generator support."""
    active = [g for g in gens if g & ~within == 0]
    by_size: list[list[int]] = [[] for _ in range(within.bit_count() + 1)]
    sub = within
    while True:
        if not any(g & ~sub == 0 for g in active):
            by_size[sub.bit_count()].append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & within
    for bucket in by_size:
        bucket.reverse()
    return by_size


@dataclass(frozen=True)
class HomologyResult:
    """Reduced F2 homology dimensions keyed by simplicial degree."""

    dims: tuple[tuple[int, int], ...]


def variable_mask(n: int, names) -> int:
    """Mask in the 2n-variable bit space for names like "x3" or "y5"."""
    mask = 0
    for name in names:
        kind, idx = name[0], int(name[1:])
        if kind not in "xy" or not 1 <= idx <= n:
            raise ValueError(f"bad variable {name!r} for n={n}")
        mask |= 1 << (idx - 1 + (n if kind == "y" else 0))
    return mask


def restricted_homology(ideal: SquarefreeIdeal, sigma) -> HomologyResult:
    """Reduced homology of the Stanley-Reisner complex restricted to the variables in sigma.

    sigma is an int mask in the 2n-variable layout, or an iterable of
    variable names.
    """
    mask = sigma if isinstance(sigma, int) else variable_mask(ideal.n, sigma)
    if mask.bit_count() > MAX_HOMOLOGY_VERTICES:
        raise GuardExceeded(f"{mask.bit_count()} vertices exceed the cap of {MAX_HOMOLOGY_VERTICES}")
    gens = [g.support_mask(ideal.n) for g in ideal.gens]
    dims = _homology_dims(_faces(gens, mask))
    return HomologyResult(tuple(sorted(dims.items())))


def _support_unions(gens) -> list[int]:
    closure = {0}
    for g in gens:
        closure |= {s | g for s in closure}
    return sorted(closure)


def _sweep_chunk(args) -> dict[tuple[int, int, int], int]:
    n, sigmas, faces_by_size = args
    xmask = (1 << n) - 1
    counts: dict[tuple[int, int, int], int] = {}
    for sigma in sigmas:
        size = sigma.bit_count()
        restricted = [[f for f in faces_by_size[s] if f & ~sigma == 0] for s in range(size + 1)]
        u = (sigma & xmask).bit_count()
        v = size - u
        for d, h in _homology_dims(restricted).items():
            key = (size - d - 1, u, v)
            counts[key] = counts.get(key, 0) + h
    return counts


def betti_table_oracle(ideal: SquarefreeIdeal, threads: int = 1) -> BettiTable:
    """Multigraded Betti table of S/J computed by the restriction sweep.

    Restrictions that are not unions of generator supports have a cone
    point and contribute nothing, so the sweep runs exactly over those
    unions (plus the empty restriction, which yields the (0,0,0) entry).
    """
    gens = [g.support_mask(ideal.n) for g in ideal.gens]
    used = 0
    for g in gens:
        used |= g
    if used.bit_count() > MAX_ORACLE_VARS:
        raise GuardExceeded(f"{used.bit_count()} variables exceed the cap of {MAX_ORACLE_VARS}")
    sigmas = _support_unions(gens)
    if len(sigmas) > MAX_RESTRICTIONS:
        raise GuardExceeded(f"{len(sigmas)} restrictions exceed the cap of {MAX_RESTRICTIONS}")
    faces_by_size = _faces(gens, used)
    if threads <= 1:
        parts = [_sweep_chunk((ideal.n, sigmas, faces_by_size))]
    else:
        # strided chunks spread the expensive high-popcount restrictions;
        # over-chunking lets the pool balance dynamically, and the merge is
        # a sum, so scheduling order cannot change the result
        pieces = [sigmas[i :: threads * 8] for i in range(threads * 8)]
        with multiprocessing.Pool(threads) as pool:
            parts = pool.map(_sweep_chunk, [(ideal.n, ch, faces_by_size) for ch in pieces if ch])
    counts: dict[tuple[int, int, int], int] = {}
    for part in parts:
        for key, h in part.items():
            counts[key] = counts.get(key, 0) + h
    return BettiTable.from_dict(ideal.n, counts)


def regularity(table: BettiTable, of_ideal: bool = False) -> int:
    """Castelnuovo-Mumford regularity read off a table of S/J.

    With of_ideal the resolution is reindexed by one homological degree, so
    reg(J) comes out as max(u + v - w + 1) over the w >= 1 entries.
    """
    if not table.entries:
        raise ValueError("empty table")
    if not of_ideal:
        return max(u + v - w for w, u, v, _ in table.entries)
    shifted = [u + v - w + 1 for w, u, v, _ in table.entries if w >= 1]
    if not shifted:
        raise ValueError("the zero ideal has no regularity")
    return max(shifted)


def pdim(table: BettiTable) -> int:
    """Projective dimension: the largest homological degree with a nonzero entry."""
    return max((w for w, _, _, _ in table.entries), default=0)


@dataclass(frozen=True)
class CharacterizationVerdict:
    """Cross-check record for the regularity-2 characterization."""

    quadratic: bool
    reg_of_ideal: int
    pierced_by_definition: bool
    theorem_consistent: bool


def regularity_characterization(code: NeuralCode, threads: int = 1) -> CharacterizationVerdict:
    """Check (regularity of the polarized ideal == 2) against the definitional verdict.

    Hypotheses enforced: no silent or duplicate neurons, and a nonzero
    quadratic canonical form (the zero ideal has no regularity to compare).
    """
    diag = validate_code(code)
    if not diag.clean:
        raise HypothesisViolation(
            f"silent neurons {list(diag.silent)} or duplicate pairs {list(diag.duplicate_pairs)}"
        )
    cf = canonical_form(code)
    if not cf:
        raise HypothesisViolation("the ideal is zero; regularity is undefined")
    if any(f.degree != 2 for f in cf):
        raise HypothesisViolation("canonical form is not quadratic")
    table = betti_table_oracle(polarized_ideal(cf, code.n), threads=threads)
    reg = regularity(table, of_ideal=True)
    pierced = is_inductively_pierced(code) is not None
    return CharacterizationVerdict(True, reg, pierced, (reg == 2) == pierced)
