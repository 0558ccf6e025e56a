"""Betti tables of squarefree ideals via restricted homology over F2.

This is the independent cross-check for every closed formula in the
library. By Hochster's formula, beta_{i,sigma}(S/J) is the reduced homology
of the Stanley-Reisner complex restricted to sigma, in degree |sigma|-i-1;
only unions sigma of generator supports can contribute. The sweep never
reads the formulas or the recursion. For each union it works on a smaller
complex with the same homology:

- It deletes dominated vertices until none is left. Vertex v is dominated
  by w when every facet through v also holds w; deleting v is then a strong
  collapse, which keeps the homotopy type (Barmak and Minian, *Strong
  homotopy types, nerves and collapses*, Discrete Comput. Geom. 2012). On
  the generators, v is dominated by w iff, for every generator g through w
  inside sigma, (g - w) + v contains a generator. For an edge ideal that is
  Engström's rule: v and w are not adjacent and N(w) lies in N(v)
  (*Complexes of directed trees and independence complexes*, Discrete
  Math. 2009).
- A vertex left in no generator is a cone point: the homology is zero and
  the union is skipped.
- Otherwise the homology of what is left, the core, is computed once per
  core mask by bit-packed Gaussian elimination, and credited at the
  original sigma's degrees.
- The sweep builds each face's boundary row once, over the positions of
  the global faces one size smaller. A face inside a core has its whole
  boundary inside it, so every core picks its faces by position and
  eliminates these shared rows.
- Ranks go from the top face size down with clearing (Chen and Kerber,
  *Persistent homology computation with a twist*, EuroCG 2011): a face
  that leads a reduced row one size up has a row that reduces to zero, so
  it is skipped.

The plain sweep, which computes every restriction in full, is kept as the
reference `sweep_betti_table` in tests/conftest.py.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from dataclasses import dataclass

from .betti import BettiTable
from .codes import NeuralCode, validate_code
from .piercing import is_inductively_pierced
from .polarization import SquarefreeIdeal, polarized_ideal
from .pseudomonomials import canonical_form


# size guards, each checked before the work it bounds
MAX_HOMOLOGY_VERTICES = 24  # restricted_homology: vertices of one restriction
# betti_table_oracle: distinct variables in the generators; this also bounds the
# restrictions swept, as 20 variables have at most 2^20 unions of supports
MAX_ORACLE_VARS = 20


class GuardExceeded(RuntimeError):
    """A brute-force sweep would exceed one of its size guards."""


class HypothesisViolation(ValueError):
    """The code falls outside the hypotheses of the regularity characterization."""


def _boundary_rows(faces_by_size) -> list[list[int]]:
    """Per face size s, each s-face's boundary as a bitmask over the positions of the (s-1)-faces."""
    rows = [[0] * len(faces_by_size[0])]  # the empty face has no boundary
    for s in range(1, len(faces_by_size)):
        index = {f: i for i, f in enumerate(faces_by_size[s - 1])}
        level = []
        for f in faces_by_size[s]:
            row = 0
            m = f
            while m:
                b = m & -m
                row |= 1 << index[f ^ b]
                m ^= b
            level.append(row)
        rows.append(level)
    return rows


def _homology_dims(rows, picked) -> tuple[dict[int, int], int, int]:
    """Reduced homology dimensions of a subcomplex, the rank calls made and the rows reduced.

    Dimensions are keyed by chain degree (face size minus one). rows are
    the boundary rows of a complex by face size (`_boundary_rows`);
    picked[s] is a bitmask over the positions of the subcomplex's s-faces,
    whose boundaries lie in the subcomplex. Ranks are taken over F2 from the
    top size down, with clearing: an s-face that is the leading face (msb)
    of a reduced (s+1)-row leads a boundary, which is a cycle, so its own row
    is a sum of the rows at lower positions. Dropping such rows, highest
    first, never changes the span, so they are skipped and the rank stays.

    The empty face sits in degree -1, so a restriction whose complex is just
    {empty} reports one dimension there; that is what makes the sweep put the
    single w=0 table entry at multidegree (0, 0) with no special casing.
    """
    top = len(picked) - 1
    ranks = [0] * (top + 2)
    calls = reduced = 0
    cleared = 0  # positions of the s-faces that led a reduced (s+1)-row
    for s in range(top, 0, -1):
        pivots: dict[int, int] = {}
        leads = 0
        if picked[s] and picked[s - 1]:
            calls += 1
            level = rows[s]
            todo = picked[s] & ~cleared
            reduced += todo.bit_count()
            while todo:
                b = todo & -todo
                todo ^= b
                row = level[b.bit_length() - 1]
                while row:
                    msb = row.bit_length() - 1
                    piv = pivots.get(msb)
                    if piv is None:
                        pivots[msb] = row
                        leads |= 1 << msb
                        break
                    row ^= piv
        ranks[s] = len(pivots)
        cleared = leads
    dims = {}
    for s in range(top + 1):
        h = picked[s].bit_count() - ranks[s] - ranks[s + 1]
        if h:
            dims[s - 1] = h
    return dims, calls, reduced


def _avoiding(faces_by_size, used: int) -> dict[int, list[int]]:
    """Per vertex bit v of used, per face size, a bitmask over the positions of the faces without v."""
    return {
        v: [int("".join("0" if f & v else "1" for f in reversed(fs)) or "0", 2) for fs in faces_by_size]
        for v in _bits(used)
    }


def _bits(mask: int) -> list[int]:
    """The set bits of a mask, lowest first, each as a one-bit mask."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b)
        mask ^= b
    return out


def _faces(gens, within: int):
    """Faces of the complex restricted to `within`, grouped by size; a face contains no generator support.

    Faces grow one vertex at a time, in increasing bit order: a face plus a
    vertex b is a face unless it contains a generator through b.
    """
    vertices = _bits(within)
    through = [[g for g in gens if g & b and g & ~within == 0] for b in vertices]
    by_size: list[list[int]] = [[] for _ in range(len(vertices) + 1)]
    by_size[0].append(0)
    frontier = [(0, 0)]  # (face, index of the first vertex it may still take)
    for size in range(1, len(by_size)):
        grown = []
        for face, start in frontier:
            for i in range(start, len(vertices)):
                cand = face | vertices[i]
                if not any(g & ~cand == 0 for g in through[i]):
                    grown.append((cand, i + 1))
        if not grown:
            break
        by_size[size] = [face for face, _ in grown]
        frontier = grown
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
    faces_by_size = _faces(gens, mask)
    dims = _homology_dims(_boundary_rows(faces_by_size), [(1 << len(fs)) - 1 for fs in faces_by_size])[0]
    return HomologyResult(tuple(sorted(dims.items())))


def _support_unions(gens) -> list[int]:
    # in increasing mask order the closure stays within the low vertices for
    # longer, which keeps the intermediate sets small
    closure = {0}
    for g in sorted(gens):
        closure.update([s | g for s in closure if g & ~s])
    return sorted(closure)


def _domination_table(gens, used: int) -> dict[int, list[tuple[int, int]]]:
    """Per vertex bit w, the pairs (g, B) for the generators g through w.

    B holds the vertices v for which (g - w) + v contains a generator. v is
    dominated by w inside sigma iff v lies in B for every such g inside
    sigma. For an edge g = {w, x}, B is the neighbourhood of x.
    """
    table: dict[int, list[tuple[int, int]]] = {b: [] for b in _bits(used)}
    through = {b: [h for h in gens if h & b] for b in table}
    for g in gens:
        for w in _bits(g):
            rest = g ^ w
            # rest is a face, as the generators are minimal, so only a
            # generator through v can lie inside rest + v
            dominated = 0
            for v, hs in through.items():
                probe = rest | v
                if any(h & ~probe == 0 for h in hs):
                    dominated |= v
            table[w].append((g, dominated))
    return table


def _core(sigma: int, table) -> int | None:
    """The vertices left after deleting dominated vertices from sigma, or None for a cone.

    Whatever w dominates stays dominated by w after other deletions, so all
    of it goes at once. Passes repeat until one deletes nothing.
    """
    changed = True
    while changed:
        changed = False
        for w in _bits(sigma):
            if not sigma & w:
                continue
            dominated = sigma
            inside = False
            for g, b in table[w]:
                if g & ~sigma == 0:
                    inside = True
                    dominated &= b
            if not inside:
                return None
            dominated &= ~w
            if dominated:
                sigma &= ~dominated
                changed = True
    return sigma


def _reduce_chunk(args) -> tuple[int, dict[int, dict[tuple[int, int], int]]]:
    """Cones skipped, and per core how many restrictions of each (|sigma|, x-degree) reduce to it."""
    n, sigmas, table = args
    xmask = (1 << n) - 1
    cones = 0
    credits: dict[int, dict[tuple[int, int], int]] = {}
    for sigma in sigmas:
        core = _core(sigma, table)
        if core is None:
            cones += 1
            continue
        key = (sigma.bit_count(), (sigma & xmask).bit_count())
        at = credits.setdefault(core, {})
        at[key] = at.get(key, 0) + 1
    return cones, credits


def _core_homology(args) -> tuple[list[tuple[int, dict[int, int]]], int, int]:
    """Reduced homology of each core from the shared boundary rows, with the rank calls made and rows reduced.

    A face lies in the core iff it avoids every used vertex outside it, so
    the core's faces are picked by and-ing the avoiding masks of those
    vertices, size by size.
    """
    cores, rows, avoiding = args
    everything = [(1 << len(level)) - 1 for level in rows]
    out = []
    rank_calls = reduced = 0
    for core in cores:
        picked = everything[: core.bit_count() + 1]
        for v, masks in avoiding.items():
            if not v & core:
                picked = [p & m for p, m in zip(picked, masks)]
        dims, calls, part = _homology_dims(rows, picked)
        out.append((core, dims))
        rank_calls += calls
        reduced += part
    return out, rank_calls, reduced


_POOL = None  # (pid, threads, pool) of the last parallel sweep in this process


def _worker_pool(threads: int):
    """A pool of `threads` workers, kept for the next parallel sweep of this process.

    Starting and stopping a pool costs about as much as a whole mid-sized
    sweep, so one pool serves every call with the same thread count; a new
    count replaces it. A forked child starts its own, as the parent's pool
    is no use there.
    """
    global _POOL
    pid = os.getpid()
    if _POOL is not None and _POOL[:2] == (pid, threads):
        return _POOL[2]
    if _POOL is not None and _POOL[0] == pid:
        _POOL[2].terminate()
    _POOL = (pid, threads, multiprocessing.Pool(threads))
    return _POOL[2]


@atexit.register
def _stop_worker_pool() -> None:
    # before interpreter teardown, so that the pool does not stop itself
    # half-way through with an ignored exception on stderr
    if _POOL is not None and _POOL[0] == os.getpid():
        _POOL[2].terminate()


def oracle_sweep(ideal: SquarefreeIdeal, threads: int = 1) -> tuple[BettiTable, dict[str, int]]:
    """Multigraded Betti table of S/J by the reduced restriction sweep, with its work counts.

    Restrictions that are not unions of generator supports have a cone
    point and contribute nothing, so the sweep runs exactly over those
    unions (plus the empty restriction, which yields the (0,0,0) entry).
    The counts are the restrictions, the cones among them, the distinct
    cores (every other restriction reuses the homology of a core already
    computed), the faces of the global face list, the boundary ranks
    computed and the rows those ranks reduced after clearing, the last two
    summed over the workers. With threads > 1 a pool first reduces
    one strided share of the unions per worker, then computes one strided
    share of the distinct cores per worker, so no core is computed twice and
    nothing depends on threads; threads < 1 runs serially, as threads = 1
    does.
    """
    threads = max(1, threads)
    gens = [g.support_mask(ideal.n) for g in ideal.gens]
    used = 0
    for g in gens:
        used |= g
    if used.bit_count() > MAX_ORACLE_VARS:
        raise GuardExceeded(f"{used.bit_count()} variables exceed the cap of {MAX_ORACLE_VARS}")
    sigmas = _support_unions(gens)
    faces_by_size = _faces(gens, used)
    table = _domination_table(gens, used)
    run = map if threads == 1 else _worker_pool(threads).map
    # one chunk per worker and phase: strided shares are balanced, and each
    # further task would cost the pool a round trip
    reduced = run(_reduce_chunk, [(ideal.n, sigmas[i::threads], table) for i in range(threads)])
    cones = 0
    credits: dict[int, dict[tuple[int, int], int]] = {}
    for part_cones, part in reduced:
        cones += part_cones
        for core, keys in part.items():
            at = credits.setdefault(core, {})
            for key, mult in keys.items():
                at[key] = at.get(key, 0) + mult
    # the cores' homology is most of the work on non-quadratic ideals, so it
    # is split over the pool too; every worker gets the one set of boundary
    # rows and avoiding masks built here
    cores = sorted(credits, key=lambda c: (c.bit_count(), c))
    held = faces_by_size[: cores[-1].bit_count() + 1]  # no core holds a larger face
    shared = (_boundary_rows(held), _avoiding(held, used))
    homologies = run(_core_homology, [(cores[i::threads], *shared) for i in range(threads)])
    # every merge is a sum, so scheduling order cannot change the result
    counts: dict[tuple[int, int, int], int] = {}
    rank_calls = reduced = 0
    for part, part_calls, part_rows in homologies:
        rank_calls += part_calls
        reduced += part_rows
        for core, dims in part:
            for (size, u), mult in credits[core].items():
                for d, h in dims.items():
                    key = (size - d - 1, u, size - u)
                    counts[key] = counts.get(key, 0) + h * mult
    work = {
        "restrictions": len(sigmas),
        "cones": cones,
        "cores": len(cores),
        "faces": sum(map(len, faces_by_size)),
        "rank_calls": rank_calls,
        "rows": reduced,
    }
    return BettiTable.from_dict(ideal.n, counts), work


def betti_table_oracle(ideal: SquarefreeIdeal, threads: int = 1) -> BettiTable:
    """Multigraded Betti table of S/J computed by the reduced restriction sweep (see `oracle_sweep`)."""
    return oracle_sweep(ideal, threads)[0]


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
