"""Betti tables of squarefree ideals via restricted homology over F2.

This is the independent cross-check for every closed formula in the
library. By Hochster's formula, beta_{i,sigma}(S/J) is the reduced homology
of the Stanley-Reisner complex restricted to sigma, in degree |sigma|-i-1;
only unions sigma of generator supports can contribute. The sweep never
reads the formulas or the recursion.

The sweep first renumbers the used variables 0..u-1 in their order, so a
subset of them is an index below 2^u. The unions of supports are then one
bitset over those 2^u subsets, grown by one shift-and-or per vertex of each
generator. Most unions are cones, and the sweep finds them all before it
reduces any, as one more bitset over the 2^u subsets. A complex's core,
what is left once no vertex is dominated (below), is unique up to
isomorphism (Barmak and Minian), so whether a subset strong-collapses to a
point does not depend on which dominated vertex goes first: s does iff it
is no union, or some vertex v dominated in s leaves an s - v that does.
From one mask per vertex v, the subsets in which v is dominated, the
cones grow from the non-unions, one shift, AND and OR per vertex and
round, until a round adds none: two or three rounds, the last adding
none, on the ideals measured. The pool's tasks get the other unions as
one 0/1 byte per subset and find their own by memchr, each task one
contiguous range of subsets whose unions hold an equal share of the
vertices; a phase has no more tasks than usable CPUs, and the pool one
worker per task. For each of those unions the sweep works on a smaller
complex with the same homology:

- It deletes dominated vertices until none is left. Vertex v is dominated
  by w when every facet through v also holds w; deleting v is then a strong
  collapse, which keeps the homotopy type (Barmak and Minian, *Strong
  homotopy types, nerves and collapses*, Discrete Comput. Geom. 2012). On
  the generators, v is dominated by w iff, for every generator g through w
  inside sigma, (g - w) + v contains a generator. For an edge ideal that is
  Engström's rule: v and w are not adjacent and N(w) lies in N(v)
  (*Complexes of directed trees and independence complexes*, Discrete
  Math. 2009). Which generators through w lie inside sigma depends only on
  sigma & reach(w), the union of those generators, so each worker keeps,
  per vertex w and per such key, what w dominates.
- No cone gets here. One that did would keep a cone point, a vertex in no
  generator inside it, which dominates every other vertex, and come out as
  a one-point core with zero homology.
- Otherwise the homology of what is left, the core, is computed once per
  core mask by bit-packed Gaussian elimination, and credited at the
  original sigma's degrees.
- Each cores task builds a face size's boundary rows, over the positions
  of the global faces one size smaller, the first time one of its cores
  takes a rank at that size, and keeps them for its other cores. A face
  inside a core has its whole boundary inside it, so every core picks its
  faces by position and eliminates these rows.
- Ranks go from the top face size down with clearing (Chen and Kerber,
  *Persistent homology computation with a twist*, EuroCG 2011): a face
  that leads a reduced row one size up has a row that reduces to zero, so
  it is skipped.

The plain sweep, which computes every restriction in full, is kept as the
reference `sweep_betti_table` in tests/conftest.py, next to the set closure
of the unions (`set_support_unions`) and the memo-free reduction
(`plain_core`, `plain_reduce`).
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
# oracle_sweep and restricted_homology: bits of the dense boundary rows,
# sum over s of |F_s| * |F_(s-1)|; 2^30 bits (128 MiB) admit the 16-vertex
# full simplex
MAX_ROW_BITS = 1 << 30


class GuardExceeded(RuntimeError):
    """A brute-force sweep would exceed one of its size guards."""


class HypothesisViolation(ValueError):
    """The code falls outside the hypotheses of the regularity characterization."""


def _check_row_bits(faces_by_size) -> None:
    """Refuse a face list whose boundary rows would exceed MAX_ROW_BITS, before they are built."""
    bits = sum(len(upper) * len(lower) for upper, lower in zip(faces_by_size[1:], faces_by_size))
    if bits > MAX_ROW_BITS:
        raise GuardExceeded(f"boundary rows of {bits} bits exceed the cap of {MAX_ROW_BITS}")


def _homology_dims(faces_by_size, rows, picked) -> tuple[dict[int, int], int, int]:
    """Reduced homology dimensions of a subcomplex, the rank calls made and the rows reduced.

    Dimensions are keyed by chain degree (face size minus one). The
    complex's faces are faces_by_size; picked[s] is a bitmask over the
    positions of the subcomplex's s-faces, whose boundaries lie in the
    subcomplex. rows[s] holds each s-face's boundary as a bitmask over the
    positions of the (s-1)-faces: it is built the first time a rank needs
    size s, and kept in rows, which the caller owns, for the next subcomplex
    of the same complex. Ranks are taken over F2 from the top size down,
    with clearing: an s-face that is the leading face (msb) of a reduced
    (s+1)-row leads a boundary, which is a cycle, so its own row is a sum of
    the rows at lower positions. Dropping such rows, highest first, never
    changes the span, so they are skipped and the rank stays.

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
            level = rows.get(s)
            if level is None:
                index = {f: i for i, f in enumerate(faces_by_size[s - 1])}
                level = rows[s] = []
                for f in faces_by_size[s]:
                    row = 0
                    m = f
                    while m:
                        b = m & -m
                        row |= 1 << index[f ^ b]
                        m ^= b
                    level.append(row)
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


_FLIP = str.maketrans("01", "10")


def _avoiding(faces_by_size, used: int) -> dict[int, list[int]]:
    """Per vertex bit v of used, per face size, a bitmask over the positions of the faces without v.

    A size's faces are written as one string of binary digits, a fixed
    width per face and the last face first, with each digit flipped; the
    digits of v are then every width-th character, highest position first.
    """
    width = used.bit_length()
    digits = f"{{:0{width}b}}".format
    out: dict[int, list[int]] = {v: [] for v in _bits(used)}
    for fs in faces_by_size:
        flipped = "".join(map(digits, reversed(fs))).translate(_FLIP)
        for v, masks in out.items():
            masks.append(int(flipped[width - v.bit_length() :: width] or "0", 2))
    return out


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
    # face + b contains a generator g through b iff face holds rest = g - b;
    # the one-vertex rests of b go into one neighbour mask, and an empty
    # rest (b is a generator) blocks every face
    neighbours = [0] * len(vertices)
    rests: list[list[int]] = [[] for _ in vertices]
    for i, b in enumerate(vertices):
        for g in gens:
            if g & b and g & ~within == 0:
                rest = g ^ b
                if rest and rest & (rest - 1) == 0:
                    neighbours[i] |= rest
                else:
                    rests[i].append(rest)
    by_size: list[list[int]] = [[] for _ in range(len(vertices) + 1)]
    by_size[0].append(0)
    frontier = [(0, 0)]  # (face, index of the first vertex it may still take)
    for size in range(1, len(by_size)):
        grown = []
        for face, start in frontier:
            for i in range(start, len(vertices)):
                if face & neighbours[i] or rests[i] and any(r & ~face == 0 for r in rests[i]):
                    continue
                grown.append((face | vertices[i], i + 1))
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
        kind, idx = name[:1], name[1:]
        if kind not in ("x", "y") or not idx.isdecimal() or not 1 <= int(idx) <= n:
            raise ValueError(f"bad variable {name!r} for n={n}")
        mask |= 1 << (int(idx) - 1 + (n if kind == "y" else 0))
    return mask


def restricted_homology(ideal: SquarefreeIdeal, sigma) -> HomologyResult:
    """Reduced homology of the Stanley-Reisner complex restricted to the variables in sigma.

    sigma is an int mask in the 2n-variable layout, or an iterable of
    variable names.
    """
    mask = sigma if isinstance(sigma, int) else variable_mask(ideal.n, sigma)
    if mask < 0 or mask >> 2 * ideal.n:
        raise ValueError(f"mask {mask:#x} is no set of the {2 * ideal.n} variables for n={ideal.n}")
    if mask.bit_count() > MAX_HOMOLOGY_VERTICES:
        raise GuardExceeded(f"{mask.bit_count()} vertices exceed the cap of {MAX_HOMOLOGY_VERTICES}")
    gens = [g.support_mask(ideal.n) for g in ideal.gens]
    faces_by_size = _faces(gens, mask)
    _check_row_bits(faces_by_size)
    dims = _homology_dims(faces_by_size, {}, [(1 << len(fs)) - 1 for fs in faces_by_size])[0]
    return HomologyResult(tuple(sorted(dims.items())))


def _renumbered(mask: int, places: list[int]) -> int:
    """mask over the one-bit masks in places, as a mask over their positions 0..len(places)-1."""
    out = 0
    for i, b in enumerate(places):
        if mask & b:
            out |= 1 << i
    return out


def _holding(u: int) -> list[int]:
    """Per vertex i < u, the subsets of 0..u-1 that hold i, as a bitset over the 2^u subsets.

    Vertex i alternates 2^i subsets without it and 2^i with it, so each mask
    is one period doubled until it spans the 2^u subsets.
    """
    full = 1 << u
    masks = []
    for i in range(u):
        v = 1 << i
        held = ((1 << v) - 1) << v  # one period, 2v subsets long
        width = 2 * v
        while width < full:
            held |= held << width
            width *= 2
        masks.append(held)
    return masks


def _support_unions(gens, holding: list[int]) -> int:
    """The unions of generator supports on vertices 0..u-1, as a bitset over the 2^u subsets: bit s is set iff s is one.

    Each generator g maps the unions so far to their images s | g, one
    vertex v of g at a time: a subset that lacks v moves up by v (v + s =
    v | s), one that holds v stays. The closure gains the images. holding
    is `_holding(u)`.
    """
    closure = 1  # the empty union
    for g in gens:
        image = closure
        for v in _bits(g):
            stay = image & holding[v.bit_length() - 1]
            image = stay | (image ^ stay) << v
        closure |= image
    return closure


def _cone_subsets(closure: int, table, holding: list[int]) -> int:
    """The subsets whose complex strong-collapses to a point, as a bitset over the 2^u subsets.

    A complex's core is unique up to isomorphism (Barmak and Minian), so
    whether subset s collapses to a point does not depend on which
    dominated vertex goes first: s does iff it is no union (a vertex in no
    generator inside s is a cone point), or some vertex v dominated in s
    leaves an s - v that does. D_v, the subsets in which v is dominated,
    is the OR over w of the subsets that hold v and w but no generator g
    through w whose B lacks v (see `_domination_table`); a subset that
    holds w holds g iff it holds every vertex of g - w. The cones grow
    from the non-unions by C |= D_v & (C << v), vertex by vertex, until a
    round adds none: the shift moves a subset t without v up to t | v, and
    one with v to a subset without v, which D_v drops. closure is
    `_support_unions`, table `_domination_table` and holding `_holding`.
    Each big mask is one per vertex or one per distinct set of pairs
    through w, never one per generator.
    """
    u = len(holding)
    dominated = [0] * u  # per vertex v, D_v
    for w, (_, pairs) in table.items():
        held = holding[w.bit_length() - 1]
        # w dominates v in a union only if v lies in some B: a subset that
        # holds w but no generator through w is no union, and a cone already
        candidates = 0
        for _, b in pairs:
            candidates |= b
        candidates &= ~w
        # per candidate v, the pairs whose B lacks v, as a mask of pair
        # indices; per such mask, the subsets holding w and none of those
        # pairs' generators
        lacking = {v: sum(1 << k for k, (_, b) in enumerate(pairs) if not b & v) for v in _bits(candidates)}
        masks = dict.fromkeys(lacking.values(), held)
        for k, (g, _) in enumerate(pairs):
            users = [key for key in masks if key >> k & 1]
            if users:
                inside = held
                for x in _bits(g ^ w):
                    inside &= holding[x.bit_length() - 1]
                outside = held ^ inside
                for key in users:
                    masks[key] &= outside
        for v, key in lacking.items():
            i = v.bit_length() - 1
            dominated[i] |= masks[key]
    dominated = [d & h for d, h in zip(dominated, holding)]
    cones = ((1 << (1 << u)) - 1) ^ closure
    while True:
        grown = cones
        for i, d in enumerate(dominated):
            if d:
                grown |= d & (grown << (1 << i))
        if grown == cones:
            return cones
        cones = grown


_FLAGS = bytes.maketrans(b"01", b"\0\1")  # a bitset's binary digits as 0/1 bytes


def _shares(closure: int, parts: int, holding: list[int]) -> list[int]:
    """Cut points splitting the subsets into parts ranges whose unions hold about as many vertices.

    Range i is cuts[i]..cuts[i+1]-1. Reducing a union visits its vertices,
    and the higher subsets hold more of them, so a share is weighed by its
    unions' vertices, not by their count. Contiguous ranges let each worker
    pick its unions out of its own slice of the flags; split by a residue
    of the subset, the shares could be 2:1 apart. Each cut is the last
    point whose lower subsets weigh at most its share of the total, found
    from the highest vertex down: the next 2^k subsets either fit whole, or
    the cut lies among them. Within such a block a subset holds the
    block's fixed high vertices and the low vertices j < k of its offset,
    whose periodic pattern is the start of holding[j] (`_holding`).
    """
    end = closure.bit_length()
    if parts == 1:
        return [0, end]
    total = sum((closure & held).bit_count() for held in holding)
    cuts = [0]
    for i in range(1, parts):
        target = total * i // parts
        point = weight = 0
        window = closure  # the subsets from point on, shifted down to 0
        for k in reversed(range(len(holding))):
            low = window & ((1 << (1 << k)) - 1)
            block = point.bit_count() * low.bit_count() + sum((low & holding[j]).bit_count() for j in range(k))
            if weight + block <= target:
                weight += block
                point += 1 << k
                window >>= 1 << k
            else:
                window = low
        cuts.append(min(point, end))
    cuts.append(end)
    return cuts


def _domination_table(gens, used: int) -> dict[int, tuple[int, list[tuple[int, int]]]]:
    """Per vertex bit w, its reach and the pairs (g, B) for the generators g through w.

    The reach is the union of the generators through w. B holds the
    vertices v for which (g - w) + v contains a generator. v is dominated
    by w inside sigma iff v lies in B for every such g inside sigma. For an
    edge g = {w, x}, B is the neighbourhood of x.
    """
    table = {}
    for w in _bits(used):
        reach = 0
        pairs = []
        for g in gens:
            if g & w:
                reach |= g
                rest = g ^ w
                # rest is a face, as the generators are minimal, so a
                # generator h lies inside rest + v iff v is all h has beyond rest
                dominated = 0
                for h in gens:
                    extra = h & ~rest
                    if extra & (extra - 1) == 0:
                        dominated |= extra
                pairs.append((g, dominated))
        table[w] = (reach, pairs)
    return table


def _core(sigma: int, memo) -> int:
    """The vertices left after deleting dominated vertices from sigma.

    Whatever w dominates stays dominated by w after other deletions, so all
    of it goes at once. Passes go up from the lowest vertex and repeat until
    one deletes nothing. What w dominates is sigma and a mask that depends
    on sigma only through key = sigma & reach(w), which tells the
    generators through w inside sigma. memo[w] is (reach(w), the pairs of w
    in the domination table, a dict from key to that mask without w). The
    sweep passes no cone; in one, a w with no generator inside sigma would
    dominate every other vertex, and sigma would shrink to w alone, a core
    with zero homology.
    """
    changed = True
    while changed:
        changed = False
        todo = sigma
        while todo:
            w = todo & -todo
            todo ^= w
            reach, pairs, seen = memo[w]
            key = sigma & reach
            dominated = seen.get(key)
            if dominated is None:
                dominated = ~w
                for g, b in pairs:
                    if g & ~key == 0:
                        dominated &= b
                seen[key] = dominated
            if dominated & sigma:
                sigma &= ~dominated
                todo &= sigma
                changed = True
    return sigma


def _reduce_chunk(args) -> dict[int, dict[tuple[int, int], int]]:
    """Per core, how many restrictions of each (|sigma|, x-degree) reduce to it.

    The chunk's unions are the subsets start + i whose flags[i] is 1; the
    x variables are the vertices in xmask. The domination memo lives for
    the one chunk.
    """
    xmask, start, flags, table = args
    memo = {w: (reach, pairs, {}) for w, (reach, pairs) in table.items()}
    credits: dict[int, dict[tuple[int, int], int]] = {}
    i = flags.find(1)  # a memchr skips the subsets that are no union here
    while i >= 0:
        sigma = start + i
        i = flags.find(1, i + 1)
        core = _core(sigma, memo)
        key = (sigma.bit_count(), (sigma & xmask).bit_count())
        at = credits.setdefault(core, {})
        at[key] = at.get(key, 0) + 1
    return credits


def _core_homology(args) -> tuple[list[tuple[int, dict[int, int]]], int, int]:
    """Reduced homology of each core, with the rank calls made and rows reduced.

    faces_by_size are the faces on the used vertices. A face lies in the
    core iff it avoids every used vertex outside it, so the core's faces
    are picked by and-ing the avoiding masks of those vertices, size by
    size. The cores share one set of boundary rows, each size built when a
    core first needs it.
    """
    cores, faces_by_size, used = args
    avoiding = _avoiding(faces_by_size, used)
    rows: dict[int, list[int]] = {}
    everything = [(1 << len(level)) - 1 for level in faces_by_size]
    out = []
    rank_calls = reduced = 0
    for core in cores:
        picked = everything[: core.bit_count() + 1]
        for v, masks in avoiding.items():
            if not v & core:
                picked = [p & m for p, m in zip(picked, masks)]
        dims, calls, part = _homology_dims(faces_by_size, rows, picked)
        out.append((core, dims))
        rank_calls += calls
        reduced += part
    return out, rank_calls, reduced


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of the machine's where the platform cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_POOL = None  # (pid, workers, pool) of the last parallel sweep in this process


def _worker_pool(workers: int):
    """A pool of `workers` processes, kept for the next parallel sweep of this process.

    Starting and stopping a pool costs about as much as a whole mid-sized
    sweep, so one pool serves every call with the same worker count; a new
    count replaces it. A forked child starts its own, as the parent's pool
    is no use there.
    """
    global _POOL
    pid = os.getpid()
    if _POOL is not None and _POOL[:2] == (pid, workers):
        return _POOL[2]
    if _POOL is not None and _POOL[0] == pid:
        _POOL[2].terminate()
    _POOL = (pid, workers, multiprocessing.Pool(workers))
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
    summed over the workers. The cones are found for all unions at once
    (`_cone_subsets`) before any union is reduced, and only the other unions
    are reduced. With threads > 1 a pool first reduces them, one contiguous
    range of subsets with an equal share of their vertices per task, then
    computes one strided share of the distinct cores per task, each task
    building the boundary rows its cores need from the faces, so no core is
    computed twice and nothing depends on threads. Each phase has one task
    per thread, or per usable CPU where there are fewer, and the pool has
    one worker per task; with one usable CPU the sweep runs serially, as it
    does for threads < 1 and threads = 1.
    """
    threads = max(1, threads)
    # each phase gets one share per thread, but no more shares than usable
    # CPUs: further shares only time-slice, and each costs its own memo,
    # pickling and cache refills; a worker beyond the shares would get none
    shares = min(threads, _usable_cpus())
    gens = [g.support_mask(ideal.n) for g in ideal.gens]
    used = 0
    for g in gens:
        used |= g
    if used.bit_count() > MAX_ORACLE_VARS:
        raise GuardExceeded(f"{used.bit_count()} variables exceed the cap of {MAX_ORACLE_VARS}")
    # from here on the used variables are renumbered 0..u-1 in their order,
    # which keeps every order below and makes each union a subset index
    places = _bits(used)
    gens = [_renumbered(g, places) for g in gens]
    xmask = _renumbered((1 << ideal.n) - 1, places)
    used = (1 << len(places)) - 1
    holding = _holding(len(places))
    closure = _support_unions(gens, holding)
    table = _domination_table(gens, used)
    # only the unions that are no cones are reduced
    kept = closure ^ (closure & _cone_subsets(closure, table, holding))
    # both maps are lazy, and the pool's imap starts its tasks at once, so
    # the faces are listed while the pool reduces
    run = map if shares == 1 else _worker_pool(shares).imap
    # one task per share and phase, as each further task would cost the pool
    # a round trip; a worker gets its range's flags, 0 or 1 per subset, and
    # picks out its own unions
    flags = format(kept, "b")[::-1].encode().translate(_FLAGS)
    cuts = _shares(kept, shares, holding)
    reduced = run(_reduce_chunk, [(xmask, a, flags[a:b], table) for a, b in zip(cuts, cuts[1:])])
    faces_by_size = _faces(gens, used)
    credits: dict[int, dict[tuple[int, int], int]] = {}
    for part in reduced:
        for core, keys in part.items():
            at = credits.setdefault(core, {})
            for key, mult in keys.items():
                at[key] = at.get(key, 0) + mult
    # the cores' homology is most of the work on non-quadratic ideals, so it
    # is split over the pool too; each task gets the faces and builds the
    # avoiding masks and boundary rows it needs
    cores = sorted(credits, key=lambda c: (c.bit_count(), c))
    held = faces_by_size[: cores[-1].bit_count() + 1]  # no core holds a larger face
    _check_row_bits(held)
    homologies = run(_core_homology, [(cores[i::shares], held, used) for i in range(shares)])
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
        "restrictions": closure.bit_count(),
        "cones": closure.bit_count() - kept.bit_count(),
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
