"""Betti tables of squarefree ideals via restricted homology over F2.

This is the independent cross-check for every closed formula in the
library. By Hochster's formula, beta_{i,sigma}(S/J) is the reduced homology
of the Stanley-Reisner complex restricted to sigma, in degree |sigma|-i-1;
only unions sigma of generator supports can contribute. The sweep never
reads the formulas or the recursion.

The sweep first renumbers the used variables 0..u-1 in their order, so a
subset of them is an index below 2^u, and works on bitsets over those 2^u
subsets; it never reduces a union on its own:

- The unions of supports are one bitset, grown by one shift-and-or per
  vertex of each generator.
- Vertex v is dominated by w when every facet through v also holds w;
  deleting v is then a strong collapse, which keeps the homotopy type
  (Barmak and Minian, *Strong homotopy types, nerves and collapses*,
  Discrete Comput. Geom. 2012). On the generators, v is dominated by w iff,
  for every generator g through w inside sigma, (g - w) + v contains a
  generator. For an edge ideal that is Engström's rule: v and w are not
  adjacent and N(w) lies in N(v) (*Complexes of directed trees and
  independence complexes*, Discrete Math. 2009). The test reads g only
  through g - w, so the set B of the v that pass it is found once per
  distinct g - w. One bitset per vertex v, D_v, holds the unions in which
  v is dominated: per w, one mask per g holds the subsets that hold w but
  not g, and is ANDed into each v that its B lacks.
- The faces are one more bitset, the subsets that hold no generator. They
  are counted per size and checked against `MAX_ROW_BITS` before any is
  listed (`_face_levels`); each size's faces are then listed in
  increasing order. `restricted_homology` takes the same path on sigma's
  vertices, renumbered 0..u-1.
- The cores are the unions in which no vertex is dominated. A core that
  holds no 2-face (no face of two vertices, that is no edge) is a point
  core: its complex is its vertices as points, so reduced H_0 is their
  number minus one, and the empty core and the lone vertex of a degree-1
  generator have just H_-1 = 1. The cores that hold a 2-face are those
  among the 2-faces grown to all their supersets, one shift-and-or per
  vertex, so the point cores are one bitset, credited per size through
  the size masks with no face listed and no rank. For a quadratic ideal
  whose complement graph is chordal (regularity 2, by Fröberg, *On
  Stanley-Reisner rings*, 1990), as for every inductively pierced code,
  strong collapse leaves only point cores.
- Excision shrinks the other cores' complexes first. If a subcomplex A
  of a complex K is acyclic, the long exact sequence of the pair gives
  H~_i(K) = H_i(K, A) (Hatcher, *Algebraic Topology*, 2002, Sec. 2.1).
  For A = K - w, the faces without a vertex w, the chains of the pair are
  the faces through w, and a face's boundary keeps only its faces through
  w: that is the link of w, one degree up. A core's vertices are walked
  lowest first, and w joins a set T when the link of T in the complex of
  core - w is acyclic; the core's homology is then that of its faces
  through T. Both tests read one bit per subset. While T is empty, core -
  w must strong-collapse onto a non-union, which has a cone point (a
  vertex in no generator inside it): one bitset, the non-unions grown by
  `_grow` (below). Once T is not empty, the complex of core - w must have
  a cone point outside T, which makes the link of T a cone: one bitset
  per vertex holds the subsets in which it is a cone point. These masks
  are built only where some core holds a 2-face.
- The homology of every other core is computed once, by bit-packed
  Gaussian elimination. Each cores task builds a face size's boundary
  rows, over the positions of the global faces one size smaller, the
  first time one of its cores takes a rank at that size, and keeps them
  for its other cores. A face inside a core has its whole boundary inside
  it, so every core picks its faces through T by position and eliminates
  these rows, each cut to the picked faces one size smaller; with T empty
  the cut drops nothing. Ranks go from the top face size down with
  clearing (Chen and Kerber, *Persistent homology computation with a
  twist*, EuroCG 2011): a face that leads a reduced row one size up has a
  row that reduces to zero, so it is skipped.
- A complex's core is unique up to isomorphism (Barmak and Minian), so the
  cores that a union strong-collapses onto all have its homology. The cores
  are grouped by homology, and each group grows to the unions that
  collapse onto it by C |= D_v & (C << v), one shift, AND and OR per vertex
  and round, until a round adds none. Every union lands in the group of its
  own homology, or in none if it collapses to a point (a cone). Degree
  masks, the subsets of each size and each x-degree, count a group's
  unions per multidegree, and the group's homology is credited there.

The plain sweep, which computes every restriction in full, is kept as the
reference `sweep_betti_table` in tests/conftest.py, next to the set closure
of the unions (`set_support_unions`), the memo-free core of one union
(`plain_core`) and the domination table and D_v built pair by pair
(`pairwise_domination_table`, `pairwise_dominated`).
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
# betti_table_oracle: distinct variables in the generators; this also bounds the
# restrictions swept, as 20 variables have at most 2^20 unions of supports.
# restricted_homology: vertices of one restriction. Either way each bitset
# over the 2^u subsets is at most 128 KiB
MAX_ORACLE_VARS = 20
# oracle_sweep and restricted_homology: bits of the dense boundary rows,
# sum over s of |F_s| * |F_(s-1)|; 2^30 bits (128 MiB) admit the 16-vertex
# full simplex
MAX_ROW_BITS = 1 << 30


class GuardExceeded(RuntimeError):
    """A brute-force sweep would exceed one of its size guards."""


class HypothesisViolation(ValueError):
    """The code falls outside the hypotheses of the regularity characterization."""


def _check_row_bits(counts) -> None:
    """Refuse faces whose boundary rows would exceed MAX_ROW_BITS, before they are built; counts[s] is the s-faces'."""
    bits = sum(upper * lower for upper, lower in zip(counts[1:], counts))
    if bits > MAX_ROW_BITS:
        raise GuardExceeded(f"boundary rows of {bits} bits exceed the cap of {MAX_ROW_BITS}")


def _homology_dims(faces_by_size, rows, picked) -> tuple[dict[int, int], int, int]:
    """Homology dimensions of a chain complex of picked faces, the rank calls made and the rows reduced.

    Dimensions are keyed by chain degree (face size minus one). The
    complex's faces are faces_by_size; picked[s] is a bitmask over the
    positions of the chain complex's s-faces, and an s-face's boundary keeps
    only its picked (s-1)-faces. On all the faces of a subcomplex that cut
    drops nothing, and the result is the subcomplex's reduced homology; on
    its faces through a set T it is the homology of the quotient by the
    faces without T (see `_excised`). rows[s] holds each s-face's
    boundary as a bitmask over the positions of the (s-1)-faces: it is built
    the first time a rank needs size s, and kept in rows, which the caller
    owns, for the next chain complex of the same complex. Ranks are taken
    over F2 from the top size down, with clearing: an s-face that is the
    leading face (msb) of a reduced (s+1)-row leads a boundary, which is a
    cycle, as the boundary of a boundary is zero on the quotient too, so its
    own row is a sum of the rows at lower positions. Dropping such rows,
    highest first, never changes the span, so they are skipped and the rank
    stays.

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
        low = picked[s - 1]
        if picked[s] and low:
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
                row = level[b.bit_length() - 1] & low
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


def _avoiding(faces: list[int], used: int) -> list[tuple[int, int]]:
    """Per vertex bit v of used, lowest first, the pair (v, bitmask over the positions of the faces without v).

    The faces are written as one string of binary digits, a fixed width per
    face and the last face first, with each digit flipped; the digits of v
    are then every width-th character, highest position first.
    """
    width = used.bit_length()
    digits = f"{{:0{width}b}}".format
    flipped = "".join(map(digits, reversed(faces))).translate(_FLIP)
    return [(v, int(flipped[width - v.bit_length() :: width] or "0", 2)) for v in _bits(used)]


def _bits(mask: int) -> list[int]:
    """The set bits of a mask, lowest first, each as a one-bit mask."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b)
        mask ^= b
    return out


def variable_mask(n: int, names) -> int:
    """Mask in the 2n-variable bit space for names like "x3" or "y5"."""
    mask = 0
    for name in names:
        kind, idx = name[:1], name[1:]
        if kind not in ("x", "y") or not idx.isdecimal() or not 1 <= int(idx) <= n:
            raise ValueError(f"bad variable {name!r} for n={n}")
        mask |= 1 << (int(idx) - 1 + (n if kind == "y" else 0))
    return mask


def restricted_homology(ideal: SquarefreeIdeal, sigma) -> tuple[tuple[int, int], ...]:
    """Reduced homology of the Stanley-Reisner complex restricted to the variables in sigma.

    sigma is an int mask in the 2n-variable layout, or an iterable of
    variable names. The result is the nonzero F2 dimensions as sorted
    (degree, dimension) pairs.
    """
    mask = sigma if isinstance(sigma, int) else variable_mask(ideal.n, sigma)
    if mask < 0 or mask >> 2 * ideal.n:
        raise ValueError(f"mask {mask:#x} is no set of the {2 * ideal.n} variables for n={ideal.n}")
    if mask.bit_count() > MAX_ORACLE_VARS:
        raise GuardExceeded(f"{mask.bit_count()} vertices exceed the cap of {MAX_ORACLE_VARS}")
    # sigma's vertices renumbered 0..u-1, as in the sweep; a generator that
    # leaves sigma bounds no face of the restriction
    places = _bits(mask)
    gens = [g.support_mask(ideal.n) for g in ideal.gens]
    gens = [_renumbered(g, places) for g in gens if g & ~mask == 0]
    u = len(places)
    faces_by_size = [_members(level) for level in _face_levels(gens, _holding(u), _sizes(u))[1]]
    dims = _homology_dims(faces_by_size, {}, [(1 << len(fs)) - 1 for fs in faces_by_size])[0]
    return tuple(sorted(dims.items()))


def _renumbered(mask: int, places: list[int]) -> int:
    """mask over the one-bit masks in places, as a mask over their positions 0..len(places)-1."""
    out = 0
    for i, b in enumerate(places):
        if mask & b:
            out |= 1 << i
    return out


def _tiled(period: int, width: int, u: int) -> int:
    """A bitset over width subsets, width a power of two, repeated across the 2^u subsets."""
    while width < 1 << u:
        period |= period << width
        width *= 2
    return period


def _holding(u: int) -> list[int]:
    """Per vertex i < u, the subsets of 0..u-1 that hold i, as a bitset over the 2^u subsets.

    Vertex i alternates 2^i subsets without it and 2^i with it, so each mask
    is that period of 2^(i+1) subsets, tiled.
    """
    return [_tiled(((1 << (1 << i)) - 1) << (1 << i), 2 << i, u) for i in range(u)]


def _sizes(u: int) -> list[int]:
    """Per k <= u, the subsets of 0..u-1 with k elements, as a bitset over the 2^u subsets.

    The subsets of 0..i are those of 0..i-1, then the same again with i
    added, 2^i places higher and one element larger.
    """
    masks = [1]
    for i in range(u):
        masks = [low | high << (1 << i) for low, high in zip(masks + [0], [0] + masks)]
    return masks


def _members(mask: int) -> list[int]:
    """The set bits of a bitset, lowest first, each as its position: a memchr skips the clear ones.

    The binary digits, lowest first, are one string, and each find jumps to
    the next "1", however many zeros lie between.
    """
    digits = format(mask, "b")[::-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _face_levels(gens, holding: list[int], sizes: list[int]) -> tuple[int, list[int]]:
    """The faces on vertices 0..u-1 as a bitset over the 2^u subsets, and its part in each mask of sizes.

    A non-face holds a generator, that is each of its vertices. The faces
    in each mask of sizes are counted, and `_check_row_bits` refuses them,
    before any is listed. holding is `_holding(u)`, and sizes `_sizes(u)`
    or a prefix of it.
    """
    faces = (1 << (1 << len(holding))) - 1
    for g in gens:
        inside = faces
        for v in _bits(g):
            inside &= holding[v.bit_length() - 1]
        faces ^= inside
    levels = [faces & m for m in sizes]
    _check_row_bits([level.bit_count() for level in levels])
    return faces, levels


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


def _dominated(table, holding: list[int]) -> list[int]:
    """Per vertex v, D_v: the subsets in which v is dominated, as a bitset over the 2^u subsets.

    D_v is the OR over w of the subsets that hold v and w but no generator
    g through w whose B lacks v (see `_domination_table`); a subset that
    holds w holds g iff it holds every vertex of g - w. On the unions this
    is exact; off them it may miss a domination, never invent one. table
    is `_domination_table` and holding `_holding`. Per w, the subsets that
    hold w but not g are one mask per g, and each candidate v ANDs those of
    the g whose B lacks it; those that hold v are ANDed in after the OR.
    """
    dominated = [0] * len(holding)
    for w, pairs in table.items():
        held = holding[w.bit_length() - 1]
        # w dominates v in a union only if v lies in some B: a subset that
        # holds w but no generator through w is no union
        candidates = 0
        for _, b in pairs:
            candidates |= b
        candidates &= ~w
        outside = []
        for g, b in pairs:
            if candidates & ~b:
                inside = held
                for x in _bits(g ^ w):
                    inside &= holding[x.bit_length() - 1]
                outside.append((b, held ^ inside))
        for v in _bits(candidates):
            mask = held
            for b, out in outside:
                if not b & v:
                    mask &= out
            dominated[v.bit_length() - 1] |= mask
    return [d & h for d, h in zip(dominated, holding)]


def _grow(seeds: int, dominated: list[int]) -> int:
    """The subsets that strong-collapse onto one of seeds, as a bitset over the 2^u subsets.

    A subset s is in iff it is a seed, or some vertex v dominated in s
    leaves an s - v that is in: C |= D_v & (C << v), vertex by vertex, until
    a round adds none. The shift moves a subset t without v up to t | v, and
    one with v to a subset without v, which D_v drops. dominated is
    `_dominated`.
    """
    while True:
        grown = seeds
        for i, d in enumerate(dominated):
            if d:
                grown |= d & (grown << (1 << i))
        if grown == seeds:
            return seeds
        seeds = grown


def _domination_table(gens, used: int) -> dict[int, list[tuple[int, int]]]:
    """Per vertex bit w of used, the pairs (g, B) for the generators g through w, in the order of gens.

    B holds the vertices v for which (g - w) + v contains a generator. v is
    dominated by w inside sigma iff v lies in B for every such g inside
    sigma. For an edge g = {w, x}, B is the neighbourhood of x. B reads g
    only through g - w, so one scan of the generators per distinct g - w
    serves every pair with it: for a quadratic ideal g - w is one vertex,
    so there are at most u scans, against two pairs per generator.
    """
    table = {w: [] for w in _bits(used)}
    found: dict[int, int] = {}
    for g in gens:
        for w in _bits(g):
            rest = g ^ w
            dominated = found.get(rest)
            if dominated is None:
                # rest is a face, as the generators are minimal, so a
                # generator h lies inside rest + v iff v is all h has beyond rest
                dominated = 0
                for h in gens:
                    extra = h & ~rest
                    if extra & (extra - 1) == 0:
                        dominated |= extra
                found[rest] = dominated
            table[w].append((g, dominated))
    return table


def _excision_masks(gens, holding: list[int], closure: int, dominated: list[int]) -> tuple[bytes, list[bytes]]:
    """The bitsets over the 2^u subsets that `_excised` reads, as little-endian bytes.

    The first holds the acyclic subsets found by collapse: a non-union has
    a cone point, a vertex in no generator inside it, and the subsets that
    strong-collapse onto a non-union (`_grow`) have its homotopy type. Then,
    per vertex x, the subsets with x as a cone point: those that hold x but
    no generator through x. As bytes, one bit is read in constant time,
    where an int would be shifted whole. holding is `_holding(u)`, closure
    `_support_unions` and dominated `_dominated`.
    """
    every = (1 << (1 << len(holding))) - 1
    points = list(holding)
    for g in gens:
        inside = every
        for v in _bits(g):
            inside &= holding[v.bit_length() - 1]
        for v in _bits(g):
            i = v.bit_length() - 1
            points[i] ^= points[i] & inside
    width = ((1 << len(holding)) + 7) // 8
    acyclic = _grow(every ^ closure, dominated).to_bytes(width, "little")
    return acyclic, [m.to_bytes(width, "little") for m in points]


def _excised(core: int, acyclic: bytes, cone_points: list[bytes]) -> int:
    """The vertices T through whose faces a core's homology is taken, as a mask; 0 for none.

    The core's vertices w are tried lowest first, and w joins T when the
    link of T in the complex of core - w is acyclic (the module docstring
    gives the excision argument): with T empty, when acyclic holds core - w;
    otherwise, when that complex has a cone point outside T. A complex with
    a cone point is acyclic, so none is looked for outside acyclic. acyclic
    and cone_points are `_excision_masks`.
    """
    through = 0
    for w in _bits(core):
        s = core ^ w
        at, bit = s >> 3, 1 << (s & 7)
        if not acyclic[at] & bit:
            continue
        if not through:
            through = w
            continue
        rest = s & ~through
        while rest:
            x = rest & -rest
            if cone_points[x.bit_length() - 1][at] & bit:
                through |= w
                break
            rest ^= x
    return through


def _core_homology(args) -> tuple[list[tuple[int, dict[int, int]]], int, int, int]:
    """Reduced homology of each core, with the rank calls made, the rows reduced and the cores excised.

    The sweep sends only the cores that hold a 2-face; a point core needs no
    rank. faces_by_size are the faces on the used vertices, up to the size
    of the largest of these cores. A face lies in the core iff it avoids
    every used vertex outside it, and holds T (`_excised`) iff it does not
    avoid any vertex of T. So the faces of all sizes are put in one list,
    each size after the smaller ones, and the core's faces through T are
    picked by and-ing, over that list, the avoiding masks of the vertices
    outside the core and the complements of those of T; the result is then
    cut into sizes. A core is excised when its T is not empty. The cores
    share one set of boundary rows, each size built when a core first needs
    it.
    """
    cores, faces_by_size, used, acyclic, cone_points = args
    avoiding = _avoiding([f for level in faces_by_size for f in level], used)
    starts, start = [], 0
    for level in faces_by_size:
        starts.append(start)
        start += len(level)
    everything = [(1 << len(level)) - 1 for level in faces_by_size]
    rows: dict[int, list[int]] = {}
    out = []
    rank_calls = reduced = excised = 0
    for core in cores:
        through = _excised(core, acyclic, cone_points)
        excised += through != 0
        kept = -1
        for v, mask in avoiding:
            if not v & core:
                kept &= mask
            elif v & through:
                kept &= ~mask
        picked = [kept >> start & ones for start, ones in zip(starts, everything[: core.bit_count() + 1])]
        dims, calls, part = _homology_dims(faces_by_size, rows, picked)
        out.append((core, dims))
        rank_calls += calls
        reduced += part
    return out, rank_calls, reduced, excised


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


def _degrees(subsets: int, sizes: list[int], xsizes: list[int]) -> dict[tuple[int, int], int]:
    """How many of the subsets in a bitset over the 2^u subsets have each (size, x-degree).

    sizes is `_sizes(u)`, and xsizes the same per x-degree, the x variables
    being the low vertices; the sizes of one x-degree stop once they have
    found all of its subsets.
    """
    counts = {}
    for a, xs in enumerate(xsizes):
        part = subsets & xs
        left = part.bit_count()
        for k in range(a, len(sizes)):
            if not left:
                break
            found = (part & sizes[k]).bit_count()
            if found:
                counts[k, a] = found
                left -= found
    return counts


def oracle_sweep(ideal: SquarefreeIdeal, threads: int = 1) -> tuple[BettiTable, dict[str, int]]:
    """Multigraded Betti table of S/J by the core sweep, with its work counts.

    Restrictions that are not unions of generator supports have a cone
    point and contribute nothing, so the sweep credits exactly those unions
    (plus the empty restriction, which yields the (0,0,0) entry). It never
    reduces a union on its own. The cores are the unions in which no
    vertex is dominated (`_dominated`); their homology is found once each,
    and the cores are grouped by it. The point cores, which hold no 2-face,
    are grouped by size with no rank; only the others go to
    `_core_homology`, with the masks that excise their vertices
    (`_excision_masks`, built only then). A union strong-collapses onto the
    cores of exactly one group, that of its own homology, or onto a point,
    if it is a cone; each group grows to its unions (`_grow`), which are
    counted per degree and credited with the group's homology.

    The counts are the restrictions, the cones among them, the cores (all
    of them), the point cores among those, the faces of the complex on the
    used variables (every face, of every size, counted on its bitset
    whether or not any face is listed), the boundary ranks computed, the
    rows those ranks reduced and the cores excised, the last three summed
    over the workers. The rows are those of a core's faces through its
    excised vertices T (`_excised`), all of its faces where T is empty,
    less the ones clearing skips; a core excised is one whose T is not
    empty. With threads > 1 a pool
    computes one strided share of the cores that hold a 2-face per task,
    each task building the boundary rows its cores need from the faces;
    nothing depends on threads. There is one task per thread, or per
    usable CPU where there are fewer, and the pool has one worker per task;
    where fewer cores than tasks hold a 2-face, each core is a share of its
    own and no empty share is sent. With one usable CPU the sweep runs
    serially, as it does for threads < 1 and threads = 1. Where every core
    is a point core, no face is listed and no pool is started or used. The
    groups grow in the main process: a task per group would ship the D_v
    and degree masks, which cost more than the growth.
    """
    threads = max(1, threads)
    # one task per thread, but no more tasks than usable CPUs: further tasks
    # only time-slice, and each costs its own rows, pickling and cache
    # refills; a worker beyond the tasks would get none
    tasks = min(threads, _usable_cpus())
    gens = [g.support_mask(ideal.n) for g in ideal.gens]
    used = 0
    for g in gens:
        used |= g
    if used.bit_count() > MAX_ORACLE_VARS:
        raise GuardExceeded(f"{used.bit_count()} variables exceed the cap of {MAX_ORACLE_VARS}")
    # from here on the used variables are renumbered 0..u-1 in their order,
    # which keeps every order below and makes each union a subset index; the
    # x variables come first
    places = _bits(used)
    xcount = (used & ((1 << ideal.n) - 1)).bit_count()
    gens = [_renumbered(g, places) for g in gens]
    u = len(places)
    used = (1 << u) - 1
    holding = _holding(u)
    closure = _support_unions(gens, holding)
    dominated = _dominated(_domination_table(gens, used), holding)
    anywhere = 0
    for d in dominated:
        anywhere |= d
    cores = closure ^ (closure & anywhere)
    sizes = _sizes(u)
    # no core holds a larger face; the empty union is always a core
    top = max(k for k, m in enumerate(sizes) if cores & m)
    faces, levels = _face_levels(gens, holding, sizes[: top + 1])
    # the cores that hold a 2-face: the 2-faces grown to all their supersets
    edged = levels[2] if top >= 2 else 0
    for i, mask in enumerate(holding):
        edged |= (edged << (1 << i)) & mask
    edged &= cores
    points = cores ^ edged
    groups: dict[tuple[tuple[int, int], ...], int] = {}
    for k, m in enumerate(sizes[: top + 1]):
        part = points & m
        if part:
            # the empty core and a lone degree-1 generator's vertex span just
            # the empty face; a larger core holds no such vertex, as any other
            # vertex of a union dominates it, so its k vertices are k points
            key = ((-1, 1),) if k < 2 else ((0, k - 1),)
            groups[key] = groups.get(key, 0) | part
    rank_calls = reduced = excised = 0
    if edged:
        listed = sorted(_members(edged), key=lambda c: (c.bit_count(), c))
        held = [_members(level) for level in levels[: listed[-1].bit_count() + 1]]
        acyclic, cone_points = _excision_masks(gens, holding, closure, dominated)
        # no empty share; the pool keeps its tasks workers, as a new count
        # would restart the kept pool
        shares = [(listed[i::tasks], held, used, acyclic, cone_points) for i in range(min(tasks, len(listed)))]
        run = map if tasks == 1 else _worker_pool(tasks).imap
        for part, part_calls, part_rows, part_excised in run(_core_homology, shares):
            rank_calls += part_calls
            reduced += part_rows
            excised += part_excised
            for core, dims in part:
                key = tuple(sorted(dims.items()))
                groups[key] = groups.get(key, 0) | 1 << core
    xsizes = [_tiled(m, 1 << xcount, u) for m in _sizes(xcount)]
    # a union's core is unique up to isomorphism, so it grows into the group
    # of its own homology only, and each union is counted once
    counts: dict[tuple[int, int, int], int] = {}
    kept = 0
    for dims, members in groups.items():
        grown = _grow(members, dominated)
        kept += grown.bit_count()
        for (size, a), mult in _degrees(grown, sizes, xsizes).items():
            for d, h in dims:
                key = (size - d - 1, a, size - a)
                counts[key] = counts.get(key, 0) + h * mult
    work = {
        "restrictions": closure.bit_count(),
        "cones": closure.bit_count() - kept,
        "cores": cores.bit_count(),
        "point_cores": points.bit_count(),
        "faces": faces.bit_count(),
        "rank_calls": rank_calls,
        "rows": reduced,
        "excised": excised,
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

    reg_of_ideal: int
    pierced_by_definition: bool
    theorem_consistent: bool


def regularity_characterization(code: NeuralCode) -> CharacterizationVerdict:
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
    table = betti_table_oracle(polarized_ideal(cf, code.n))
    reg = regularity(table, of_ideal=True)
    pierced = is_inductively_pierced(code) is not None
    return CharacterizationVerdict(reg, pierced, (reg == 2) == pierced)
