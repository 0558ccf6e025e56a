from itertools import combinations

import pytest

from codebetti import (
    BettiTable,
    EliminationOrdering,
    NeuralCode,
    PiercingOrder,
    PseudoMonomial,
    SquarefreeMonomial,
    binom,
    detect_piercing,
    indices_of,
    mask_of,
    parse_code,
)

WORKED_LINES = ["0", "1", "2", "3", "4", "1 2", "1 4", "2 3", "2 4", "3 5", "1 2 4", "2 3 5"]

# CF of the worked code, in canonical output order
WORKED_CF = ["x1*x3", "x3*x4", "x5*(1-x3)", "x1*x5", "x4*x5"]


def code_of(*wordlists, n=None):
    """Code from index tuples, e.g. code_of((), (1,), (1, 2), n=2)."""
    masks = {mask_of(ws) for ws in wordlists}
    masks.add(0)
    if n is None:
        n = max((m.bit_length() for m in masks), default=0)
    return NeuralCode(n, frozenset(masks))


def sweep_canonical_form(code):
    """Reference canonical form by the 3^n sweep, for cross-checks only.

    Visits the disjoint (sigma, tau) pairs in increasing total degree, so a
    vanishing pair is minimal exactly when no already-kept pair divides it.
    """
    n = code.n
    words = sorted(code.words)
    found: list[PseudoMonomial] = []
    for deg in range(1, n + 1):
        for support_bits in combinations(range(n), deg):
            supp = 0
            for b in support_bits:
                supp |= 1 << b
            sub = supp
            while True:
                sigma = sub
                tau = supp & ~sub
                if not any(f.sigma & ~sigma == 0 and f.tau & ~tau == 0 for f in found):
                    if all((sigma & ~w) or (tau & w) for w in words):
                        found.append(PseudoMonomial(sigma, tau))
                if sub == 0:
                    break
                sub = (sub - 1) & supp
    found.sort(key=PseudoMonomial.sort_key)
    return tuple(found)


def pairwise_canonical_form(code):
    """Reference canonical form, one codeword at a time, by testing each product against every kept term.

    The same growth as `canonical_form`, with no blocking masks: a product
    m*b is dropped when any term that vanishes on the word divides it.
    """
    n = code.n
    full = (1 << n) - 1
    terms = [0]
    for c in sorted(code.words):
        zero_at_c = (full ^ c) | (c << n)
        kept = [m for m in terms if m & zero_at_c]
        grown = []
        for m in terms:
            if m & zero_at_c:
                continue
            supp = (m | m >> n) & full
            free = zero_at_c & ~(supp | supp << n)
            while free:
                b = free & -free
                free ^= b
                p = m | b
                if not any(k & ~p == 0 for k in kept):
                    grown.append(p)
        terms = kept + grown
    found = [PseudoMonomial(m & full, m >> n) for m in terms]
    found.sort(key=PseudoMonomial.sort_key)
    return tuple(found)


def plain_gf2_rank(rows):
    """Reference rank over F2 of int-bitmask rows, every row fully reduced, for cross-checks only."""
    pivots = {}
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


def plain_boundary_rank(upper, lower):
    """Reference rank of the boundary map from the faces in upper to those in lower, one size smaller."""
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
    return plain_gf2_rank(rows)


def plain_homology_dims(faces_by_size):
    """Reference reduced homology dimensions keyed by chain degree, by a plain rank per face size.

    No clearing and no shared rows: each boundary map gets its own rows,
    built from the faces, and every row is reduced.
    """
    top = len(faces_by_size) - 1
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        if faces_by_size[s] and faces_by_size[s - 1]:
            ranks[s] = plain_boundary_rank(faces_by_size[s], faces_by_size[s - 1])
    dims = {}
    for s in range(top + 1):
        h = len(faces_by_size[s]) - ranks[s] - ranks[s + 1]
        if h:
            dims[s - 1] = h
    return dims


def plain_faces(gens, within):
    """Reference faces of the complex restricted to within, by size, found by testing every subset."""
    faces_by_size = [[] for _ in range(within.bit_count() + 1)]
    sub = within
    while True:
        if not any(g & ~sub == 0 for g in gens):
            faces_by_size[sub.bit_count()].append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & within
    return faces_by_size


def set_support_unions(gens):
    """Reference unions of generator supports as a set, grown generator by generator, for cross-checks only."""
    closure = {0}
    for g in sorted(gens):
        closure.update([s | g for s in closure if g & ~s])
    return closure


def _one_bits(mask):
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def pairwise_domination_table(gens, used):
    """Reference domination table, rescanning every generator for each pair (w, g), for cross-checks only.

    Per vertex bit w of used, the pairs (g, B) for the generators g through
    w, where B holds the vertices v for which (g - w) + v contains a
    generator.
    """
    table = {}
    for w in _one_bits(used):
        pairs = []
        for g in gens:
            if g & w:
                rest = g ^ w
                dominated = 0
                for h in gens:
                    extra = h & ~rest
                    if extra & (extra - 1) == 0:
                        dominated |= extra
                pairs.append((g, dominated))
        table[w] = pairs
    return table


def pairwise_dominated(table, holding):
    """Reference D_v bitsets over the 2^u subsets, one AND per pair (w, g) and candidate v its B lacks, for cross-checks only.

    Per w, every candidate v (a vertex of some B, other than w) starts from
    the subsets that hold w; each pair's mask of the subsets that hold w but
    not g is ANDed into the candidates its B lacks, and D_v gains the result
    within the subsets that hold v. holding is the oracle's `_holding(u)`.
    """
    dominated = [0] * len(holding)
    for w, pairs in table.items():
        held = holding[w.bit_length() - 1]
        candidates = 0
        for _, b in pairs:
            candidates |= b
        masks = {v: held for v in _one_bits(candidates & ~w)}
        for g, b in pairs:
            lacking = [v for v in masks if not b & v]
            if lacking:
                inside = held
                for x in _one_bits(g ^ w):
                    inside &= holding[x.bit_length() - 1]
                outside = held ^ inside
                for v in lacking:
                    masks[v] &= outside
        for v, mask in masks.items():
            i = v.bit_length() - 1
            dominated[i] |= mask & holding[i]
    return dominated


def plain_core(sigma, table):
    """Reference core of sigma by deleting dominated vertices with no memo, or None for a cone.

    table maps each vertex bit w to its pairs (g, B), as in the oracle's
    domination table; the passes visit the vertices in the same order.
    """
    changed = True
    while changed:
        changed = False
        for w in _one_bits(sigma):
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


def sweep_betti_table(ideal):
    """Reference Betti table by the plain restriction sweep, for cross-checks only.

    Every union sigma of generator supports gets its full restricted complex,
    with no collapse and no memo, from a face list found by testing every
    subset of the used variables; Hochster's formula credits its homology,
    from `plain_homology_dims`, at sigma's degrees.
    """
    n = ideal.n
    gens = [g.support_mask(n) for g in ideal.gens]
    used = 0
    for g in gens:
        used |= g
    unions = {0}
    for g in gens:
        unions |= {s | g for s in unions}
    faces_by_size = plain_faces(gens, used)
    xmask = (1 << n) - 1
    counts = {}
    for sigma in unions:
        size = sigma.bit_count()
        restricted = [[f for f in faces_by_size[s] if f & ~sigma == 0] for s in range(size + 1)]
        u = (sigma & xmask).bit_count()
        for d, h in plain_homology_dims(restricted).items():
            key = (size - d - 1, u, size - u)
            counts[key] = counts.get(key, 0) + h
    return BettiTable.from_dict(n, counts)


def pairwise_minimalize(monomials):
    """Reference minimal generating set by the all-pairs loop, for cross-checks only.

    Each monomial, in sorted order, is compared with every one kept so far.
    """
    uniq = sorted(set(monomials), key=SquarefreeMonomial.sort_key)
    out = []
    for m in uniq:
        if not any(o.divides(m) for o in out):
            out.append(m)
    return out


def pairwise_generator_check(n, gens):
    """Reference generator check by the all-pairs minimality loop, for cross-checks only.

    Returns the message SquarefreeIdeal(n, gens) refuses the generators with,
    or None if they are accepted. Positions are compared by identity, so a
    generator passed twice as the same object slips through here; build each
    generator afresh when comparing.
    """
    gens = sorted(gens, key=SquarefreeMonomial.sort_key)
    width = (1 << n) - 1
    for g in gens:
        if g.xsupp & ~width or g.ysupp & ~width:
            return f"generator {g.render()} uses variables beyond n={n}"
        if g.xsupp == 0 and g.ysupp == 0:
            return "the unit ideal is not representable"
        if g.xsupp & g.ysupp:
            return f"generator {g.render()} is divisible by some x_i*y_i"
    for a in gens:
        for b in gens:
            if a is not b and a.divides(b):
                return f"{a.render()} divides {b.render()}: generators are not minimal"
    return None


def grid_betti_closed(profile):
    """Reference closed form as the paper prints it, over every (k, l) cell, for cross-checks only.

    The delta correction subtracts one at l = 0 for EVERY k in 0..n-1,
    including k with no piercings at all; dropping those k would overcount
    (on the five-neuron worked example it would give beta_{1,2} = 6, not 5).
    """
    n = profile.n
    jkl = profile.as_dict()
    counts = {(0, 0, 0): 1}
    for w in range(1, n):
        for v in range(0, w + 1):
            u = w + 1 - v
            total = 0
            for k in range(n):
                for l in range(n):
                    a = jkl.get((k, l), 0) - (1 if l == 0 else 0)
                    if a:
                        total += a * binom(n - 1 - k - l, w - v) * binom(l, v)
            if total < 0:
                raise ValueError(f"negative entry beta[{w},{u},{v}] = {total}: invalid profile")
            if total:
                counts[(w, u, v)] = total
    return BettiTable.from_dict(n, counts)


def backtracking_piercing_orders(code):
    """Reference: every piercing order of a clean code, by backtracking over every choice, for cross-checks only.

    Assumes nothing about which piercing may go first: at each stage it
    tries every piercing neuron, lowest first, and backs out of a branch
    that gets stuck. Word sets found to have no order are kept in a memo
    and not searched again.
    """
    dead = set()

    def search(words):
        if words == frozenset({0}):
            yield ()
            return
        if words in dead:
            return
        found = False
        active = 0
        for w in words:
            active |= w
        for i in indices_of(active):
            step = detect_piercing(NeuralCode(code.n, words), i)
            if step is None:
                continue
            bit = 1 << (i - 1)
            for rest in search(frozenset(w & ~bit for w in words)):
                found = True
                yield rest + (step,)
        if not found:
            dead.add(words)

    for steps in search(code.words):
        yield PiercingOrder(steps)


def pairwise_clique(mask, adj):
    """Reference: whether the vertices of mask are pairwise adjacent, pair by pair."""
    return all(adj[a] >> (b - 1) & 1 for a, b in combinations(indices_of(mask), 2))


def backtracking_elimination_orderings(g):
    """Reference: every simplicial elimination ordering, by backtracking over every choice, for cross-checks only.

    Assumes nothing about stuck stages: at each stage it tries every
    simplicial vertex, lowest first, and backs out of a branch that gets
    stuck.
    """
    adj = g.adjacency()

    def rec(remaining, order, degs):
        if not remaining:
            yield EliminationOrdering(tuple(order), tuple(degs))
            return
        m = remaining
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length()
            nb = adj[v] & remaining & ~b
            if pairwise_clique(nb, adj):
                order.append(v)
                degs.append(nb.bit_count())
                yield from rec(remaining ^ b, order, degs)
                order.pop()
                degs.pop()

    yield from rec((1 << g.n) - 1, [], [])


def verified_mcs_ordering(g):
    """Reference chordality: the MCS ordering if a vertex-by-vertex check accepts it, else None.

    Maximum-cardinality search visits next an unvisited vertex with the most
    visited neighbours, the lowest on a tie; the reverse visit order is an
    elimination ordering exactly when g is chordal (Tarjan and Yannakakis
    1984). The check removes the vertices in order and gives up at the first
    one whose remaining neighbours are not a clique.
    """
    adj = g.adjacency()
    weights = [0] * (g.n + 1)
    visit = []
    unvisited = set(range(1, g.n + 1))
    while unvisited:
        best = max(sorted(unvisited), key=weights.__getitem__)
        visit.append(best)
        unvisited.discard(best)
        for v in indices_of(adj[best]):
            weights[v] += 1
    order = tuple(reversed(visit))
    remaining = (1 << g.n) - 1
    degs = []
    for v in order:
        bit = 1 << (v - 1)
        nb = adj[v] & remaining & ~bit
        if not pairwise_clique(nb, adj):
            return None
        degs.append(nb.bit_count())
        remaining ^= bit
    return EliminationOrdering(order, tuple(degs))


@pytest.fixture(scope="session")
def worked_code():
    return parse_code("\n".join(WORKED_LINES))


@pytest.fixture(scope="session")
def four_cycle_code():
    # four fields arranged in a ring: 1 and 3 disjoint, 2 and 4 disjoint
    return code_of((1,), (2,), (3,), (4,), (1, 2), (2, 3), (3, 4), (1, 4), n=4)
