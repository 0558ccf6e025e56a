"""Betti tables of polarized ideals: closed forms, the step recursion, and inversions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .piercing import PiercingOrder, PiercingProfile


def binom(a: int, b: int) -> int:
    """Binomial coefficient, zero outside 0 <= b <= a; total on all integers."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers of a quotient S/J over the 2n-variable ring.

    Entries are (homological degree w, x-degree u, y-degree v, count) with
    zero counts dropped, so equal tables compare equal structurally.
    """

    n: int
    entries: tuple[tuple[int, int, int, int], ...]

    @classmethod
    def from_dict(cls, n: int, counts) -> "BettiTable":
        items = []
        for (w, u, v), c in counts.items():
            if c < 0:
                raise ValueError(f"negative Betti entry at {(w, u, v)}: {c}")
            if c:
                items.append((w, u, v, c))
        return cls(n, tuple(sorted(items)))

    @cached_property
    def as_dict(self) -> dict[tuple[int, int, int], int]:
        return {(w, u, v): c for w, u, v, c in self.entries}

    def entry(self, w: int, u: int, v: int) -> int:
        return self.as_dict.get((w, u, v), 0)

    def graded(self) -> dict[tuple[int, int], int]:
        """Collapse (u, v) to the total internal degree j = u + v."""
        out: dict[tuple[int, int], int] = {}
        for w, u, v, c in self.entries:
            key = (w, u + v)
            out[key] = out.get(key, 0) + c
        return out

    def totals(self) -> tuple[int, ...]:
        """Total Betti numbers b_0..b_pdim."""
        top = max((w for w, _, _, _ in self.entries), default=0)
        out = [0] * (top + 1)
        for w, _, _, c in self.entries:
            out[w] += c
        return tuple(out)

    def to_json_dict(self) -> dict:
        graded = sorted(self.graded().items())
        return {
            "n": self.n,
            "total": list(self.totals()),
            "graded": [[w, j, c] for (w, j), c in graded],
            "multigraded": [[w, u, v, c] for w, u, v, c in self.entries],
        }

    def render_triangle(self) -> str:
        """Betti diagram of the graded view: rows j-w, columns w."""
        graded = self.graded()
        top_w = max((w for w, _ in graded), default=0)
        top_r = max((j - w for (w, j) in graded), default=0)
        totals = self.totals()
        width = max(len(str(c)) for c in (*graded.values(), *totals, top_w))
        width = max(width, 1)

        def row(label, cells):
            return f"{label:>6}: " + " ".join(f"{c:>{width}}" for c in cells)

        lines = [row("", list(range(top_w + 1))).replace(":", " ", 1)]
        lines.append(row("total", [totals[w] if w < len(totals) else 0 for w in range(top_w + 1)]))
        for r in range(top_r + 1):
            cells = []
            for w in range(top_w + 1):
                c = graded.get((w, w + r), 0)
                cells.append(c if c else ".")
            lines.append(row(r, cells))
        return "\n".join(lines) + "\n"


def multigraded_betti_closed(profile: PiercingProfile) -> BettiTable:
    """Closed-form multigraded table from the piercing counts.

    The delta correction subtracts one at l = 0 for EVERY k in 0..n-1,
    including k with no piercings at all; dropping those k would overcount
    (on the five-neuron worked example it would give beta_{1,2} = 6, not 5).
    Summed over all k by the hockey stick, sum_{k<n} C(n-1-k, w) = C(n, w+1),
    it is the -C(n, w+1) at v = 0, so what is left visits only the nonzero j_{k,l}.
    """
    n = profile.n
    counts = {(0, 0, 0): 1}
    counts.update(((w, w + 1, 0), -binom(n, w + 1)) for w in range(1, n))
    for (k, l), c in profile.jkl:
        for w in range(1, n):
            for v in range(min(l, w) + 1):
                key = (w, w + 1 - v, v)
                counts[key] = counts.get(key, 0) + c * binom(n - 1 - k - l, w - v) * binom(l, v)
    return BettiTable.from_dict(n, counts)


def graded_betti_closed(profile: PiercingProfile) -> dict[tuple[int, int], int]:
    """Graded view (w, w+1) -> count, directly from the marginals j_k (delta term as above)."""
    n = profile.n
    out = {(0, 0): 1}
    for w in range(1, n):
        b = sum(c * binom(n - 1 - k, w) for (k, _), c in profile.jkl) - binom(n, w + 1)
        if b < 0:
            raise ValueError(f"negative entry beta[{w},{w + 1}] = {b}: invalid profile")
        if b:
            out[(w, w + 1)] = b
    return out


def betti_recursive(order: PiercingOrder) -> BettiTable:
    """Fold the one-step table recursion along a construction sequence.

    Works for any construction order, not only label order: what enters the
    step formula is how many neurons already exist, here the step's index.
    """
    counts = {(0, 0, 0): 1}
    for idx, step in enumerate(order.steps):
        prev = counts
        m = idx - step.k - step.ell
        counts = {(0, 0, 0): 1}
        for w in range(1, idx + 2):
            for v in range(0, w + 1):
                u = w + 1 - v
                c = binom(m, u - 1) * binom(step.ell, v)
                c += prev.get((w - 1, u - 1, v), 0)
                c += prev.get((w, u, v), 0)
                if c:
                    counts[(w, u, v)] = c
    return BettiTable.from_dict(len(order.steps), counts)


def invert_graded(graded, n: int) -> tuple[int, ...]:
    """Recover the marginals j_k from a graded table via the inverse Pascal matrix."""
    jk = [1] * n
    for (w, j), c in graded.items():
        # beta_0 of S/J is 1; an omitted entry is taken as that 1
        if (w, j) == (0, 0) and c not in (0, 1):
            raise ValueError(f"graded entry (0,0) is {c}, but beta_0 of a quotient S/J is 1")
        if not c or (w, j) == (0, 0):
            continue
        if j != w + 1 or not 0 <= w <= n - 1:
            raise ValueError(f"graded entry ({w},{j}) is off the linear strand")
        if c < 0:
            raise ValueError(f"negative Betti entry at {(w, j)}: {c}")
        for k in range(n - 1 - w, n):
            sign = -1 if (w - n + 1 + k) & 1 else 1
            jk[k] += sign * binom(w, n - 1 - k) * c
    if any(j < 0 for j in jk) or sum(jk) != n:
        raise ValueError(f"inverted marginals {jk} are invalid: input is not from a pierced code")
    return tuple(jk)


def invert_multigraded(table: BettiTable) -> PiercingProfile:
    """Recover the full j_{k,l} table from multigraded Betti numbers."""
    n = table.n
    counts = {(a, 0): 1 for a in range(n)}
    for w, u, v, c in table.entries:
        # as in invert_graded; the table holds no zero counts
        if (w, u, v) == (0, 0, 0) and c != 1:
            raise ValueError(f"multigraded entry (0,0,0) is {c}, but beta_0 of a quotient S/J is 1")
        if (w, u, v) == (0, 0, 0):
            continue
        if u < 1 or v < 0 or u + v != w + 1 or w > n - 1:
            raise ValueError(f"multigraded entry ({w},{u},{v}) is off the linear strand")
        for a in range(n):
            sign = -1 if (w - n + 1 + a) & 1 else 1
            for b in range(v + 1):
                counts[(a, b)] = counts.get((a, b), 0) + sign * c * binom(w - v, n - 1 - a - b) * binom(v, b)
    return PiercingProfile.from_counts(n, counts)


def pdim_from_profile(profile: PiercingProfile) -> int:
    """n - 1 - t for the smallest t with j_t > 1; zero when every j_k is 1 (zero ideal)."""
    for t, j in enumerate(profile.jk):
        if j > 1:
            return profile.n - 1 - t
    return 0
