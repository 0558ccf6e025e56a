"""Reference checks on CLI output, and the benchmark's own ideal enumerations.

None of these references is computed by the route being timed: pierced codes
are checked against the generator's own construction order, and general
codes against a K-polynomial read off the Stanley-Reisner faces, enumerated
here straight from the codewords.
"""

from __future__ import annotations

import json
from collections import Counter
from math import comb


def _report(stdout: str) -> dict:
    report = json.loads(stdout)
    if report.get("warnings"):
        raise ValueError(f"unexpected warnings {report['warnings']}")
    return report["output"]


# ---------------------------------------------------------------- own enumerations

def quadratic_gens(code) -> list[int]:
    """Polarized canonical form of a clean pierced code, as masks over 2n variables.

    Such a code has a quadratic canonical form, and with the empty word
    present no degree-one pseudo-monomial vanishes, so the canonical form is
    exactly the set of vanishing degree-two pseudo-monomials x_i*x_j,
    x_i*(1-x_j) and (1-x_i)*(1-x_j). x_i is bit i-1 and y_i is bit n+i-1,
    as in the oracle.
    """
    n, words = code.n, code.words
    gens = []
    for i in range(n):
        bi = 1 << i
        for j in range(n):
            if i == j:
                continue
            bj = 1 << j
            if i < j and all(not (w & bi and w & bj) for w in words):
                gens.append(bi | bj)
            if all(w & bj for w in words if w & bi):
                gens.append(bi | (bj << n))
            if i < j and all(w & (bi | bj) for w in words):
                gens.append((bi | bj) << n)
    return gens


def sr_faces(code) -> set[int]:
    """Faces of the Stanley-Reisner complex of the polarized neural ideal, over 2n variables.

    x^sigma y^tau lies outside the ideal exactly when, for every split of
    the overlap O = sigma & tau into A and O - A, some codeword restricted
    to sigma | tau equals (sigma - tau) | A: no pseudo-monomial x_a(1-x_b)
    with a in sigma, b in tau, a and b disjoint then vanishes on the code.
    Exponential in 2n; meant for small codes.
    """
    n, words = code.n, code.words
    full = (1 << n) - 1
    seen_on = {s: {w & s for w in words} for s in range(full + 1)}
    faces = set()
    for sigma in range(full + 1):
        for tau in range(full + 1):
            seen = seen_on[sigma | tau]
            base = sigma & ~tau
            overlap = sigma & tau
            sub = overlap
            while True:
                if base | sub not in seen:
                    break
                if sub == 0:
                    faces.add(sigma | (tau << n))
                    break
                sub = (sub - 1) & overlap
    return faces


def minimal_nonfaces(faces: set[int], nvars: int) -> list[int]:
    """Minimal generators of a squarefree ideal from its complex: the minimal non-faces."""
    out = []
    for m in range(1 << nvars):
        if m in faces:
            continue
        rest = m
        while rest:
            b = rest & -rest
            if m ^ b not in faces:
                break
            rest ^= b
        else:
            out.append(m)
    return out


def lattice_size(gens, limit: int | None = None) -> int:
    """Number of distinct unions of generator supports, the empty union included.

    This is the set of restrictions the oracle sweeps (its lcm lattice).
    With ``limit``, counting stops as soon as the count passes it, and the
    partial count, already above ``limit``, is returned.
    """
    unions = {0}
    for g in gens:
        unions |= {u | g for u in unions}
        if limit is not None and len(unions) > limit:
            break
    return len(unions)


def _graph(gens) -> tuple[dict[int, int], int]:
    """Neighbour masks and vertex mask of a quadratic ideal's graph; a generator is an edge."""
    adj: dict[int, int] = {}
    used = 0
    for g in gens:
        low = g & -g
        high = g ^ low
        adj[low] = adj.get(low, 0) | high
        adj[high] = adj.get(high, 0) | low
        used |= g
    return adj, used


def independent_sets(gens) -> int:
    """Faces of a quadratic ideal's complex on its used variables: independent sets of its graph."""
    adj, used = _graph(gens)

    def count(free: int) -> int:
        if not free:
            return 1
        v = free & -free
        return count(free ^ v) + count(free & ~(v | adj[v]))

    return count(used)


def face_count_on_used(faces: set[int], gens) -> int:
    """Faces on the used variables; each unused variable is a cone point that doubles the count."""
    used = 0
    for g in gens:
        used |= g
    return sum(1 for f in faces if f & ~used == 0)


def k_polynomial(faces: set[int], n: int) -> dict[tuple[int, int], int]:
    """Bigraded K-polynomial of S/J: sum over faces F of s^a t^b (1-s)^(n-a) (1-t)^(n-b)."""
    xmask = (1 << n) - 1
    fvec = Counter(((f & xmask).bit_count(), (f >> n).bit_count()) for f in faces)
    out: dict[tuple[int, int], int] = {}
    for (a, b), c in fvec.items():
        for u in range(a, n + 1):
            cu = (-1) ** (u - a) * comb(n - a, u - a)
            for v in range(b, n + 1):
                term = c * cu * (-1) ** (v - b) * comb(n - b, v - b)
                out[(u, v)] = out.get((u, v), 0) + term
    return {k: c for k, c in out.items() if c}


def alternating_sums(multigraded) -> dict[tuple[int, int], int]:
    """(u, v) -> sum over w of (-1)^w beta_{w,u,v}."""
    out: dict[tuple[int, int], int] = {}
    for w, u, v, c in multigraded:
        out[(u, v)] = out.get((u, v), 0) + (-1) ** w * c
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------- per-workload checks

class Reference:
    """What a case's outputs must match, built lazily outside the timed calls."""

    def __init__(self, lib, case):
        self.lib = lib
        self.case = case
        self._faces = None

    def profile_jkl(self):
        return [[k, l, c] for (k, l), c in self.lib.piercing_profile(self.case.order).jkl]

    def table(self):
        return self.lib.betti_recursive(self.case.order)

    def faces(self) -> set[int]:
        if self._faces is None:
            self._faces = sr_faces(self.case.code)
        return self._faces

    def gens(self) -> list[int]:
        if self.case.order is not None:
            return quadratic_gens(self.case.code)
        return minimal_nonfaces(self.faces(), 2 * self.case.n)

    def restrictions(self) -> int:
        return lattice_size(self.gens())

    def face_count(self) -> int:
        if self.case.order is not None:
            return independent_sets(self.gens())
        return face_count_on_used(self.faces(), self.gens())


def _check_pierced_profile(ref, out):
    if out.get("pierced") is not True:
        return f"expected a pierced verdict, got {out.get('pierced')!r}"
    if out.get("jkl") != ref.profile_jkl():
        return f"jkl {out.get('jkl')} != generator profile {ref.profile_jkl()}"
    return None


def _check_table(ref, out, methods):
    want = dict(ref.table().to_json_dict(), methods=methods)
    if out != want:
        return f"table {out} != betti_recursive(generator order) {want}"
    return None


def _check_general_table(ref, out):
    if out.get("methods") != ["oracle"] or out.get("n") != ref.case.n:
        return f"unexpected table header {out.get('methods')} n={out.get('n')}"
    got = alternating_sums(out.get("multigraded", []))
    want = k_polynomial(ref.faces(), ref.case.n)
    if got != want:
        return f"alternating sums {got} != K-polynomial {want}"
    return None


def _check_general_verdict(out, table):
    """The verdict against the table of the other call, by the regularity-2 characterization."""
    pierced = out.get("pierced")
    if not isinstance(pierced, bool):
        return f"no verdict in {out}"
    if table is None:
        return None
    linear = all(u + v == w + 1 for w, u, v, _ in table["multigraded"] if w >= 1)
    if pierced:
        return None if linear else "pierced verdict but the table is not linear (regularity > 2)"
    degrees = out.get("cf_degrees")
    gen_degrees = Counter()
    for w, u, v, c in table["multigraded"]:
        if w == 1:
            gen_degrees[u + v] += c
    if Counter(degrees) != gen_degrees:
        return f"cf_degrees {degrees} != generator degrees of the table {dict(gen_degrees)}"
    if degrees and all(d == 2 for d in degrees) and linear:
        return "quadratic canonical form with a linear table, yet the verdict is not pierced"
    return None


def check_case(lib, workload, case, results) -> tuple[list[str | None], "Reference"]:
    """Per call, None when it passed or the reason it failed.

    ``results`` holds (exit code, stdout) per call; exit code None marks an
    exception that escaped the CLI.
    """
    ref = Reference(lib, case)
    errors: list[str | None] = []
    outs = []
    for rc, stdout in results:
        if rc != 0:
            errors.append(f"exit code {rc}")
            outs.append(None)
            continue
        try:
            outs.append(_report(stdout))
            errors.append(None)
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"unreadable report: {exc}")
            outs.append(None)
    checks = {
        "pierced-chain": [
            lambda: _check_pierced_profile(ref, outs[0]),
            lambda: _check_table(ref, outs[1], ["formula"]),
        ],
        "betti-all": [
            lambda: _check_table(ref, outs[0], ["formula", "oracle", "recursion"]),
        ],
        "general-oracle": [
            lambda: _check_general_verdict(outs[0], outs[1]),
            lambda: _check_general_table(ref, outs[1]),
        ],
    }[workload.name]
    for i, check in enumerate(checks):
        if errors[i] is None:
            try:
                errors[i] = check()
            except (KeyError, TypeError, ValueError) as exc:
                errors[i] = f"malformed output: {exc!r}"
    return errors, ref
