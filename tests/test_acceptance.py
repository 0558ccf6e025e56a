"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and measured numbers.  Everything is exact equality; the only
tolerances are the stated wall-clock bounds.
"""

import multiprocessing
import os
import random
import statistics
import time
from itertools import combinations

import pytest

from codebetti import (
    Graph,
    NeuralCode,
    SquarefreeIdeal,
    SquarefreeMonomial,
    all_elimination_orderings,
    betti_recursive,
    betti_table_oracle,
    binom,
    canonical_form,
    chordality,
    enumerate_pierced_codes,
    graded_betti_closed,
    invert_graded,
    invert_multigraded,
    is_inductively_pierced,
    iter_piercing_orders,
    mask_of,
    multigraded_betti_closed,
    parse_code,
    pdim,
    pdim_from_profile,
    piercing_profile,
    polarized_ideal,
    random_pierced_code,
    regularity,
    regularity_characterization,
    steps_for_order,
    validate_code,
)
from conftest import WORKED_CF, WORKED_LINES, sweep_betti_table


@pytest.fixture(scope="session")
def corpus_records():
    """(code, order, profile, closed, recursive, oracle) for the whole corpus.

    Corpus = every code from exhaustive piercing sequences with n <= 5 and
    rank <= 3 (deduplicated), plus 200 seeded random pierced codes on six
    neurons.  Returns (records, build_seconds) so the criterion-3 bound can
    charge the construction time.
    """
    t0 = time.perf_counter()
    records = []
    for code in enumerate_pierced_codes(5, 3):
        order = is_inductively_pierced(code)
        assert order is not None
        records.append(_record(code, order))
    for seed in range(200):
        order, code = random_pierced_code(6, seed=seed)
        records.append(_record(code, order))
    return records, time.perf_counter() - t0


def _record(code, order):
    profile = piercing_profile(order)
    closed = multigraded_betti_closed(profile)
    recursive = betti_recursive(order)
    oracle = betti_table_oracle(polarized_ideal(canonical_form(code), code.n))
    return (code, order, profile, closed, recursive, oracle)


def test_c01_canonical_forms():
    t0 = time.perf_counter()
    worked = parse_code("\n".join(WORKED_LINES))
    got = [f.render() for f in canonical_form(worked)]
    assert sorted(got) == sorted(WORKED_CF)
    assert got == WORKED_CF  # canonical order is also pinned

    nested = parse_code("0\n1\n1 2\n1 2 3\n")
    got_nested = {f.render() for f in canonical_form(nested)}
    assert got_nested == {"x3*(1-x2)", "x2*(1-x1)", "x3*(1-x1)"}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: both canonical forms exact ({elapsed * 1000:.0f} ms)")


def test_c02_piercing_analysis_of_worked_code():
    t0 = time.perf_counter()
    worked = parse_code("\n".join(WORKED_LINES))
    order = is_inductively_pierced(worked)
    assert order is not None
    profile = piercing_profile(order)
    assert profile.jk == (1, 3, 1, 0, 0)
    assert profile.as_dict() == {(0, 0): 1, (1, 0): 2, (1, 1): 1, (2, 0): 1}

    by_label = steps_for_order(worked, (1, 2, 3, 4, 5))
    alternative = steps_for_order(worked, (1, 4, 2, 3, 5))
    assert by_label is not None and alternative is not None
    assert piercing_profile(by_label) == piercing_profile(alternative) == profile
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 2: j-values exact, both published orders accepted ({elapsed * 1000:.0f} ms)")


def test_c03_triple_betti_agreement(corpus_records):
    records, build_seconds = corpus_records
    t0 = time.perf_counter()
    worked = parse_code("\n".join(WORKED_LINES))
    worked_order = is_inductively_pierced(worked)
    worked_tables = _record(worked, worked_order)[3:]
    assert worked_tables[0] == worked_tables[1] == worked_tables[2]
    assert worked_tables[0].totals() == (1, 5, 6, 2)

    for code, _, _, closed, recursive, oracle in records:
        assert closed == recursive == oracle, code
    elapsed = build_seconds + time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"PASS criterion 3: closed = recursion = oracle on {len(records)} corpus codes"
        f" + worked example ({elapsed:.1f} s incl. corpus build)"
    )


def test_c03_reduced_oracle_matches_plain_sweep(corpus_records):
    # the corpus oracle tables come from the reduced engine (collapse + memo);
    # the plain sweep recomputes every restriction in full
    records, _ = corpus_records
    t0 = time.perf_counter()
    for code, _, _, _, _, oracle in records:
        assert oracle == sweep_betti_table(polarized_ideal(canonical_form(code), code.n)), code
    print(
        f"PASS criterion 3 (reference): reduced oracle = plain sweep on {len(records)} corpus codes"
        f" ({time.perf_counter() - t0:.1f} s)"
    )


def test_c04_regularity_characterization():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 5):
        full = (1 << n) - 1
        for bits in range(1 << full):
            words = frozenset({0} | {w for w in range(1, full + 1) if bits >> (w - 1) & 1})
            code = NeuralCode(n, words)
            if not validate_code(code).clean:
                continue
            cf = canonical_form(code)
            if not cf or any(f.degree != 2 for f in cf):
                continue
            verdict = regularity_characterization(code)
            assert verdict.theorem_consistent, (n, sorted(words))
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(
        f"PASS criterion 4: (reg = 2) <=> pierced with zero counterexamples over "
        f"{checked} quadratic clean codes, n <= 4 ({elapsed:.1f} s)"
    )


def test_c05_inversion_round_trips(corpus_records):
    records, _ = corpus_records
    for _, _, profile, closed, _, _ in records:
        assert invert_multigraded(closed) == profile
        graded = graded_betti_closed(profile)
        assert invert_graded(graded, profile.n) == profile.jk

    # the published inverse-Pascal instance, digit for digit
    assert invert_graded({(1, 2): 5, (2, 3): 6, (3, 4): 2}, 5) == (1, 3, 1, 0, 0)
    print(f"PASS criterion 5: inversion round trips exact on {len(records)} profiles")


def test_c06_projective_dimension(corpus_records):
    records, _ = corpus_records
    for _, _, profile, _, _, oracle in records:
        assert pdim_from_profile(profile) == pdim(oracle)

    worked = parse_code("\n".join(WORKED_LINES))
    profile = piercing_profile(is_inductively_pierced(worked))
    table = multigraded_betti_closed(profile)
    assert pdim_from_profile(profile) == 3
    totals = table.totals()
    assert totals[3] == 2 and len(totals) == 4  # beta_3 = 2 and beta_4 = 0
    print(f"PASS criterion 6: pdim formula = oracle pdim on {len(records)} codes")


def test_c07_multigraded_discrimination():
    J1 = SquarefreeIdeal(
        4, (SquarefreeMonomial(mask_of((1, 3)), 0), SquarefreeMonomial(mask_of((2, 4)), 0))
    )
    J2 = SquarefreeIdeal(
        4, (SquarefreeMonomial(mask_of((1, 4)), 0), SquarefreeMonomial(mask_of((3, 4)), 0))
    )
    J3 = SquarefreeIdeal(
        4, (SquarefreeMonomial(mask_of((1, 4)), 0), SquarefreeMonomial(mask_of((4,)), mask_of((3,))))
    )
    t1, t2, t3 = betti_table_oracle(J1), betti_table_oracle(J2), betti_table_oracle(J3)
    assert t2.graded() == t3.graded() == {(0, 0): 1, (1, 2): 2, (2, 3): 1}
    assert t2.as_dict != t3.as_dict
    assert regularity(t1, of_ideal=True) == 3
    assert regularity(t2, of_ideal=True) == 2
    print("PASS criterion 7: identical graded, distinct multigraded; reg 3 vs 2 as published")


def _random_graph(rng, n):
    p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
    edges = [(i, j) for i, j in combinations(range(1, n + 1), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_c08_chordal_profile_invariance():
    t0 = time.perf_counter()
    chordal_seen = 0
    for n in range(1, 7):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            profiles = {o.profile() for o in all_elimination_orderings(g)}
            if chordality(g) is not None:
                assert len(profiles) == 1
                chordal_seen += 1
            else:
                assert not profiles

    rng = random.Random(20240)
    sampled = 0
    for _ in range(300):
        g = _random_graph(rng, 7)
        if chordality(g) is None:
            continue
        profiles = {o.profile() for o in all_elimination_orderings(g)}
        assert len(profiles) == 1
        sampled += 1
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 8: profile invariant on {chordal_seen} chordal graphs (n <= 6, exhaustive)"
        f" and {sampled} random chordal graphs on 7 vertices ({elapsed:.1f} s)"
    )


def test_c09_profile_order_invariance(corpus_records):
    records, _ = corpus_records
    for code, _, profile, _, _, _ in records:
        profiles = {piercing_profile(o) for o in iter_piercing_orders(code)}
        assert profiles == {profile}, code
    print(f"PASS criterion 9: every piercing order gives one profile on {len(records)} codes")


def test_c10_binomial_identities():
    for a in range(13):
        for b in range(-2, 15):
            assert binom(a, b) + binom(a, b + 1) == binom(a + 1, b + 1)  # Pascal
        for b in range(0, 15):
            assert sum(binom(m, b) for m in range(b, a + 1)) == binom(a + 1, b + 1)  # hockey stick
        assert sum((-1) ** m * binom(a, m) for m in range(a + 1)) == (1 if a == 0 else 0)
        for b in range(13):
            for c in range(-2, 15):
                assert sum(binom(a, m) * binom(b, c - m) for m in range(max(c, 0) + 1)) == binom(
                    a + b, c
                )  # Chu-Vandermonde
                assert binom(a, b) * binom(b, c) == binom(a, c) * binom(a - c, b - c)  # product
    print("PASS criterion 10: all five identities hold exhaustively for 0 <= a <= 12")


# timings of the c11 scaling check, each taken as a median
REPEATS = 5


def _calibration_burn(n):
    acc = 0
    for i in range(n):
        acc ^= i * i
    return acc


def test_c11_oracle_performance_and_parallel_sweep():
    # single-threaded bound on the stated instance size
    order, code = random_pierced_code(6, seed=11)
    ideal = polarized_ideal(canonical_form(code), code.n)
    t0 = time.perf_counter()
    serial_small = betti_table_oracle(ideal, threads=1)
    small_elapsed = time.perf_counter() - t0
    assert small_elapsed < 2.0
    parallel_small = betti_table_oracle(ideal, threads=4)
    assert parallel_small == serial_small  # bit-identical

    # scaling check: the n=6 sweep finishes in milliseconds here, far below
    # the criterion's 2 s budget, so worker scaling is only observable on a
    # larger instance of the same sweep; compare against this machine's own
    # measured ceiling for perfectly parallel pure-Python work. Each time is
    # the median of REPEATS, serial and parallel interleaved, as one timing
    # can be off by a fifth on a shared host
    workers = 4
    big_order, big_code = random_pierced_code(11, seed=3)
    big_ideal = polarized_ideal(canonical_form(big_code), big_code.n)
    serial_times, parallel_times = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        serial_big = betti_table_oracle(big_ideal, threads=1)
        serial_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        parallel_big = betti_table_oracle(big_ideal, threads=workers)
        parallel_times.append(time.perf_counter() - t0)
        assert parallel_big == serial_big  # bit-identical again
    serial_time = statistics.median(serial_times)
    speedup = serial_time / statistics.median(parallel_times)

    burn_units = max(1, round(serial_time * 4_000_000))
    ctx = multiprocessing.get_context("fork")
    burn_serials, burn_parallels = [], []
    with ctx.Pool(workers) as pool:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for _ in range(workers):
                _calibration_burn(burn_units)
            burn_serials.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            pool.map(_calibration_burn, [burn_units] * workers)
            burn_parallels.append(time.perf_counter() - t0)
    ceiling = statistics.median(burn_serials) / statistics.median(burn_parallels)
    efficiency = speedup / ceiling
    cores = os.cpu_count() or 1
    assert efficiency >= 0.7, (speedup, ceiling)
    print(
        f"PASS criterion 11: n=6 oracle {small_elapsed * 1000:.0f} ms (< 2 s), outputs bit-identical;"
        f" sweep speedup {speedup:.2f}x of a {ceiling:.2f}x ceiling measured on {cores} CPUs"
        f" with {workers} workers (efficiency {efficiency:.2f})"
    )
