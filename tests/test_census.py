"""Census: enumeration counts, canonical keys, oracle, small reports."""

import hashlib
import json
import math
import os
import random
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semident.census
import semident.criterion
from semident import linalg, witness
from semident.census import (
    OracleVerdict,
    canonical_form,
    census_report,
    enumerate_graphs,
    injectivity_oracle,
)
from semident.cli import main
from semident.criterion import check_global_identifiability, find_violating_set_exhaustive
from semident.errors import CyclicDirectedPartError, SemidentError, SupportViolationError
from semident.graphs import (
    MixedGraph,
    _bfs,
    _members,
    _node_mask,
    is_simple,
    relabel,
    relabel_topologically,
)
from semident.inversion import _step_records
from semident.witness import construct_witness, witness_from_set


def test_enumeration_counts_two_nodes():
    assert len({canonical_form(g) for g in enumerate_graphs(2)}) == 4
    assert len({canonical_form(g) for g in enumerate_graphs(2, simple_only=True)}) == 3


def test_enumeration_single_node():
    graphs = list(enumerate_graphs(1))
    assert len(graphs) == 1
    assert graphs[0].m == 1


def test_enumeration_cap():
    with pytest.raises(SemidentError):
        list(enumerate_graphs(7))


def test_canonical_form_isomorphism_invariant():
    rng = random.Random(4)
    for g in list(enumerate_graphs(4))[:200]:
        perm = list(range(1, 5))
        rng.shuffle(perm)
        h = relabel(g, {i + 1: perm[i] for i in range(4)})
        assert canonical_form(g) == canonical_form(h)


def _brute_force_canonical(g):
    """``census._canonical`` by trying every node permutation: (key, |Aut(g)|)."""
    best, n_aut = None, 0
    for perm in permutations(range(1, g.m + 1)):
        directed = tuple(sorted((perm[i - 1], perm[j - 1]) for i, j in g.directed))
        bidirected = tuple(
            sorted(
                (min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1]))
                for i, j in g.bidirected
            )
        )
        key = (g.m, directed, bidirected)
        if best is None or key < best:
            best, n_aut = key, 1
        elif key == best:
            n_aut += 1
    return best, n_aut


@st.composite
def _mixed_graphs(draw, max_m=6):
    """Any mixed graph on 0..max_m nodes: directed edges both ways, cycles included."""
    m = draw(st.integers(0, max_m))
    ordered = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i != j]
    unordered = [(i, j) for i, j in ordered if i < j]
    dmask = draw(st.integers(0, (1 << len(ordered)) - 1))
    bmask = draw(st.integers(0, (1 << len(unordered)) - 1))
    return MixedGraph(
        m=m,
        directed={e for k, e in enumerate(ordered) if dmask >> k & 1},
        bidirected={e for k, e in enumerate(unordered) if bmask >> k & 1},
    )


@settings(max_examples=150, deadline=None)
@given(_mixed_graphs())
def test_canonical_key_and_automorphisms_match_brute_force(g):
    assert semident.census._canonical(g) == _brute_force_canonical(g)


def test_canonical_matches_brute_force_on_every_census_graph():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            assert semident.census._canonical(g) == _brute_force_canonical(g)


def test_canonical_form_distinguishes_edge_kinds():
    a = MixedGraph(m=2, directed={(1, 2)})
    b = MixedGraph(m=2, bidirected={(1, 2)})
    assert canonical_form(a) != canonical_form(b)


def test_oracle_three_node_graphs_follow_simplicity():
    for g in enumerate_graphs(3):
        verdict = injectivity_oracle(g)
        assert verdict.injective == is_simple(g)


def test_oracle_runs_no_fixpoint_search(count_calls):
    # the oracle cross-checks the fixpoint search, so it must not run it
    calls = count_calls(semident.criterion, "find_violating_set")
    verdicts = [injectivity_oracle(g) for g in enumerate_graphs(3)]
    assert any(not v.injective for v in verdicts)
    assert calls == []


def test_oracle_instrumental_variable(iv_graph):
    verdict = injectivity_oracle(iv_graph)
    assert not verdict.injective
    assert "witness" in verdict.evidence


def test_oracle_reports_a_cycle_in_the_labels_it_was_given():
    g = MixedGraph(m=3, directed={(1, 3), (3, 2), (2, 1)})
    with pytest.raises(CyclicDirectedPartError) as exc:
        injectivity_oracle(g)
    cycle = exc.value.cycle
    assert all((cycle[k], cycle[k + 1]) in g.directed for k in range(len(cycle) - 1))


def test_oracle_matches_criterion_on_sample():
    rng = random.Random(12)
    graphs = list(enumerate_graphs(4))
    rng.shuffle(graphs)
    for g in graphs[:120]:
        assert (
            injectivity_oracle(g).injective
            == check_global_identifiability(g).identifiable
        )


def test_census_report_three_nodes():
    report = census_report(3)
    assert not report.disagreements
    # on three nodes injectivity coincides with simplicity
    assert report.unlabeled_count(simple=True, identifiable=False) == 0
    assert report.unlabeled_count(simple=False, identifiable=True) == 0
    assert report.labeled_total == 200  # 25 labeled DAGs x 2^3 bidirected parts


def test_census_report_two_nodes_json():
    data = census_report(2).to_json()
    assert data["n"] == 2
    assert data["unlabeled_total"] == 4
    assert data["labeled_total"] == 6
    assert data["counts"]["unlabeled"]["noninjective"] == 1
    assert data["disagreements"] == []


def test_census_report_csv_shape():
    csv_text = census_report(2).to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "directed,bidirected,simple,identifiable,labeled_count"
    assert len(lines) == 5


#: SHA-256 of ``census_report(4)``'s CSV followed by its JSON (sorted keys),
#: as first computed by the brute-force canonical form: it pins the row order
#: that the canonical key sets.
CENSUS_N4_SHA256 = "e09886b972369515cd8f2269255260c79f48c43e2290c997ff144374429f927a"


def test_census_report_four_nodes_matches_pinned_digest():
    report = census_report(4)
    text = report.to_csv() + json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_N4_SHA256


#: SHA-256 of ``census_report(5)``'s CSV.
CENSUS_N5_CSV_SHA256 = "0ab69774b5af12b14e7458ed70f5d84154dc895bdd838df402090518cb151ea8"


@pytest.mark.slow
def test_census_report_five_nodes():
    # about ten seconds serially; deselected by default, run with ``pytest -m slow``
    report = census_report(5)
    assert report.disagreements == []
    assert report.unlabeled_total == 256_190
    assert report.unlabeled_count(identifiable=True) == 6_721
    assert report.unlabeled_count(simple=True, identifiable=True) == 6_721
    assert report.unlabeled_count(identifiable=False) == 249_469
    assert report.unlabeled_count(simple=True, identifiable=False) == 396
    # labeled acyclic mixed graphs: labeled DAGs on five nodes (OEIS A003024) x 2^C(5,2)
    assert report.labeled_total == 29_281 * 2**10 == 29_983_744
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == CENSUS_N5_CSV_SHA256


@pytest.mark.parametrize("simple_only", [False, True])
def test_mask_pass_matches_every_representative(simple_only):
    # the per-graph answers pass 1 gave before it ran on masks, for every
    # representative in enumeration order, and the class order they imply
    census = semident.census
    for n in range(1, 5):
        graphs = enumerate_graphs(n, simple_only=simple_only)
        edges, pairs = census._permutation_table(n)[0], census._mask_tables(n).pairs
        first = {}
        reps = census._classify(n, simple_only)
        for dmask, bmask, best, n_aut, identifiable in zip(*(c.tolist() for c in reps)):
            g = next(graphs)
            assert g.directed == {p for k, p in enumerate(pairs) if dmask >> k & 1}
            assert g.bidirected == {p for k, p in enumerate(pairs) if bmask >> k & 1}
            key = census._key_of(n, edges, best)
            assert census._decode_key(n, best) == key
            assert (key, n_aut) == census._canonical(g)
            assert (not dmask & bmask) == is_simple(g)
            assert identifiable == (semident.criterion.find_violating_set(g) is None)
            first.setdefault(key, (g, identifiable, n_aut))
        assert next(graphs, None) is None
        report = census_report(n, simple_only=simple_only)
        assert [row.key for row in report.rows] == list(first)
        for row in report.rows:
            g, identifiable, n_aut = first[row.key]
            assert (row.directed, row.bidirected) == (
                tuple(sorted(g.directed)),
                tuple(sorted(g.bidirected)),
            )
            assert (row.simple, row.identifiable) == (is_simple(g), identifiable)
            assert row.labeled_count == math.factorial(n) // n_aut


def _check_scan_and_fixpoint_tables(n, dmasks, bmasks):
    """The oracle's bitset scan against ``_exhaustive_set`` and pass 1's
    tabulated fixpoint against ``_violating_set``, on each ``(dmask, bmask)``."""
    census, criterion = semident.census, semident.criterion
    tables = census._mask_tables(n)
    sets, sinks = census._fixpoint_sets(n, dmasks, bmasks)
    for dmask, bmask, a, y in zip(dmasks.tolist(), bmasks.tolist(), sets.tolist(), sinks.tolist()):
        parents, siblings = tables.parents[dmask], tables.siblings[bmask]
        assert census._table_scan(n, dmask, bmask) == criterion._exhaustive_set(parents, siblings)
        assert ((a, y) if a else None) == criterion._violating_set(parents, siblings)


@pytest.mark.parametrize("simple_only", [False, True])
def test_tables_match_the_scan_and_the_fixpoint_on_every_representative(simple_only):
    for n in range(1, 5):
        reps = semident.census._classify(n, simple_only)
        _check_scan_and_fixpoint_tables(n, reps.dmasks, reps.bmasks)


def test_tables_match_the_scan_and_the_fixpoint_on_sampled_five_node_representatives():
    dmasks, bmasks = np.random.default_rng(26).integers(0, 1 << 10, size=(2, 20_000))
    _check_scan_and_fixpoint_tables(5, dmasks, bmasks)


def test_census_report_parallel_matches_serial():
    serial = census_report(3)
    parallel = census_report(3, jobs=2)
    assert serial.to_json() == parallel.to_json()
    assert serial.to_csv() == parallel.to_csv()


def test_census_report_cap():
    with pytest.raises(SemidentError):
        census_report(6)


@pytest.mark.parametrize(
    "n, jobs",
    [(2.5, 1), ("3", 1), (3.0, 1), (2, 1.5), (2, "2")],
    ids=["float-n", "str-n", "integral-float-n", "float-jobs", "str-jobs"],
)
def test_census_report_rejects_non_integer_arguments(n, jobs):
    with pytest.raises(SemidentError, match="integer"):
        census_report(n, jobs=jobs)


@pytest.mark.parametrize("simple_only", ["yes", 1, None])
def test_census_report_rejects_a_non_boolean_simple_only(simple_only):
    with pytest.raises(SemidentError, match="boolean simple_only"):
        census_report(2, simple_only=simple_only)


def test_census_report_takes_numpy_scalars_and_reports_plain_json():
    report = census_report(np.int64(2), simple_only=np.True_)
    assert type(report.n) is int and report.simple_only is True
    assert json.dumps(report.to_json()) == json.dumps(census_report(2, simple_only=True).to_json())


def test_census_report_jobs_validated_and_capped(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for multiprocessing.Pool; runs the work in-process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=1):
            return map(func, iterable)

    monkeypatch.setattr(semident.census, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for jobs in (0, -3):
        with pytest.raises(SemidentError):
            census_report(2, jobs=jobs)
    serial = census_report(3)
    assert sizes == []
    capped = census_report(3, jobs=100000)
    assert sizes == [2]
    assert capped.to_json() == serial.to_json()
    assert capped.to_csv() == serial.to_csv()


def _labelings(directed, bidirected, n):
    """Every distinct labeled graph reached from one graph by relabelling its nodes."""
    return {
        (
            frozenset((p[i - 1], p[j - 1]) for i, j in directed),
            frozenset((min(p[i - 1], p[j - 1]), max(p[i - 1], p[j - 1])) for i, j in bidirected),
        )
        for p in permutations(range(1, n + 1))
    }


@pytest.mark.parametrize("n, expected", [(2, 6), (3, 200), (4, 34752)])
def test_labeled_counts_match_brute_force(n, expected):
    # labeled acyclic mixed graphs: labeled DAGs (OEIS A003024) x 2^C(n,2)
    labeled = set()
    for g in enumerate_graphs(n):
        labeled |= _labelings(g.directed, g.bidirected, n)
    assert len(labeled) == expected
    report = census_report(n)
    assert report.labeled_total == expected
    for row in report.rows:
        assert row.labeled_count == len(_labelings(row.directed, row.bidirected, n))


def _mask_graph(n, dmask, bmask):
    """The upper-triangular graph on n nodes whose pair masks are ``(dmask, bmask)``."""
    edges = semident.census._mask_tables(n).edges
    return MixedGraph(m=n, directed=edges[dmask], bidirected=edges[bmask])


@pytest.mark.parametrize("n, simple_only", [(3, False), (4, True)])
def test_oracle_runs_once_per_class(count_calls, n, simple_only):
    # the kernel's arguments are (key, n, dmask, bmask)
    calls = count_calls(semident.census, "_oracle")
    report = census_report(n, simple_only=simple_only)
    assert not report.disagreements
    assert len(calls) == report.unlabeled_total
    assert len({canonical_form(_mask_graph(*args[1:4])) for args in calls}) == report.unlabeled_total


def test_flipped_oracle_answer_is_a_disagreement(monkeypatch, capsys):
    oracle = semident.census._oracle
    target = canonical_form(MixedGraph(m=3, directed={(1, 2), (2, 3)}, bidirected={(2, 3)}))

    def flipped(key, n, dmask, bmask):
        verdict = oracle(key, n, dmask, bmask)
        if canonical_form(_mask_graph(n, dmask, bmask)) == target:
            return OracleVerdict(not verdict.injective, "flipped")
        return verdict

    monkeypatch.setattr(semident.census, "_oracle", flipped)
    report = census_report(3)
    (row,) = [r for r in report.rows if r.key == target]
    assert report.disagreements == [(row.directed, row.bidirected, "oracle")]
    assert main(["census", "--n", "3"]) == 2
    (item,) = json.loads(capsys.readouterr().out)["disagreements"]
    assert item["reason"] == "oracle"


def test_flipped_verdict_of_a_later_representative_is_a_disagreement(monkeypatch):
    seen = set()
    for g in enumerate_graphs(3):
        key = canonical_form(g)
        if key in seen:
            later = g  # not the first representative of its class
            break
        seen.add(key)
    census = semident.census
    later_dmask, later_bmask = census._pair_masks(later)
    search = census._fixpoint_sets

    def flipped(n, dmasks, bmasks):
        sets, sinks = search(n, dmasks, bmasks)
        (i,) = np.flatnonzero((dmasks == later_dmask) & (bmasks == later_bmask))
        sets[i] = 0 if sets[i] else 0b110
        return sets, sinks

    monkeypatch.setattr(census, "_fixpoint_sets", flipped)
    report = census_report(3)
    edges = (tuple(sorted(later.directed)), tuple(sorted(later.bidirected)))
    assert report.disagreements == [(*edges, "verdict")]
    assert report.to_json()["disagreements"] == [
        {"directed": list(edges[0]), "bidirected": list(edges[1]), "reason": "verdict"}
    ]


def test_raising_oracle_is_a_disagreement_with_its_message(monkeypatch):
    oracle = semident.census._oracle
    target = canonical_form(MixedGraph(m=3, directed={(1, 2), (2, 3)}, bidirected={(2, 3)}))

    def raising(key, n, dmask, bmask):
        if canonical_form(_mask_graph(n, dmask, bmask)) == target:
            raise SemidentError("witness construction produced an invalid pair")
        return oracle(key, n, dmask, bmask)

    monkeypatch.setattr(semident.census, "_oracle", raising)
    report = census_report(3)
    (row,) = [r for r in report.rows if r.key == target]
    reason = "oracle error: witness construction produced an invalid pair"
    assert report.disagreements == [(row.directed, row.bidirected, reason)]
    assert report.to_json()["disagreements"][0]["reason"] == reason


@pytest.fixture(scope="module")
def classes_up_to_four():
    """(key, g, topo, to_topo, hit) for the first representative of every class on n <= 4.

    ``topo`` is ``g`` relabeled topologically by ``to_topo``, and ``hit`` the
    exhaustive scan's violating set of ``topo`` (None for an injective class).
    """
    out, seen = [], set()
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            key = canonical_form(g)
            if key not in seen:
                seen.add(key)
                topo, to_topo = relabel_topologically(g)
                out.append((key, g, topo, to_topo, find_violating_set_exhaustive(topo)))
    return out


def _random_graphs(n, count, seed):
    """``count`` acyclic mixed graphs on n nodes, each edge present with probability 1/2,
    under a random labeling."""
    rng = random.Random(seed)
    pairs = list(combinations(range(1, n + 1), 2))
    for _ in range(count):
        perm = rng.sample(range(1, n + 1), n)
        yield MixedGraph(
            m=n,
            directed={(perm[i - 1], perm[j - 1]) for i, j in pairs if rng.random() < 0.5},
            bidirected={(perm[i - 1], perm[j - 1]) for i, j in pairs if rng.random() < 0.5},
        )


def test_census_oracle_makes_no_float_rank_decision(count_calls):
    calls = count_calls(linalg, "matrix_rank")
    report = census_report(4)
    assert not report.disagreements
    # every injective class walks its three steps at the exact probe point
    assert len(calls) >= 3 * report.unlabeled_count(identifiable=True)
    assert all(args[0].dtype == object for args in calls)


def test_identity_point_closed_form_matches_the_exact_walk(monkeypatch):
    # force the injective branch on every representative and let the exact
    # point pass, so only the closed form for Lambda = 0, Omega = I can raise
    census = semident.census
    monkeypatch.setattr(census, "_table_scan", lambda n, dmask, bmask: None)
    monkeypatch.setattr(census, "_step_records", lambda parents, siblings, lam, omega: iter(()))
    failed = 0
    for n in range(1, 5):
        masks = range(len(census._mask_tables(n).edges))
        lam, omega = linalg.zeros(n, n, "rational"), linalg.identity(n, "rational")
        for dmask in masks:
            for bmask in masks:
                g = _mask_graph(n, dmask, bmask)
                walk = _failing_steps(g, lam, omega)
                assert bool(walk) == bool(dmask & bmask)
                if not walk:
                    assert census._oracle((n, dmask, bmask), n, dmask, bmask).injective
                    continue
                message = f"subset scan says injective but rank fails at step {walk[0]}"
                with pytest.raises(SemidentError) as exc:
                    census._oracle((n, dmask, bmask), n, dmask, bmask)
                assert str(exc.value) == message
                failed += 1
    # the representatives that are not simple: 4^k - 3^k of them on k pairs
    assert failed == (4 - 3) + (64 - 27) + (4096 - 729)


def _failing_steps(g, lam, omega):
    """The steps whose rank condition fails at (``lam``, ``omega``), from one walk of ``g``'s masks."""
    return [rec.step for rec in _step_records(g._parents, g._siblings, lam, omega) if not rec.passed]


def _reference_probe_point(topo, key):
    """``census._probe_point`` as a loop over edges: the top 17 of 64 random
    bits per entry, shifted onto [-2**16, 2**16)."""
    seed = int.from_bytes(hashlib.sha256(repr(key).encode()).digest()[:8], "big")
    rng = random.Random(seed)
    m = topo.m
    lam = [[0] * m for _ in range(m)]
    omega = [[0] * m for _ in range(m)]
    for kind, edges in (("d", topo.directed), ("b", topo.bidirected)):
        for i, j in sorted(edges):
            v = (rng.getrandbits(64) >> 47) - 2**16
            if kind == "d":
                lam[i - 1][j - 1] = v
            else:
                omega[i - 1][j - 1] = omega[j - 1][i - 1] = v
    for i in range(m):
        omega[i][i] = 1 + sum(abs(v) for v in omega[i])
    return lam, omega


def test_probe_point_is_one_valid_draw_per_class(classes_up_to_four):
    checked = 0
    for key, _, topo, _, hit in classes_up_to_four:
        if hit is not None:
            continue
        m = topo.m
        edges = tuple(sorted(topo.directed)), tuple(sorted(topo.bidirected))
        lam, omega = semident.census._probe_point(m, *edges, key)
        again = semident.census._probe_point(m, *edges, key)
        assert np.array_equal(lam, again[0]) and np.array_equal(omega, again[1])
        assert lam.shape == omega.shape == (m, m)
        assert lam.dtype == omega.dtype == object
        assert all(type(v) is int for v in (*lam.flat, *omega.flat))
        on_lam = np.zeros((m, m), dtype=bool)
        for i, j in topo.directed:
            on_lam[i - 1, j - 1] = True
        on_omega = np.eye(m, dtype=bool)
        for i, j in topo.bidirected:
            on_omega[i - 1, j - 1] = on_omega[j - 1, i - 1] = True
        assert not lam[~on_lam].any() and not omega[~on_omega].any()
        off = omega[~np.eye(m, dtype=bool)]
        assert all(-(2**16) <= v < 2**16 for v in (*lam.flat, *off))
        assert np.array_equal(omega, omega.T)
        # strict diagonal dominance, hence positive definiteness
        for i in range(m):
            assert omega[i, i] > sum(abs(omega[i, j]) for j in range(m) if j != i)
        assert (lam.tolist(), omega.tolist()) == _reference_probe_point(topo, key)
        checked += 1
    assert checked == 209  # the injective classes on n <= 4, 190 of them at n = 4


def _rebind_probe_point(monkeypatch, omega_diagonal):
    """Rebind ``census._probe_point`` to the exact point Lambda = 0,
    Omega = diag(``omega_diagonal``), and return that point."""
    n = len(omega_diagonal)
    point = linalg.zeros(n, n, "rational"), linalg.to_array(np.diag(omega_diagonal), "rational")
    monkeypatch.setattr(semident.census, "_probe_point", lambda m, directed, bidirected, key: point)
    return point


def test_degenerate_probe_raises_the_per_point_message(monkeypatch):
    g = MixedGraph(m=4, directed={(1, 2), (2, 3), (3, 4)})  # a chain: injective
    # omega_33 = 0 loses rank at step 3 only; omega_22 = omega_33 = 0 at steps 2 and 3
    for diagonal, failures in (([1, 1, 0, 1], [3]), ([1, 0, 0, 1], [2, 3])):
        lam, omega = _rebind_probe_point(monkeypatch, diagonal)
        assert _failing_steps(g, lam, omega) == failures
        with pytest.raises(SemidentError) as exc:
            injectivity_oracle(g)
        assert str(exc.value) == f"subset scan says injective but rank fails at step {failures[0]}"


def test_first_failing_probe_names_its_own_step(monkeypatch):
    # a chain with the bow 3 -> 4, 3 <-> 4, which the scan is made to call injective
    g = MixedGraph(m=4, directed={(1, 2), (2, 3), (3, 4)}, bidirected={(3, 4)})
    monkeypatch.setattr(semident.census, "_table_scan", lambda n, dmask, bmask: None)
    # the exact point fails every step, but Lambda = 0, Omega = I comes first
    # and loses rank at step 3 only
    lam, omega = _rebind_probe_point(monkeypatch, [0, 0, 0, 0])
    assert _failing_steps(g, lam, omega) == [1, 2, 3]
    identity = linalg.zeros(4, 4, "rational"), linalg.identity(4, "rational")
    assert _failing_steps(g, *identity) == [3]
    with pytest.raises(SemidentError) as exc:
        injectivity_oracle(g)
    assert str(exc.value) == "subset scan says injective but rank fails at step 3"


def _lift(m, pos, a, fill):
    """``a`` at the rows and columns ``pos`` of an m x m rational ``fill`` (zero or identity)."""
    out = linalg.identity(m, "rational") if fill == "identity" else linalg.zeros(m, m, "rational")
    out[np.ix_(pos, pos)] = a
    return out


def _induced_subgraph(g, nodes):
    """G_A with nodes relabeled 1..|A| ascending, and the map new -> old."""
    back = dict(enumerate(sorted(nodes), 1))
    to_new = {old: new for new, old in back.items()}

    def inside(edges):
        return {(to_new[i], to_new[j]) for i, j in edges if i in to_new and j in to_new}

    return MixedGraph(m=len(back), directed=inside(g.directed), bidirected=inside(g.bidirected)), back


def _reference_skeleton(topo, to_topo, a):
    """``witness._skeleton`` as it was before its memo: an induced subgraph and two BFS trees."""
    sub, back_to_topo = _induced_subgraph(topo, a)
    arb, tree = (_bfs(adj, sub.m) for adj in (sub._parents, sub._siblings))
    skeleton = MixedGraph(
        m=sub.m,
        directed={(v, w) for v, w in arb.items() if w is not None},
        bidirected={(v, w) for v, w in tree.items() if w is not None},
    )
    to_orig = {new: old for old, new in to_topo.items()}
    return skeleton, [to_orig[back_to_topo[k]] - 1 for k in range(1, sub.m + 1)]


def _oracle_witness(n, dmask, bmask, a):
    """The skeleton check ``census._oracle`` makes inside the violating set ``a``."""
    census = semident.census
    trees = census._mask_tree(n, "->", dmask, a), census._mask_tree(n, "<->", bmask, a)
    return census._skeleton_witness(a.bit_count(), *trees)


def test_oracle_witness_equals_witness_from_set(classes_up_to_four):
    noninjective = [
        (g, topo, to_topo, hit)
        for _, g, topo, to_topo, hit in classes_up_to_four
        if hit is not None
    ]
    assert len(noninjective) == 1403  # 1377 noninjective classes on four nodes, 26 on fewer
    for g in _random_graphs(5, 200, seed=11):
        topo, to_topo = relabel_topologically(g)
        hit = find_violating_set_exhaustive(topo)
        if hit is not None:
            noninjective.append((g, topo, to_topo, hit))
    assert len(noninjective) > 1403 + 150
    for g, topo, to_topo, hit in noninjective:
        masks = semident.census._pair_masks(topo)
        check = _oracle_witness(topo.m, *masks, _node_mask(topo, hit[0]))
        ref = witness_from_set(g, topo, to_topo, hit[0], "rational")
        assert (check.residual, check.separation) == (ref.residual, ref.separation)
        assert check.residual == 0 and check.separation != 0
        skeleton, pos = witness._skeleton(topo, to_topo, hit[0])
        assert (skeleton, pos) == _reference_skeleton(topo, to_topo, hit[0])
        # off the skeleton Lambda = 0 and Omega = I, and Sigma is the skeleton's in an identity
        lam_a, omega_a, lam_b, omega_b = check.points
        lifted = (
            _lift(g.m, pos, lam_a, "zeros"),
            _lift(g.m, pos, omega_a, "identity"),
            _lift(g.m, pos, lam_b, "zeros"),
            _lift(g.m, pos, omega_b, "identity"),
            _lift(g.m, pos, check.sigma, "identity"),
        )
        for a, b in zip(lifted, (*ref.point_a, *ref.point_b, ref.sigma)):
            assert a.dtype == b.dtype == object
            assert np.array_equal(a, b)
            assert all(type(x) is type(y) for x, y in zip(a.flat, b.flat))


@pytest.fixture
def fresh_tree_memo():
    """``census._mask_tree`` with its memo cleared before and after the test."""
    semident.census._mask_tree.cache_clear()
    yield semident.census._mask_tree
    semident.census._mask_tree.cache_clear()


def test_oracle_raises_on_a_skeleton_edge_missing_from_the_graph(
    monkeypatch, iv_graph, fresh_tree_memo
):
    census = semident.census
    dmask, bmask = census._pair_masks(iv_graph)
    a, _ = census._table_scan(3, dmask, bmask)
    trees = {False: fresh_tree_memo(3, "->", dmask, a), True: fresh_tree_memo(3, "<->", bmask, a)}
    # the iv graph's skeleton trees, checked on graphs that lack one of their edges
    monkeypatch.setattr(witness, "_skeleton_tree", lambda adj, mask, symmetric=False: trees[symmetric])
    fresh_tree_memo.cache_clear()
    without_bow = census._pair_masks(MixedGraph(m=3, directed={(1, 2)}, bidirected={(2, 3)}))
    with pytest.raises(SupportViolationError, match="skeleton edge 1->2 maps to 2->3, not an edge"):
        fresh_tree_memo(3, "->", without_bow[0], a)
    without_sibling = census._pair_masks(MixedGraph(m=3, directed={(1, 2), (2, 3)}))
    with pytest.raises(SupportViolationError, match="edge 1<->2 maps to 2<->3, not an edge"):
        fresh_tree_memo(3, "<->", without_sibling[1], a)


def test_skeleton_edge_off_the_graph_is_an_oracle_error_in_the_census(
    monkeypatch, iv_graph, fresh_tree_memo
):
    census = semident.census
    target = canonical_form(iv_graph)
    iv_parents = census._mask_tables(3).parents[census._pair_masks(iv_graph)[0]]
    tree_of = witness._skeleton_tree

    def reversed_edges(adj, mask, symmetric=False):
        tree = tree_of(adj, mask, symmetric)
        # the iv graph is its class's only upper-triangular representative,
        # and the only one on three nodes whose scan finds {2, 3} in this part
        if (adj, mask, symmetric) == (iv_parents, 0b1100, False):
            return tuple((w, v) for v, w in tree)
        return tree

    monkeypatch.setattr(witness, "_skeleton_tree", reversed_edges)
    report = census_report(3)
    (row,) = [r for r in report.rows if r.key == target]
    (item,) = report.disagreements
    assert item[:2] == (row.directed, row.bidirected)
    assert item.reason == "oracle error: skeleton edge 2->1 maps to 3->2, not an edge of the graph"


def test_memoized_skeleton_trees_match_the_graph_walk():
    census = semident.census
    checked = 0
    for n in range(1, 5):
        for _, dmask, bmask in _first_representatives(n):
            hit = census._table_scan(n, dmask, bmask)
            if hit is None:
                continue
            a = hit[0]
            memo = (census._mask_tree(n, "->", dmask, a), census._mask_tree(n, "<->", bmask, a))
            g = _mask_graph(n, dmask, bmask)
            trees = witness._skeleton_tree(g._parents, a), witness._skeleton_tree(g._siblings, a, True)
            assert trees == memo
            identity = {v: v for v in g.nodes}
            skeleton, pos = _reference_skeleton(g, identity, _members(a))
            assert skeleton == MixedGraph(m=len(pos), directed=memo[0], bidirected=memo[1])
            assert pos == [v - 1 for v in _members(a)]
            assert witness._skeleton(g, identity, _members(a)) == (skeleton, pos)
            checked += 1
    assert checked == 1403  # the noninjective classes on n <= 4


def test_census_oracle_shares_only_closure_with_the_fixpoint(count_calls):
    census = semident.census
    classes = _first_representatives(4)
    calls = [
        count_calls(census, "_fixpoint_sets"),
        count_calls(census, "_fixpoint_tables"),
        count_calls(semident.criterion, "_violating_set"),
    ]
    verdicts = [census._oracle(key, 4, dmask, bmask) for key, dmask, bmask in classes]
    assert sum(not v.injective for v in verdicts) == 1377
    assert calls == [[], [], []]


def test_skeleton_memo_is_read_only_and_used_by_the_oracle_only(iv_graph):
    memo = semident.census._skeleton_witness
    memo.cache_clear()
    for backend in ("float", "rational"):
        construct_witness(iv_graph, backend=backend)
    assert memo.cache_info().currsize == 0
    first = injectivity_oracle(iv_graph)
    assert memo.cache_info()[:2] == (0, 1)  # hits, misses
    assert injectivity_oracle(iv_graph) == first
    assert memo.cache_info()[:2] == (1, 1)
    # a relabelled copy has the same skeleton, and the census shares it
    assert injectivity_oracle(relabel(iv_graph, {1: 3, 2: 1, 3: 2})) == first
    assert memo.cache_info()[:2] == (2, 1)
    topo, to_topo = relabel_topologically(iv_graph)
    skeleton, _ = witness._skeleton(topo, to_topo, find_violating_set_exhaustive(topo)[0])
    cached = memo(skeleton.m, tuple(sorted(skeleton.directed)), tuple(sorted(skeleton.bidirected)))
    for a in (*cached.points, cached.sigma):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0


def _first_representatives(n):
    """(key, dmask, bmask) of every class's first representative on n nodes, in census order."""
    census = semident.census
    edges = census._permutation_table(n)[0]
    reps = census._classify(n, False)
    first = {}
    for dmask, bmask, best in zip(reps.dmasks.tolist(), reps.bmasks.tolist(), reps.best.tolist()):
        first.setdefault(best, (census._key_of(n, edges, best), dmask, bmask))
    return list(first.values())


def test_census_kernel_matches_the_public_oracle_on_relabeled_classes():
    # the census runs the kernel on pass-1 masks; the public entry runs it on
    # the canonical graph, so its evidence does not depend on the labeling
    rng = random.Random(21)
    checked, moved = 0, 0
    for n in range(1, 5):
        for key, dmask, bmask in _first_representatives(n):
            g = _mask_graph(n, dmask, bmask)
            kernel = semident.census._oracle(key, n, dmask, bmask)
            public = injectivity_oracle(g)
            assert public == kernel
            if kernel.injective:
                assert kernel.evidence == "exact rank conditions at 2 points"
            for _ in range(3):
                perm = rng.sample(range(1, n + 1), n)
                h = relabel(g, {v: perm[v - 1] for v in g.nodes})
                moved += injectivity_oracle(h) != public
            checked += 1
    assert checked == 1 + 4 + 40 + 1567
    assert moved == 0


def test_census_pass_two_builds_graphs_only_for_skeleton_memo_misses(count_calls):
    memo = semident.census._skeleton_witness
    memo.cache_clear()
    relabels = count_calls(semident.graphs, "relabel_topologically")
    keys = count_calls(semident.census, "canonical_form")
    graphs = count_calls(semident.graphs, "MixedGraph")
    report = census_report(4)
    built = len(graphs)
    assert not report.disagreements
    assert relabels == [] and keys == []
    info = memo.cache_info()
    injective = report.unlabeled_count(identifiable=True)
    noninjective = report.unlabeled_count(identifiable=False)
    # the injective step walks read masks; a graph is built per skeleton-memo miss only
    assert (injective, noninjective) == (190, 1377)
    assert built == info.misses == 87
    assert info.hits + info.misses == noninjective
    # one entry per distinct skeleton, taken here on the graph path
    skeletons = set()
    for row in report.rows:
        if not row.identifiable:
            g = MixedGraph(m=4, directed=row.directed, bidirected=row.bidirected)
            a, _ = find_violating_set_exhaustive(g)
            skeletons.add(witness._skeleton(g, {v: v for v in g.nodes}, a)[0])
    assert info.currsize == info.misses == len(skeletons) < noninjective
