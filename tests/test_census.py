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
    DEFAULT_TRIALS,
    OracleVerdict,
    canonical_form,
    census_report,
    enumerate_graphs,
    injectivity_oracle,
)
from semident.cli import main
from semident.criterion import check_global_identifiability, find_violating_set_exhaustive
from semident.errors import SemidentError, SupportViolationError
from semident.graphs import (
    MixedGraph,
    _bfs,
    induced_subgraph,
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
        verdict = injectivity_oracle(g, trials=5)
        assert verdict.injective == is_simple(g)


def test_oracle_runs_no_fixpoint_search(count_calls):
    # the oracle cross-checks the fixpoint search, so it must not run it
    calls = count_calls(semident.criterion, "find_violating_set")
    verdicts = [injectivity_oracle(g, trials=1) for g in enumerate_graphs(3)]
    assert any(not v.injective for v in verdicts)
    assert calls == []


def test_oracle_instrumental_variable(iv_graph):
    verdict = injectivity_oracle(iv_graph, trials=5)
    assert not verdict.injective
    assert "witness" in verdict.evidence


def test_oracle_matches_criterion_on_sample():
    rng = random.Random(12)
    graphs = list(enumerate_graphs(4))
    rng.shuffle(graphs)
    for g in graphs[:120]:
        assert (
            injectivity_oracle(g, trials=3).injective
            == check_global_identifiability(g).identifiable
        )


def test_census_report_three_nodes():
    report = census_report(3, trials=5)
    assert not report.disagreements
    # on three nodes injectivity coincides with simplicity
    assert report.unlabeled_count(simple=True, identifiable=False) == 0
    assert report.unlabeled_count(simple=False, identifiable=True) == 0
    assert report.labeled_total == 200  # 25 labeled DAGs x 2^3 bidirected parts


def test_census_report_two_nodes_json():
    data = census_report(2, trials=5).to_json()
    assert data["n"] == 2
    assert data["unlabeled_total"] == 4
    assert data["labeled_total"] == 6
    assert data["counts"]["unlabeled"]["noninjective"] == 1
    assert data["disagreements"] == []


def test_census_report_csv_shape():
    csv_text = census_report(2, trials=3).to_csv()
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
    # under a minute serially; deselected by default, run with ``pytest -m slow``
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
        for dmask in range(1 << len(pairs)):
            for bmask, best, n_aut, identifiable in zip(
                *census._classify_directed(dmask, n, simple_only)
            ):
                g = next(graphs)
                assert g.directed == {p for k, p in enumerate(pairs) if dmask >> k & 1}
                assert g.bidirected == {p for k, p in enumerate(pairs) if bmask >> k & 1}
                key = census._key_of(n, edges, best)
                assert (key, n_aut) == census._canonical(g)
                assert (not dmask & bmask) == is_simple(g)
                assert identifiable == (semident.criterion.find_violating_set(g) is None)
                first.setdefault(key, (g, identifiable, n_aut))
        assert next(graphs, None) is None
        report = census_report(n, simple_only=simple_only, trials=0)
        assert [row.key for row in report.rows] == list(first)
        for row in report.rows:
            g, identifiable, n_aut = first[row.key]
            assert (row.directed, row.bidirected) == (
                tuple(sorted(g.directed)),
                tuple(sorted(g.bidirected)),
            )
            assert (row.simple, row.identifiable) == (is_simple(g), identifiable)
            assert row.labeled_count == math.factorial(n) // n_aut


def test_census_report_parallel_matches_serial():
    serial = census_report(3, trials=3)
    parallel = census_report(3, trials=3, jobs=2)
    assert serial.to_json() == parallel.to_json()
    assert serial.to_csv() == parallel.to_csv()


def test_census_report_cap():
    with pytest.raises(SemidentError):
        census_report(6)


def test_census_report_rejects_negative_trials():
    with pytest.raises(SemidentError, match="trials >= 0"):
        census_report(2, trials=-3)


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
    serial = census_report(3, trials=3)
    assert sizes == []
    capped = census_report(3, trials=3, jobs=100000)
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
    report = census_report(n, trials=1)
    assert report.labeled_total == expected
    for row in report.rows:
        assert row.labeled_count == len(_labelings(row.directed, row.bidirected, n))


@pytest.mark.parametrize("n, simple_only", [(3, False), (4, True)])
def test_oracle_runs_once_per_class(count_calls, n, simple_only):
    calls = count_calls(semident.census, "injectivity_oracle")
    report = census_report(n, simple_only=simple_only, trials=1)
    assert not report.disagreements
    assert len(calls) == report.unlabeled_total
    assert len({canonical_form(args[0]) for args in calls}) == report.unlabeled_total


def test_flipped_oracle_answer_is_a_disagreement(monkeypatch, capsys):
    oracle = semident.census.injectivity_oracle
    target = canonical_form(MixedGraph(m=3, directed={(1, 2), (2, 3)}, bidirected={(2, 3)}))

    def flipped(g, trials):
        verdict = oracle(g, trials=trials)
        if canonical_form(g) == target:
            return OracleVerdict(not verdict.injective, "flipped")
        return verdict

    monkeypatch.setattr(semident.census, "injectivity_oracle", flipped)
    report = census_report(3, trials=1)
    (row,) = [r for r in report.rows if r.key == target]
    assert report.disagreements == [(row.directed, row.bidirected, "oracle")]
    assert main(["census", "--n", "3", "--trials", "1"]) == 2
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
    search = semident.census._violating_set

    def flipped(parents, siblings):
        hit = search(parents, siblings)
        if (parents, siblings) == (later._parents, later._siblings):
            return (0b110, 2) if hit is None else None
        return hit

    monkeypatch.setattr(semident.census, "_violating_set", flipped)
    report = census_report(3, trials=1)
    edges = (tuple(sorted(later.directed)), tuple(sorted(later.bidirected)))
    assert report.disagreements == [(*edges, "verdict")]
    assert report.to_json()["disagreements"] == [
        {"directed": list(edges[0]), "bidirected": list(edges[1]), "reason": "verdict"}
    ]


def test_raising_oracle_is_a_disagreement_with_its_message(monkeypatch):
    oracle = semident.census.injectivity_oracle
    target = canonical_form(MixedGraph(m=3, directed={(1, 2), (2, 3)}, bidirected={(2, 3)}))

    def raising(g, trials):
        if canonical_form(g) == target:
            raise SemidentError("witness construction produced an invalid pair")
        return oracle(g, trials=trials)

    monkeypatch.setattr(semident.census, "injectivity_oracle", raising)
    report = census_report(3, trials=1)
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


def _per_point_ranks_match_batched(topo, key):
    lam, omega = semident.census._probe_points(topo, key, DEFAULT_TRIALS)
    assert lam.shape == omega.shape == (DEFAULT_TRIALS + 1, topo.m, topo.m)
    batched = [rec.rank.tolist() for rec in _step_records(topo, lam, omega)]
    for k in range(len(lam)):
        single = [rec.rank for rec in _step_records(topo, lam[k], omega[k])]
        assert [ranks[k] for ranks in batched] == single


def test_batched_probe_ranks_match_per_point_ranks(classes_up_to_four):
    for key, _, topo, _, hit in classes_up_to_four:
        if hit is None:
            _per_point_ranks_match_batched(topo, key)
    for g in _random_graphs(5, 200, seed=10):
        _per_point_ranks_match_batched(relabel_topologically(g)[0], canonical_form(g))


def test_probe_seeds_match_one_hash_per_probe(monkeypatch, classes_up_to_four):
    seeds = []
    sample = semident.census.sample_parameters

    def recording(g, seed):
        seeds.append(seed)
        return sample(g, seed)

    monkeypatch.setattr(semident.census, "sample_parameters", recording)
    checked = 0
    for key, g, _, _, hit in classes_up_to_four:
        if hit is None and g.m == 4:
            seeds.clear()
            injectivity_oracle(g)
            # the seed of probe k as it was once computed: one SHA-256 per probe
            expected = [
                int.from_bytes(hashlib.sha256(repr(key).encode()).digest()[:8], "big") ^ k
                for k in range(DEFAULT_TRIALS)
            ]
            assert seeds == expected
            checked += 1
    assert checked == 190


def test_degenerate_probe_raises_the_per_point_message(monkeypatch):
    g = MixedGraph(m=4, directed={(1, 2), (2, 3), (3, 4)})  # a chain: injective
    key = canonical_form(g)
    topo, _ = relabel_topologically(g)
    base = semident.census._seed_from_key(key)
    # probe 3 loses rank at step 3 only (omega_33 = 0), probe 6 already at step 1
    degenerate = {
        base ^ 3: (np.zeros((4, 4)), np.diag([1.0, 1.0, 0.0, 1.0])),
        base ^ 6: (np.zeros((4, 4)), np.zeros((4, 4))),
    }
    sample = semident.census.sample_parameters
    monkeypatch.setattr(
        semident.census,
        "sample_parameters",
        lambda topo, seed: degenerate[seed] if seed in degenerate else sample(topo, seed),
    )
    # the oracle's loop before the points were stacked: point by point, step by step
    lam, omega = semident.census._probe_points(topo, key, DEFAULT_TRIALS)
    failures = [
        rec.step
        for k in range(len(lam))
        for rec in _step_records(topo, lam[k], omega[k])
        if not rec.passed
    ]
    assert failures == [3, 1, 2, 3]
    with pytest.raises(SemidentError) as exc:
        injectivity_oracle(g)
    assert str(exc.value) == "subset scan says injective but rank fails at step 3"


def test_first_failing_probe_names_its_own_step(monkeypatch):
    g = MixedGraph(m=4, directed={(1, 2), (2, 3), (3, 4)})  # a chain: injective
    key = canonical_form(g)
    topo, _ = relabel_topologically(g)
    base = semident.census._seed_from_key(key)
    # probe 2 loses rank at step 3 only, the later probe 7 at step 2 only
    degenerate = {
        base ^ 2: (np.zeros((4, 4)), np.diag([1.0, 1.0, 0.0, 1.0])),
        base ^ 7: (np.zeros((4, 4)), np.diag([1.0, 0.0, 1.0, 1.0])),
    }
    sample = semident.census.sample_parameters
    monkeypatch.setattr(
        semident.census,
        "sample_parameters",
        lambda topo, seed: degenerate[seed] if seed in degenerate else sample(topo, seed),
    )
    lam, omega = semident.census._probe_points(topo, key, DEFAULT_TRIALS)
    failures = [
        (k, rec.step)
        for k in range(len(lam))
        for rec in _step_records(topo, lam[k], omega[k])
        if not rec.passed
    ]
    assert failures == [(3, 3), (8, 2)]
    with pytest.raises(SemidentError) as exc:
        injectivity_oracle(g)
    assert str(exc.value) == "subset scan says injective but rank fails at step 3"


def _lift(m, pos, a, fill):
    """``a`` at the rows and columns ``pos`` of an m x m rational ``fill`` (zero or identity)."""
    out = linalg.identity(m, "rational") if fill == "identity" else linalg.zeros(m, m, "rational")
    out[np.ix_(pos, pos)] = a
    return out


def _reference_skeleton(topo, to_topo, a):
    """``witness._skeleton`` as it was before its memo: an induced subgraph and two BFS trees."""
    sub, back_to_topo = induced_subgraph(topo, a)
    arb, tree = (_bfs(adj, sub.m) for adj in (sub._parents, sub._siblings))
    skeleton = MixedGraph(
        m=sub.m,
        directed={(v, w) for v, w in arb.items() if w is not None},
        bidirected={(v, w) for v, w in tree.items() if w is not None},
    )
    to_orig = {new: old for old, new in to_topo.items()}
    return skeleton, [to_orig[back_to_topo[k]] - 1 for k in range(1, sub.m + 1)]


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
        check = semident.census._oracle_witness(g, topo, to_topo, hit[0])
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


def test_oracle_raises_on_a_skeleton_edge_missing_from_the_graph(iv_graph):
    topo, to_topo = relabel_topologically(iv_graph)
    (a, _) = find_violating_set_exhaustive(topo)
    without_bow = MixedGraph(m=3, directed={(1, 2)}, bidirected={(2, 3)})
    with pytest.raises(SupportViolationError, match="skeleton edge 1->2 maps to 2->3, not an edge"):
        semident.census._oracle_witness(without_bow, topo, to_topo, a)
    without_sibling = MixedGraph(m=3, directed={(1, 2), (2, 3)})
    with pytest.raises(SupportViolationError, match="edge 1<->2 maps to 2<->3, not an edge"):
        semident.census._oracle_witness(without_sibling, topo, to_topo, a)


def test_skeleton_edge_off_the_graph_is_an_oracle_error_in_the_census(monkeypatch, iv_graph):
    target = canonical_form(iv_graph)
    skeleton_of = witness._skeleton

    def reversed_positions(topo, to_topo, a):
        skeleton, pos = skeleton_of(topo, to_topo, a)
        return skeleton, pos[::-1] if canonical_form(topo) == target else pos

    monkeypatch.setattr(witness, "_skeleton", reversed_positions)
    report = census_report(3, trials=1)
    (row,) = [r for r in report.rows if r.key == target]
    (item,) = report.disagreements
    assert item[:2] == (row.directed, row.bidirected)
    assert item.reason.startswith("oracle error: skeleton edge 1->2 maps to ")
    assert item.reason.endswith(", not an edge of the graph")


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
    cached = memo(skeleton)
    for a in (*cached.points, cached.sigma):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0
