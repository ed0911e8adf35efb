"""Report-level properties on small runs: what the report says depends on the
judged rankings, not on how the files list them, on which run is "orig" or on
the order of the topic ids; a run replicates itself perfectly; every ordering
value stays in its range."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reprokit.effectiveness import MeasureConfig, parse_measure_spec
from reprokit.effects import EffectSummary
from reprokit.errors import UndefinedEffectError
from reprokit.report import build_replicate_report, build_reproduce_report, emit
from reprokit.trec_io import Qrels, Run, parse_qrels, parse_run

from conftest import make_run, random_qrels, random_run, swap_noise

MEASURES = [parse_measure_spec(s) for s in ("P@5", "AP@20", "nDCG@20")]


def _run_lines(run) -> list[str]:
    return [f"{topic} Q0 {doc} {rank} {score} {run.tag}"
            for topic, ranking in run.topics.items()
            for rank, (doc, score) in enumerate(zip(ranking.doc_ids, ranking.scores), start=1)]


def _qrels_lines(qrels) -> list[str]:
    return [f"{topic} 0 {doc} {grade}" for topic, docs in qrels.topics.items()
            for doc, grade in docs.items()]


def _replicate_json(orig: list[str], rpl: list[str], qrels: list[str]) -> str:
    rep = build_replicate_report(parse_run("\n".join(orig)), parse_run("\n".join(rpl)),
                                 parse_qrels("\n".join(qrels)), MEASURES, cutoffs=[5, 10])
    return emit(rep, "json")


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shuffler=st.randoms(use_true_random=False))
def test_shuffled_lines_give_the_same_report(seed, shuffler):
    rng = random.Random(seed)
    orig = random_run(rng, "orig", 4, 15)
    files = [_run_lines(orig), _run_lines(random_run(rng, "rpl", 4, 15)),
             _qrels_lines(random_qrels(rng, orig))]
    expected = _replicate_json(*files)
    for lines in files:
        shuffler.shuffle(lines)
    assert _replicate_json(*files) == expected


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_cutoff_rmse_row_holds_its_measure_at_that_cutoff(seed):
    # the row keeps the measure's label: P@5 under cutoff 10 is the RMSE of P@10
    rng = random.Random(seed)
    orig = random_run(rng, "orig", 4, 15)
    rpl = random_run(rng, "rpl", 4, 15)
    qrels = random_qrels(rng, orig)
    rep = build_replicate_report(orig, rpl, qrels, MEASURES, cutoffs=[3, 10])
    for k in (3, 10):
        at_k = [MeasureConfig(cfg.measure, k) for cfg in MEASURES]
        plain = build_replicate_report(orig, rpl, qrels, at_k)
        for cfg, cfg_k in zip(MEASURES, at_k):
            assert rep["cutoffs"][k][cfg.label]["rmse"] == plain["measures"][cfg_k.label]["rmse"]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_swaps=st.integers(0, 30))
def test_swapping_sides_negates_only_the_signed_delta(seed, n_swaps):
    # rpl permutes orig's documents: on different document sets the union
    # construction of tau-union is not symmetric
    rng = random.Random(seed)
    orig = random_run(rng, "orig", 4, 15)
    rpl = swap_noise(rng, orig, n_swaps, "rpl")
    qrels = random_qrels(rng, orig)
    forward = build_replicate_report(orig, rpl, qrels, MEASURES)
    backward = build_replicate_report(rpl, orig, qrels, MEASURES)
    assert backward["ordering"]["tau_union_mean"] == forward["ordering"]["tau_union_mean"]
    for label, block in forward["measures"].items():
        assert backward["measures"][label]["delta_arp_signed"] == -block["delta_arp_signed"]
        assert backward["measures"][label]["rmse"] == block["rmse"]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_run_replicates_itself_perfectly(seed):
    rng = random.Random(seed)
    run = random_run(rng, "run", 4, 15)
    b = random_run(rng, "b", 4, 15)
    qrels = random_qrels(rng, run)
    try:
        rep = build_replicate_report(run, run, qrels, MEASURES, baselines=(b, b))
    except UndefinedEffectError:  # b scores as well as run, or 0, on some measure
        assume(False)
    assert rep["ordering"]["tau_union_mean"] == 1.0
    assert rep["ordering"]["tau_intersection_mean"] == 1.0
    for label, block in rep["measures"].items():
        assert (block["delta_arp"], block["rmse"], block["p_value"]) == (0.0, 0.0, 1.0)
        assert (rep["effects"][label]["er"], rep["effects"][label]["delta_ri"]) == (1.0, 0.0)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tau_union_and_rbo_stay_in_range_at_every_cutoff(seed):
    # lists of different lengths over a shared pool: overlaps from none to all
    rng = random.Random(seed)
    pool = [f"d{i}" for i in range(40)]
    orig, rpl = (make_run(tag, {str(t): rng.sample(pool, rng.randint(2, 30)) for t in range(1, 5)})
                 for tag in ("orig", "rpl"))
    rep = build_replicate_report(orig, rpl, random_qrels(rng, orig), MEASURES,
                                 cutoffs=[1, 2, 5, 10, 40])
    values = {k: (block["ordering"]["tau_union"], block["ordering"]["rbo"])
              for k, block in rep["cutoffs"].items()}
    values[None] = (rep["ordering"]["tau_union_mean"], rep["ordering"]["rbo_mean"])
    assert values[1][0] is None  # one document per list pairs nothing
    for k, (tau, rbo) in values.items():
        assert k == 1 or -1.0 <= tau <= 1.0
        assert 0.0 <= rbo <= 1.0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.permutations(range(8)))
def test_effects_do_not_depend_on_topic_order(seed, order):
    # topics are compared in id order, so relabelling them reorders every sum over topics
    rng = random.Random(seed)
    orig = random_run(rng, "orig", 8, 15)
    runs = (orig, swap_noise(rng, orig, 10, "rpl"), random_run(rng, "b", 8, 15), random_run(rng, "b2", 8, 15))
    qrels = random_qrels(rng, orig)
    label = {str(301 + i): str(301 + j) for i, j in enumerate(order)}
    relabelled = [Run(run.tag, {label[t]: ranking for t, ranking in run.topics.items()}) for run in runs]

    def effects(orig, rpl, b, b_prime, qrels):
        try:
            return build_replicate_report(orig, rpl, qrels, MEASURES, baselines=(b, b_prime))["effects"]
        except UndefinedEffectError:  # a zero baseline mean or improvement
            assume(False)

    expected = effects(*runs, qrels)
    got = effects(*relabelled, Qrels({label[t]: docs for t, docs in qrels.topics.items()}))
    # every mean is a math.fsum, exactly rounded whatever the order of its terms, so
    # each block is equal: er, ri, ri_prime, delta_ri, region and dist
    assert got == expected


def test_every_effect_block_holds_exactly_the_summary_fields():
    orig = make_run("orig", {"1": ["a", "b", "c"], "2": ["d", "e", "f"]})
    rpl = make_run("rpl", {"1": ["b", "c", "a"], "2": ["e", "d", "f"]})
    b = make_run("b", {"1": ["x", "y", "z", "w", "a"], "2": ["e", "x", "y", "z", "w"]})
    qrels = parse_qrels("1 0 a 1\n1 0 b 1\n2 0 d 2\n2 0 e 1\n")
    replicate = build_replicate_report(orig, rpl, qrels, MEASURES, baselines=(b, b))
    reproduce = build_reproduce_report([(orig, b, qrels), (rpl, b, qrels)], MEASURES)
    for rep in (replicate, reproduce):
        assert list(rep["effects"]) == [c.label for c in MEASURES]
        for block in rep["effects"].values():
            assert tuple(block) == EffectSummary._fields
