"""Acceptance gate: one test per release criterion, in order.

Each test prints a single "criterion NN ... PASS" line on success (visible
under pytest -s); under pytest -v the test id itself gives the pass/fail line.
"""

import json
import math
import time
from collections import Counter

import numpy as np

from radreason.core import (
    Corpus,
    Option,
    PartitionTag,
    TaskType,
    VqaSample,
    label_by_answer,
)
from radreason.harness import bootstrap_ci
from radreason.mining import MinedChain, balance, filter_by_factuality
from radreason.observations import (
    ObservationSet,
    Polarity,
    Role,
    is_normalish,
)
from radreason.policy import (
    GrpoConfig,
    SftBatch,
    ToyPolicy,
    advantages,
    group_uniforms,
    grpo_objective,
    sample_group,
    sft_loss,
)
from radreason.rewards import RewardConfig, total_reward
from radreason.scoring import RatioResult, combine, completeness, effectiveness, factuality
from radreason.training import (
    SftConfig,
    make_toy_corpus,
    make_toy_policy,
    run_preset,
    train_grpo,
)

R = PartitionTag.REASONING_AUGMENTED
A = PartitionTag.ANSWER_ONLY


def _pass(number: int, name: str) -> None:
    print(f"criterion {number:02d} ({name}): PASS")


# a phrase alphabet with a mix of present and absent/normal findings
PHRASES = [
    "effusion",
    "no effusion",
    "cardiomegaly",
    "no cardiomegaly",
    "pneumothorax",
    "no pneumothorax",
    "edema",
    "rib fracture",
    "clear lungs",
    "atelectasis",
]


def _random_obs(rng, role):
    k = int(rng.integers(0, 5))
    picks = [PHRASES[i] for i in rng.choice(len(PHRASES), size=k, replace=False)]
    return ObservationSet.from_phrases(picks, role)


def test_criterion_01_metric_oracle_equivalence(plain_matcher):
    """Brute-force set-intersection oracle, synonyms disabled, exact equality."""

    def brute_pairs(obs_set):
        return [(o.normalized, o.polarity) for o in obs_set.items]

    def brute_matched(left, right):
        rset = set(brute_pairs(right))
        return sum(1 for p in brute_pairs(left) if p in rset)

    def brute_ratio(num, den):
        return 0.0 if den == 0 else num / den

    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(1000):
        obs_model = _random_obs(rng, Role.MODEL)
        obs_gt = _random_obs(rng, Role.GROUND_TRUTH)
        obs_report = _random_obs(rng, Role.REPORT)

        matched_f = brute_matched(obs_model, obs_report)
        rset = set(brute_pairs(obs_report))
        credits = sum(
            1
            for o in obs_model.items
            if (o.normalized, o.polarity) not in rset and o.polarity is Polarity.ABSENT_OR_NORMAL
        )
        want_rf = brute_ratio(matched_f + credits, len(obs_model))
        want_rc = brute_ratio(brute_matched(obs_gt, obs_model), len(obs_gt))
        want_re = brute_ratio(brute_matched(obs_model, obs_gt), len(obs_model))

        assert factuality(obs_model, obs_report, plain_matcher).value == want_rf
        assert completeness(obs_gt, obs_model, plain_matcher).value == want_rc
        assert effectiveness(obs_model, obs_gt, plain_matcher).value == want_re
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"metric oracle sweep took {elapsed:.1f}s"
    _pass(1, "metric oracle equivalence")


def test_criterion_02_worked_metric_fixture(plain_matcher):
    m = plain_matcher
    model = ObservationSet.from_phrases(
        ["effusion", "cardiomegaly", "pneumothorax"], Role.MODEL
    )
    report = ObservationSet.from_phrases(["effusion", "cardiomegaly"], Role.REPORT)
    gt = ObservationSet.from_phrases(["effusion", "edema"], Role.GROUND_TRUTH)

    rf = factuality(model, report, m)
    rc = completeness(gt, model, m)
    re_ = effectiveness(model, gt, m)
    assert (rf.value, rc.value, re_.value) == (2 / 3, 1 / 2, 1 / 3)
    assert combine(rf, rc, re_).radrscore == 0.5

    # third observation flipped to assert absence: only r_f moves (leniency)
    lenient = ObservationSet.from_phrases(
        ["effusion", "cardiomegaly", "no pneumothorax"], Role.MODEL
    )
    assert is_normalish(lenient.items[2])
    rf2 = factuality(lenient, report, m)
    rc2 = completeness(gt, lenient, m)
    re2 = effectiveness(lenient, gt, m)
    assert rf2.value == 1.0
    assert (rc2.value, re2.value) == (rc.value, re_.value)
    _pass(2, "worked metric fixture")


def test_criterion_03_combined_score_identity():
    rng = np.random.default_rng(103)
    for _ in range(10_000):
        vals = rng.uniform(0, 1, size=3)
        scores = combine(*(RatioResult(float(v), 0, 1) for v in vals))
        assert abs(scores.radrscore - vals.sum() / 3) <= 1e-12
    _pass(3, "combined score identity")


def _answer_only_sample():
    return VqaSample(
        id="da",
        task=TaskType.BINARY_DIAGNOSIS,
        images=("img/x.png",),
        question="Is there an effusion?",
        options=(Option("A", "yes"), Option("B", "no")),
        answer="A",
    )


def _reasoning_sample():
    return VqaSample(
        id="dr",
        task=TaskType.BINARY_DIAGNOSIS,
        images=("img/x.png",),
        question="Is there an effusion?",
        options=(Option("A", "yes"), Option("B", "no")),
        answer="A",
        report="There is a pleural effusion.",
        reasoning="There is a pleural effusion.",
    )


# (output, partition, expected format, expected outcome, expected process)
REWARD_CASES = [
    # answer-only: totals cover {0, 1, 2}
    ("A", A, 0.0, 0.0, 0.0),
    ("no tags at all", A, 0.0, 0.0, 0.0),
    ("<answer>B</answer>", A, 1.0, 0.0, 0.0),
    ("<answer>A</answer>", A, 1.0, 1.0, 0.0),
    ("<answer>yes</answer>", A, 1.0, 1.0, 0.0),
    ("<answer> a </answer>", A, 1.0, 1.0, 0.0),
    ("<think>x</think><answer>A</answer>", A, 1.0, 1.0, 0.0),
    ("<answer>A</answer><think>x</think>", A, 0.0, 1.0, 0.0),
    ("<think>unclosed <answer>A</answer>", A, 0.0, 1.0, 0.0),
    ("<answer>A) yes</answer>", A, 1.0, 1.0, 0.0),
    ("<answer></answer>", A, 1.0, 0.0, 0.0),
    ("<think></think><answer>B</answer>", A, 1.0, 0.0, 0.0),
    # reasoning-augmented: totals cover {0, 1, 2, 3}
    ("garbage", R, 0.0, 0.0, 0.0),
    ("<answer>A</answer>", R, 0.0, 1.0, 0.0),
    ("<think>pleural effusion</think><answer>A</answer>", R, 1.0, 1.0, 1.0),
    ("<think>rib fracture</think><answer>A</answer>", R, 1.0, 1.0, 0.0),
    ("<think>pleural effusion</think><answer>B</answer>", R, 1.0, 0.0, 1.0),
    ("<think>rib fracture</think><answer>B</answer>", R, 1.0, 0.0, 0.0),
    ("<think>no pneumothorax</think><answer>A</answer>", R, 1.0, 1.0, 1.0),
    ("<think>pleural effusion. rib fracture.</think><answer>A</answer>", R, 1.0, 1.0, 0.5),
    ("<think></think><answer>A</answer>", R, 1.0, 1.0, 0.0),
    ("<answer>A</answer><think>pleural effusion</think>", R, 0.0, 1.0, 1.0),
    ("<think>pleural effusion</think>", R, 0.0, 0.0, 1.0),
    ("<think>no pneumothorax. rib fracture.</think><answer>A</answer>", R, 1.0, 1.0, 0.5),
]


def test_criterion_04_reward_composition(matcher):
    assert len(REWARD_CASES) == 24
    cfg = RewardConfig(matcher=matcher)
    samples = {A: _answer_only_sample(), R: _reasoning_sample()}
    totals = {A: set(), R: set()}
    for output, part, want_f, want_o, want_p in REWARD_CASES:
        b = total_reward(output, samples[part], cfg)
        assert (b.format, b.outcome, b.process) == (want_f, want_o, want_p), output
        assert b.total == want_f + want_o + want_p
        totals[part].add(b.total)
    assert {0.0, 1.0, 2.0} <= totals[A]
    assert {0.0, 1.0, 2.0, 3.0} <= totals[R]

    # component independence: changing only the think text never moves the
    # format or outcome components
    pairs = [
        ("<think>pleural effusion</think><answer>A</answer>",
         "<think>rib fracture</think><answer>A</answer>"),
        ("<think>pleural effusion</think><answer>B</answer>",
         "<think>rib fracture</think><answer>B</answer>"),
    ]
    for left, right in pairs:
        bl = total_reward(left, samples[R], cfg)
        br = total_reward(right, samples[R], cfg)
        assert (bl.format, bl.outcome) == (br.format, br.outcome)
        assert bl.process != br.process
    _pass(4, "reward composition")


def test_criterion_05_advantage_normalization():
    rng = np.random.default_rng(105)
    for _ in range(10_000):
        g = int(rng.choice([2, 4, 8]))
        rewards = rng.uniform(0, 3, size=g)
        a = advantages(rewards)
        assert abs(a.mean()) <= 1e-12
        if rewards.std() == 0:
            assert np.all(a == 0)
        else:
            assert abs(a.std() - 1.0) <= 1e-9
    for g in (2, 4, 8):
        assert np.all(advantages([1.25] * g) == 0)
    _pass(5, "advantage normalization")


def _fd_gradient(fn, policy, h=1e-5):
    """Central differences of fn(policy) in each entry of its theta, each
    taken on a perturbed copy."""
    theta = policy.theta.copy()
    grad = np.zeros_like(theta)
    it = np.nditer(theta, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        theta[idx] += h
        up = fn(policy.with_theta(theta))
        theta[idx] -= 2 * h
        down = fn(policy.with_theta(theta))
        theta[idx] += h
        grad[idx] = (up - down) / (2 * h)
    return grad


def _rel_err(analytic, fd):
    scale = max(1.0, float(np.max(np.abs(fd))))
    return float(np.max(np.abs(analytic - fd))) / scale


def test_criterion_06_gradient_checks():
    vocab = ("a", "b", "c", "d", "<eos>")
    start = time.monotonic()
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(100):
        policy = ToyPolicy.uniform(vocab, n_contexts=6, max_length=4)
        policy = policy.with_theta(rng.normal(size=policy.theta.shape) * 0.5)
        length = int(rng.integers(1, 6))
        target = tuple(vocab[i] for i in rng.integers(0, len(vocab), size=length))
        batch = SftBatch(prompt_key="p", target=target)
        _, grad = sft_loss(policy, batch)
        fd = _fd_gradient(lambda p: sft_loss(p, batch)[0], policy)
        worst = max(worst, _rel_err(grad, fd))
    assert worst < 1e-5, f"sft gradient rel err {worst:.2e}"

    checked = 0
    attempt = 0
    worst = 0.0
    while checked < 100:
        attempt += 1
        assert attempt < 1000, "could not find enough kink-free grpo instances"
        policy_old = ToyPolicy.uniform(vocab, n_contexts=6, max_length=4)
        policy_old = policy_old.with_theta(rng.normal(size=policy_old.theta.shape) * 0.5)
        policy = policy_old.with_theta(
            policy_old.theta + rng.normal(size=policy_old.theta.shape) * 0.1
        )
        cfg = GrpoConfig(
            group_size=4,
            clip_mode=("standard", "literal")[attempt % 2],
            kl_estimator=("log_ratio", "k3")[(attempt // 2) % 2],
            kl_coef=0.01,
            entropy_coef=0.01,
        )
        batch = sample_group(
            policy_old, "p", group_uniforms([attempt], cfg.group_size, policy_old.max_length)
        )
        adv = advantages(rng.uniform(0, 3, size=cfg.group_size))
        # the clipped surrogate is non-differentiable where the ratio sits on
        # a clip boundary; such instances are outside the oracle's domain
        rhos = [
            math.exp(policy.log_prob("p", o) - lp)
            for o, lp in zip(batch.outputs, batch.logp_old)
        ]
        eps = cfg.clip_eps
        if any(abs(r - (1 - eps)) < 1e-3 or abs(r - (1 + eps)) < 1e-3 for r in rhos):
            continue
        _, grad = grpo_objective(policy, batch, adv, cfg)
        fd = _fd_gradient(lambda p: grpo_objective(p, batch, adv, cfg)[0], policy)
        worst = max(worst, _rel_err(grad, fd))
        checked += 1
    assert worst < 1e-5, f"grpo gradient rel err {worst:.2e}"

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    _pass(6, "gradient checks")


def test_criterion_07_sft_analytic_anchor():
    vocab = tuple(f"t{i}" for i in range(31)) + ("<eos>",)
    policy = ToyPolicy.uniform(vocab, n_contexts=16, max_length=16)
    target = tuple(["t1"] * 9 + ["<eos>"])
    loss, _ = sft_loss(policy, SftBatch(prompt_key="anchor", target=target))
    assert abs(loss - 10 * math.log(32)) <= 1e-9
    _pass(7, "sft analytic anchor")


def test_criterion_08_toy_grpo_improvement():
    corpus = make_toy_corpus()
    for seed in range(5):
        policy = make_toy_policy(corpus)
        start = time.monotonic()
        _, stats = train_grpo(policy, corpus, RewardConfig(), GrpoConfig(seed=seed))
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"seed {seed} run took {elapsed:.0f}s"
        r0, r_final = stats[0].mean_reward, stats[-1].mean_reward
        assert r_final >= 1.5 * r0, f"seed {seed}: {r0:.3f} -> {r_final:.3f}"
        assert r_final > r0
    _pass(8, "toy grpo improvement")


def test_criterion_09_process_reward_ablation_direction():
    corpus = make_toy_corpus()
    wins = 0
    for seed in range(5):
        finals = {}
        for preset in ("full", "no_process_reward"):
            policy = make_toy_policy(corpus)
            _, stats = run_preset(
                preset, corpus, policy, SftConfig(), GrpoConfig(seed=seed)
            )
            probes = [
                s.process_factuality for s in stats if s.process_factuality is not None
            ]
            finals[preset] = probes[-1]
        if finals["full"] > finals["no_process_reward"]:
            wins += 1
    assert wins >= 4, f"process-reward preset won only {wins}/5 paired seeds"
    _pass(9, "process reward ablation direction")


def test_criterion_10_mining_rules():
    rng = np.random.default_rng(110)

    # filter: keeps exactly the perfectly factual chains
    for _ in range(100):
        n = int(rng.integers(0, 40))
        values = rng.choice([0.0, 0.25, 0.5, 0.9999, 1.0], size=n)
        chains = [MinedChain(f"c{i:03d}", (), "n", float(v)) for i, v in enumerate(values)]
        kept, rejected = filter_by_factuality(chains, threshold=1.0)
        assert {c.sample_id for c in kept} == {
            c.sample_id for c in chains if c.r_f >= 1.0
        }
        assert len(kept) + len(rejected) == n

    # balance: exact recount of the 2x cap on 100 random corpora
    labels = ["edema", "effusion", "fracture", "pneumonia", "atelectasis"]
    for trial in range(100):
        k = int(rng.integers(2, len(labels) + 1))
        counts = {
            label: int(rng.integers(1, 16))
            for label in rng.choice(labels, size=k, replace=False)
        }
        samples = tuple(
            VqaSample(
                id=f"{label}_{i:03d}",
                task=TaskType.ANOMALY_DETECTION,
                images=("img/x.png",),
                question="Identify any abnormality.",
                options=(),
                answer=label,
            )
            for label, n in sorted(counts.items())
            for i in range(n)
        )
        balanced = balance(Corpus(samples), seed=trial)
        after = dict(Counter(map(label_by_answer, balanced.samples)))
        assert max(after.values()) <= 2 * min(after.values())
        assert min(after.values()) == min(counts.values())
        assert all(after[label] <= counts[label] for label in counts)
    _pass(10, "mining rules")


def test_criterion_11_end_to_end_replay(tmp_path, data_dir):
    from radreason.cli import main

    corpus_path = str(data_dir / "fixture_corpus.jsonl")
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"mock_fixture": str(data_dir / "mining_fixture.jsonl")}),
        encoding="utf-8",
    )

    def run(tag, workers):
        root = tmp_path / tag
        bench = root / "bench"
        rc = main(
            [
                "--config", str(config_path),
                "--workers", str(workers),
                "mine", corpus_path,
                "--out", str(bench),
            ]
        )
        assert rc == 2  # known per-sample rejections
        # deterministic echo outputs derived from the compiled benchmark
        outputs = root / "outputs.jsonl"
        with outputs.open("w", encoding="utf-8") as fh:
            for line in (bench / "train_R.jsonl").read_text("utf-8").splitlines():
                rec = json.loads(line)
                fh.write(
                    json.dumps(
                        {
                            "id": rec["id"],
                            "output": (
                                f"<think>{rec['reasoning']}</think>"
                                f"<answer>{rec['answer']}</answer>"
                            ),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
        scores = root / "scores.jsonl"
        rc = main(
            [
                "--workers", str(workers),
                "score", str(bench / "train_R.jsonl"), str(outputs),
                "--out", str(scores),
            ]
        )
        assert rc == 0
        report = root / "report.json"
        rc = main(["eval", str(scores), "--out", str(report)])
        assert rc == 0
        artifacts = sorted(
            p.relative_to(root) for p in root.rglob("*") if p.is_file()
        )
        return {str(rel): (root / rel).read_bytes() for rel in artifacts}

    start = time.monotonic()
    first = run("run1", workers=1)
    second = run("run2", workers=1)
    parallel = run("run4", workers=4)
    elapsed = time.monotonic() - start

    assert first.keys() == second.keys() == parallel.keys()
    for name in first:
        assert first[name] == second[name], f"repeat run differs: {name}"
        assert first[name] == parallel[name], f"worker count changed: {name}"
    assert elapsed < 60.0, f"end-to-end replay took {elapsed:.1f}s"
    _pass(11, "end-to-end replay")


def test_criterion_12_bootstrap_ci():
    low, high = bootstrap_ci([0.4] * 50, resamples=1000, seed=17)
    assert low == high
    assert abs(low - 0.4) < 1e-12

    values = np.round(np.random.default_rng(7).uniform(0.0, 1.0, 50), 6)
    golden = (0.4116757440000001, 0.5742042615)
    assert bootstrap_ci(values, resamples=1000, seed=17) == golden

    rng = np.random.default_rng(112)
    for i in range(1000):
        n = int(rng.integers(1, 30))
        v = rng.normal(size=n)
        lo, hi = bootstrap_ci(v, resamples=200, seed=i)
        assert lo <= float(v.mean()) <= hi
    _pass(12, "bootstrap ci")
