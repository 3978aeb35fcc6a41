import numpy as np
import pytest

from radreason.core import PartitionTag, PromptMode
from radreason import training
from radreason.policy import GrpoConfig, group_uniforms, kl_penalty, sft_loss
from radreason.rewards import RewardConfig
from radreason.training import (
    EOS_TOKEN,
    PresetError,
    PRESETS,
    SftConfig,
    build_vocab,
    detokenize,
    load_checkpoint,
    make_sft_batches,
    make_toy_corpus,
    make_toy_policy,
    prompt_mode_for,
    run_preset,
    save_checkpoint,
    target_tokens,
    toy_tokens,
    train_grpo,
    train_sft,
)


@pytest.fixture(scope="module")
def corpus():
    return make_toy_corpus()


@pytest.fixture(scope="module")
def samples(corpus):
    return {s.id: s for s in corpus.samples}


class TestTokenization:
    def test_round_trip(self):
        tokens = toy_tokens("<answer> A </answer>")
        assert detokenize(tokens + (EOS_TOKEN,)) == "<answer> A </answer>"

    def test_target_tokens_reasoning(self, samples):
        s = samples["toy_r000"]
        assert target_tokens(s) == (
            "<think>", "pleural_effusion", "</think>",
            "<answer>", "A", "</answer>", EOS_TOKEN,
        )

    def test_target_tokens_answer_only(self, samples):
        s = samples["toy_a000"]
        assert target_tokens(s) == ("<answer>", "A", "</answer>", EOS_TOKEN)

    def test_vocab_covers_targets(self, corpus):
        vocab = set(build_vocab(corpus))
        for s in corpus.samples:
            assert set(target_tokens(s)) <= vocab

    def test_prompt_mode_by_partition(self, samples):
        assert prompt_mode_for(samples["toy_r000"]) is PromptMode.COT
        assert prompt_mode_for(samples["toy_a000"]) is PromptMode.DIRECT


class TestToyCorpus:
    def test_partitions(self, corpus):
        parts = [s.partition for s in corpus.samples]
        assert parts.count(PartitionTag.REASONING_AUGMENTED) == 4
        assert parts.count(PartitionTag.ANSWER_ONLY) == 4

    def test_reasoning_tokens_ground_in_report(self, corpus, matcher):
        from radreason.observations import Role

        for s in corpus.samples:
            if s.partition is PartitionTag.REASONING_AUGMENTED:
                think = matcher.extract(s.reasoning, Role.MODEL)
                report = matcher.extract(s.report, Role.REPORT)
                assert all(
                    any(matcher.matches(x, y) for y in report.items)
                    for x in think.items
                )


class TestSftStage:
    def test_loss_decreases(self, corpus):
        policy = make_toy_policy(corpus)
        _, stats = train_sft(policy, corpus, SftConfig(steps=10, learning_rate=0.5))
        losses = [s.loss for s in stats]
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_step_is_mean_of_target_losses(self, corpus):
        # 4 rows for 8 targets: targets share rows, so the batched scatter
        # sums gradients where rows collide
        policy = make_toy_policy(corpus, n_contexts=4)
        policy = policy.with_theta(np.random.default_rng(3).normal(size=policy.theta.shape))
        trained, stats = train_sft(policy, corpus, SftConfig(steps=1, learning_rate=1.0))
        per_target = [sft_loss(policy, b) for b in make_sft_batches(corpus)]
        assert abs(stats[0].loss - np.mean([loss for loss, _ in per_target])) < 1e-12
        mean_grad = np.mean([grad for _, grad in per_target], axis=0)
        assert np.max(np.abs(policy.theta - trained.theta - mean_grad)) < 1e-12

    def test_original_policy_untouched(self, corpus):
        policy = make_toy_policy(corpus)
        before = policy.theta.copy()
        train_sft(policy, corpus, SftConfig(steps=2))
        assert np.array_equal(policy.theta, before)

    def test_empty_corpus_rejected(self, corpus):
        from radreason.core import Corpus

        policy = make_toy_policy(corpus)
        with pytest.raises(PresetError, match="empty"):
            train_sft(policy, Corpus(()), SftConfig(steps=1))


class TestGrpoStage:
    def test_deterministic_bit_for_bit(self, corpus):
        results = []
        for _ in range(2):
            policy = make_toy_policy(corpus)
            trained, stats = train_grpo(
                policy, corpus, RewardConfig(), GrpoConfig(steps=3)
            )
            results.append((trained.theta, [vars(s) for s in stats]))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]

    def test_uniform_rewards_leave_surrogate_inert(self, corpus, monkeypatch):
        # constant reward means zero advantages everywhere; with the KL and
        # entropy terms disabled the parameters must not move
        import radreason.training as training_mod
        from radreason.rewards import RewardBreakdown

        cfg = GrpoConfig(
            learning_rate=1.0, kl_coef=0.0, entropy_coef=0.0, steps=2, seed=0
        )
        monkeypatch.setattr(
            training_mod,
            "_group_rewards",
            lambda *a, **k: [
                RewardBreakdown(1.0, 1.0, 0.0, 2.0) for _ in range(cfg.group_size)
            ],
        )
        policy = make_toy_policy(corpus)
        before = policy.theta.copy()
        trained, stats = train_grpo(policy, corpus, RewardConfig(), cfg)
        assert np.array_equal(trained.theta, before)
        assert [s.zero_advantage_share for s in stats] == [1.0, 1.0]

    @pytest.mark.parametrize("n_probes", [0, 1, 2])
    def test_step_uniforms_follow_the_seeding_scheme(self, monkeypatch, n_probes):
        # blocks of 3 steps (2 prompts x 3 samples a step), probes inside
        # and across blocks, a short last block
        monkeypatch.setattr(training, "DRAW_ROWS", 20)
        monkeypatch.setattr(training, "PROBE_EVERY", 3)
        cfg = GrpoConfig(group_size=3, steps=8, seed=5_000)
        draws = list(training._step_uniforms(cfg, 2, n_probes, 5))
        assert len(draws) == cfg.steps
        for t, (uniforms, probe_uniforms) in enumerate(draws):
            seeds = [5_000 * 1_000_003 + t * 1_009 + j for j in range(2)]
            assert np.array_equal(uniforms, group_uniforms(seeds, 3, 5))
            if n_probes and t in (0, 2, 5, 7):
                probe_seeds = [(5_000 * 7_368_787 + t, j) for j in range(n_probes)]
                assert np.array_equal(probe_uniforms, group_uniforms(probe_seeds, 3, 5))
            else:
                assert probe_uniforms is None

    def test_stats_report_all_components(self, corpus):
        policy = make_toy_policy(corpus)
        _, stats = train_grpo(policy, corpus, RewardConfig(), GrpoConfig(steps=3))
        for s in stats:
            assert s.stage == "grpo"
            assert s.mean_reward is not None
            assert s.mean_kl is not None
            assert 0.0 <= s.zero_advantage_share <= 1.0
        assert stats[0].process_factuality is not None
        assert stats[-1].process_factuality is not None

    def test_mean_kl_uses_the_configured_estimator(self, corpus, monkeypatch):
        # each step's (logp_old, logp_new), as train_grpo hands them over
        pairs = []

        def spy(logp_old, logp_new, estimator):
            pairs.append((logp_old, logp_new))
            return kl_penalty(logp_old, logp_new, estimator)

        monkeypatch.setattr(training, "kl_penalty", spy)
        cfg = GrpoConfig(steps=3, kl_estimator="k3")
        _, stats = train_grpo(make_toy_policy(corpus), corpus, RewardConfig(), cfg)
        assert len(pairs) == len(stats) == cfg.steps
        for s, (logp_old, logp_new) in zip(stats, pairs):
            log_q = logp_new - logp_old
            assert np.abs(log_q).max() > 0  # the update moved the policy
            assert s.mean_kl >= 0.0
            assert s.mean_kl == float(np.mean(np.expm1(log_q) - log_q))


class TestPresets:
    def test_all_six_presets_registered(self):
        assert sorted(PRESETS) == [
            "full",
            "no_process_reward",
            "rl_o",
            "sft_both",
            "sft_ro",
            "sft_ro_rl_o",
        ]

    def test_unknown_preset_rejected(self, corpus):
        policy = make_toy_policy(corpus)
        with pytest.raises(PresetError, match="unknown preset"):
            run_preset("sft_only", corpus, policy, SftConfig(), GrpoConfig())

    def test_empty_partition_rejected(self, corpus):
        from radreason.core import Corpus

        d_a_only = Corpus(
            tuple(s for s in corpus.samples if s.partition is PartitionTag.ANSWER_ONLY)
        )
        policy = make_toy_policy(corpus)
        with pytest.raises(PresetError, match="partition 'R'"):
            run_preset("sft_ro", d_a_only, policy, SftConfig(steps=1), GrpoConfig())

    def test_process_reward_only_in_full(self):
        grpo_specs = {
            name: [s for s in stages if s.kind == "grpo"]
            for name, stages in PRESETS.items()
        }
        assert all(
            not s.use_process_reward
            for name, specs in grpo_specs.items()
            if name != "full"
            for s in specs
        )
        assert all(s.use_process_reward for s in grpo_specs["full"])

    def test_run_preset_smoke(self, corpus):
        policy = make_toy_policy(corpus)
        trained, stats = run_preset(
            "sft_ro_rl_o",
            corpus,
            policy,
            SftConfig(steps=2),
            GrpoConfig(steps=2),
        )
        assert [s.stage for s in stats] == ["sft", "sft", "grpo", "grpo"]
        assert not np.array_equal(trained.theta, policy.theta)


class TestConfigs:
    """The train-toy recipe: the config defaults and the starting policy."""

    def test_toy_configs_pin_tabular_hyperparams(self):
        assert vars(SftConfig()) == {"learning_rate": 0.5, "steps": 25}
        assert vars(GrpoConfig()) == {
            "group_size": 8,
            "clip_eps": 0.2,
            "kl_coef": 1e-4,
            "entropy_coef": 0.01,
            "learning_rate": 3.0,
            "steps": 200,
            "seed": 0,
            "clip_mode": "standard",
            "kl_estimator": "log_ratio",
        }

    def test_toy_policy_layout(self, corpus):
        policy = make_toy_policy(corpus)
        assert policy.theta.shape == (256, len(build_vocab(corpus)))
        assert not policy.theta.any()
        assert (policy.context_size, policy.max_length, policy.eos_token) == (2, 10, "<eos>")


class TestCheckpoint:
    def test_round_trip(self, corpus, tmp_path):
        policy = make_toy_policy(corpus)
        policy = policy.with_theta(np.random.default_rng(0).normal(size=policy.theta.shape))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(policy, path, config_hash="abc")
        loaded = load_checkpoint(path)
        assert loaded.vocab == policy.vocab
        assert np.array_equal(loaded.theta, policy.theta)
        assert loaded.max_length == policy.max_length
        assert loaded.eos_token == policy.eos_token
