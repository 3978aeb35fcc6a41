import math
import zlib
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radreason.policy import (
    GroupBatch,
    GrpoConfig,
    SftBatch,
    ToyPolicy,
    Windows,
    advantages,
    group_uniforms,
    grpo_objective,
    kl_penalty,
    sample_group,
    seeded_uniforms,
    sft_loss,
    _entropy_with_grad,
    _entropy_words,
)

VOCAB = ("a", "b", "c", "<eos>")


def random_policy(rng, n_contexts=8, vocab=VOCAB, scale=0.5, max_length=4):
    policy = ToyPolicy.uniform(vocab, n_contexts=n_contexts, max_length=max_length)
    return policy.with_theta(rng.normal(size=policy.theta.shape) * scale)


def finite_difference(fn, policy, h=1e-5):
    """Central differences of fn(policy) in each entry of its theta, each
    taken on a perturbed copy."""
    theta = policy.theta.copy()
    grad = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        for j in range(theta.shape[1]):
            theta[i, j] += h
            up = fn(policy.with_theta(theta))
            theta[i, j] -= 2 * h
            down = fn(policy.with_theta(theta))
            theta[i, j] += h
            grad[i, j] = (up - down) / (2 * h)
    return grad


class TestToyPolicy:
    def test_log_probs_normalize(self):
        policy = random_policy(np.random.default_rng(0))
        for row in policy.log_probs:
            assert abs(np.exp(row).sum() - 1.0) < 1e-12

    def test_unknown_token_rejected(self):
        policy = ToyPolicy.uniform(VOCAB)
        with pytest.raises(ValueError, match="vocabulary"):
            policy.log_prob("p", ("z",))

    def test_vocab_must_contain_eos(self):
        with pytest.raises(ValueError, match="end token"):
            ToyPolicy.uniform(("a", "b"))

    def test_context_size_must_be_positive(self):
        # a window of 0 tokens would be the whole prefix: tokens[-0:]
        with pytest.raises(ValueError, match="context_size"):
            ToyPolicy.uniform(VOCAB, context_size=0)

    def test_theta_is_a_read_only_copy(self):
        theta = np.random.default_rng(18).normal(size=(8, len(VOCAB)))
        policy = ToyPolicy(VOCAB, theta)
        assert not policy.theta.flags.writeable
        assert not np.shares_memory(policy.theta, theta)
        before = theta.copy()
        theta += 1.0
        assert np.array_equal(policy.theta, before)
        with pytest.raises(ValueError, match="read-only"):
            policy.theta[0, 0] = 0.0
        with pytest.raises(FrozenInstanceError):
            policy.theta = theta

    def test_with_theta_leaves_the_original_unchanged(self):
        policy = random_policy(np.random.default_rng(19))
        theta, log_probs = policy.theta.copy(), policy.log_probs.copy()
        sample = policy.sample("p", np.random.default_rng(1))
        moved_theta = policy.theta.copy()
        moved_theta[:, policy.token_index("<eos>")] += 60.0
        moved = policy.with_theta(moved_theta)
        assert moved.sample("p", np.random.default_rng(1)) == ("<eos>",)
        assert np.array_equal(policy.theta, theta)
        assert np.array_equal(policy.log_probs, log_probs)
        assert policy.sample("p", np.random.default_rng(1)) == sample
        layout = lambda p: (p.vocab, p.context_size, p.max_length, p.eos_token)
        assert layout(moved) == layout(policy)

    def test_sampling_deterministic_for_seed(self):
        policy = random_policy(np.random.default_rng(2))
        a = policy.sample("p", np.random.default_rng(42))
        b = policy.sample("p", np.random.default_rng(42))
        assert a == b

    def test_sampling_terminates(self):
        policy = random_policy(np.random.default_rng(3), max_length=5)
        out = policy.sample("p", np.random.default_rng(0))
        assert len(out) <= 5
        if "<eos>" in out:
            assert out[-1] == "<eos>"

    def test_first_token_frequencies_match_probs(self):
        policy = random_policy(np.random.default_rng(4))
        probs = policy.probs[reference_row(policy, "p", ())]
        rng = np.random.default_rng(7)
        n = 4000
        counts = np.zeros(len(VOCAB))
        for _ in range(n):
            first = policy.sample("p", rng)[0]
            counts[policy.token_index(first)] += 1
        # ~4 sigma binomial tolerance per token
        tol = 4 * np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(counts / n - probs) < tol + 1e-3)

    def test_entropy_gradient_matches_fd(self):
        policy = random_policy(np.random.default_rng(5))
        _, row = _entropy_with_grad(reference_row_log_probs(policy, 3))
        grad = np.zeros_like(policy.theta)
        grad[3] = row
        fd = finite_difference(
            lambda p: float(_entropy_with_grad(reference_row_log_probs(p, 3))[0]), policy
        )
        assert np.max(np.abs(grad - fd)) < 1e-7


def reference_row(policy, prompt_key, prev_tokens):
    """Row of the context, hashed from the whole key."""
    window = tuple(prev_tokens)[-policy.context_size:]
    key = prompt_key + "\x1f" + "\x1f".join(window)
    return zlib.crc32(key.encode("utf-8")) % policy.n_contexts


def reference_row_log_probs(policy, row):
    """Log-softmax of one row of theta."""
    shifted = policy.theta[row] - policy.theta[row].max()
    return shifted - np.log(np.exp(shifted).sum())


def reference_log_probs(policy, prompt_key, prev_tokens):
    row = reference_row(policy, prompt_key, prev_tokens)
    return reference_row_log_probs(policy, row)


def reference_sample(policy, prompt_key, rng):
    """One token at a time, each drawn by rng.choice from its row."""
    tokens = []
    for _ in range(policy.max_length):
        probs = np.exp(reference_log_probs(policy, prompt_key, tokens))
        tokens.append(policy.vocab[int(rng.choice(len(policy.vocab), p=probs))])
        if tokens[-1] == policy.eos_token:
            break
    return tuple(tokens)


def reference_log_prob(policy, prompt_key, tokens):
    logp = 0.0
    for t, token in enumerate(tokens):
        logp += reference_log_probs(policy, prompt_key, tokens[:t])[
            policy.token_index(token)
        ]
    return float(logp)


# one-word, two-word and wider items, and 0
ENTROPY_ITEMS = st.one_of(
    st.just(0),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**200),
)


class TestSeededUniforms:
    @settings(max_examples=200, deadline=None)
    @given(
        entropies=st.lists(
            st.lists(ENTROPY_ITEMS, min_size=1, max_size=6), min_size=1, max_size=5
        ),
        length=st.integers(0, 20),
    )
    @example(entropies=[[0], [1, 2, 3, 4, 5, 6], [2**64, 2**96 + 1, 7]], length=20)
    def test_rows_equal_default_rng(self, entropies, length):
        got = seeded_uniforms(entropies, length)
        assert got.shape == (len(entropies), length)
        for row, entropy in zip(got, entropies):
            assert np.array_equal(row, np.random.default_rng(entropy).random(length))

    @pytest.mark.parametrize("entropy", [[-1], [3, -(2**40)], [2**70, -5, 1]])
    def test_negative_entropy_refused_like_seed_sequence(self, entropy):
        with pytest.raises(ValueError):
            np.random.default_rng(entropy)
        with pytest.raises(ValueError, match="non-negative"):
            seeded_uniforms([[1], entropy], 4)

    def test_entropy_words_grouped_by_count_ascending(self):
        # word counts 3, 2, 1, 2: an item's words are its base-2**32 digits
        by_count = _entropy_words([[1, 2, 3], [2**40], [5], [0, 9]])
        assert list(by_count) == [1, 2, 3]
        rows, words = by_count[2]
        assert rows.tolist() == [1, 3]
        assert words.tolist() == [[0, 256], [0, 9]]
        assert by_count[1][0].tolist() == [2] and by_count[1][1].tolist() == [[5]]
        assert by_count[3][0].tolist() == [0] and by_count[3][1].tolist() == [[1, 2, 3]]

    def test_group_rows_append_the_sample_index(self):
        got = group_uniforms([7, 2**40], 3, 6)
        entropies = [[7, i] for i in range(3)] + [[2**40, i] for i in range(3)]
        assert np.array_equal(got, seeded_uniforms(entropies, 6))


class TestSnapshot:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab_size=st.integers(1, 30),
        n_contexts=st.integers(1, 32),
        scale=st.floats(0.0, 40.0),
        prompt=st.text(max_size=12),
    )
    def test_sampling_matches_rowwise_choice(
        self, seed, vocab_size, n_contexts, scale, prompt
    ):
        vocab = tuple(f"t{i}" for i in range(vocab_size)) + ("<eos>",)
        policy = random_policy(
            np.random.default_rng(seed), n_contexts, vocab, scale, max_length=8
        )
        batch = sample_group(policy, prompt, group_uniforms([seed], 4, policy.max_length))
        for i, (out, lp) in enumerate(zip(batch.outputs, batch.logp_old)):
            assert out == reference_sample(
                policy, prompt, np.random.default_rng([seed, i])
            )
            assert lp == policy.log_prob(prompt, out) == reference_log_prob(
                policy, prompt, out
            )
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert policy.sample(prompt, rng_a) == reference_sample(policy, prompt, rng_b)

    def test_log_prob_with_grad_matches_fd(self):
        policy = random_policy(np.random.default_rng(10))
        tokens = ("a", "b", "a", "b", "<eos>")
        logp, rows, grad_rows = policy.log_prob_with_grad("p", tokens)
        assert logp == policy.log_prob("p", tokens)
        grad = np.zeros_like(policy.theta)
        grad[rows] = grad_rows
        fd = finite_difference(lambda p: p.log_prob("p", tokens), policy)
        assert np.max(np.abs(grad - fd)) < 1e-7

    def test_non_finite_theta_refused_by_sampler(self):
        policy = random_policy(np.random.default_rng(11))
        theta = policy.theta.copy()
        theta[3, 0] = np.inf
        policy = policy.with_theta(theta)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="row 3"):
            policy.sample("p", np.random.default_rng(0))


class TestSft:
    def test_uniform_anchor(self):
        policy = ToyPolicy.uniform(
            tuple(f"t{i}" for i in range(31)) + ("<eos>",), max_length=16
        )
        batch = SftBatch(prompt_key="p", target=tuple(["t0"] * 9 + ["<eos>"]))
        loss, _ = sft_loss(policy, batch)
        assert abs(loss - 10 * math.log(32)) < 1e-9

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        policy = random_policy(rng)
        batch = SftBatch(prompt_key="p", target=("a", "b", "c", "<eos>"))
        _, grad = sft_loss(policy, batch)
        fd = finite_difference(lambda p: sft_loss(p, batch)[0], policy)
        assert np.max(np.abs(grad - fd)) < 1e-6

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            SftBatch("p", ())


class TestAdvantages:
    @given(
        st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=2, max_size=8
        )
    )
    def test_standardization(self, rewards):
        a = advantages(rewards)
        assert abs(a.mean()) < 1e-12
        if max(rewards) == min(rewards):
            assert np.all(a == 0)
        else:
            assert abs(a.std() - 1.0) < 1e-9

    def test_all_equal_yields_zeros(self):
        assert np.all(advantages([0.5, 0.5, 0.5]) == 0)

    @given(
        st.lists(
            st.lists(st.sampled_from([0.0, 0.1, 1.0, 2.5, 3.0]), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    def test_rows_equal_one_group_calls(self, groups):
        # a step standardises every group at once; each row must be the
        # group's own result bit for bit
        rows = advantages(np.array(groups))
        for row, group in zip(rows, groups):
            assert row.tolist() == advantages(group).tolist()

    @pytest.mark.parametrize(
        "rewards, expected",
        [
            ([0.1, 0.1, 0.1], [0.0, 0.0, 0.0]),  # std of equal floats is 1.4e-17
            ([0.0, 6.9e-159], [-1.0, 1.0]),  # subnormal variance
            ([1.0, 1.0 + 2**-52], [-1.0, 1.0]),  # one ulp apart
        ],
    )
    def test_degenerate_spreads(self, rewards, expected):
        assert advantages(rewards).tolist() == expected

    def test_group_of_one_rejected(self):
        with pytest.raises(ValueError):
            advantages([1.0])


class TestKl:
    def test_log_ratio_expectation_equals_exact_kl(self):
        # max_length=1: every output is a single token, so the estimator's
        # expectation under the old policy is computable in closed form
        rng = np.random.default_rng(8)
        old = random_policy(rng, max_length=1)
        new = random_policy(rng, max_length=1)
        b = reference_row(old, "p", ())
        p_old = old.probs[b]
        expected = 0.0
        for tok in VOCAB:
            lp_o = old.log_prob("p", (tok,))
            lp_n = new.log_prob("p", (tok,))
            expected += math.exp(lp_o) * kl_penalty(lp_o, lp_n, "log_ratio")
        lp_old, lp_new = reference_row_log_probs(old, b), reference_row_log_probs(new, b)
        exact = float(np.sum(p_old * (lp_old - lp_new)))
        assert abs(expected - exact) < 1e-12
        assert exact >= 0

    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_k3_nonnegative(self, lo, ln):
        assert kl_penalty(lo, ln, "k3") >= -1e-12

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            kl_penalty(0.0, 0.0, "k7")

    @pytest.mark.parametrize("estimator", ["log_ratio", "k3"])
    def test_objective_penalises_with_the_estimator(self, estimator):
        # zero advantages and no entropy bonus: the objective is minus the
        # mean KL estimate of the batch, elementwise over its outputs
        policy, batch, _ = make_step(16)
        cfg = GrpoConfig(group_size=3, kl_coef=1.0, entropy_coef=0.0,
                         kl_estimator=estimator)
        value, _ = grpo_objective(policy, batch, np.zeros(len(batch.outputs)), cfg)
        logp_new = [
            policy.log_prob(batch.windows.prompt_keys[s // 3], out)
            for s, out in enumerate(batch.outputs)
        ]
        kl = kl_penalty(batch.logp_old, np.array(logp_new), estimator)
        assert kl.shape == batch.logp_old.shape
        for lo, ln, k in zip(batch.logp_old, logp_new, kl):
            assert k == kl_penalty(float(lo), ln, estimator)
        assert abs(value + kl.mean()) < 1e-12


class TestGrpoConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"group_size": 1},
            {"clip_eps": 0.0},
            {"clip_eps": 1.0},
            {"kl_coef": -0.1},
            {"steps": -1},
            {"clip_mode": "soft"},
            {"kl_estimator": "k2"},
            {"entropy_coef": -1.0},
            {"entropy_coef": float("nan")},
            {"learning_rate": 0.0},
            {"learning_rate": -3.0},
            {"learning_rate": float("nan")},
            {"kl_coef": float("nan")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GrpoConfig(**kwargs)


def make_group(seed, group_size=4):
    rng = np.random.default_rng(seed)
    policy_old = random_policy(rng)
    policy = random_policy(rng, scale=0.3)
    batch = sample_group(
        policy_old, "p", group_uniforms([seed], group_size, policy_old.max_length)
    )
    adv = advantages(rng.uniform(0, 3, size=group_size))
    return policy, policy_old, batch, adv


class TestGrpoObjective:
    def test_sample_group_records_old_logp(self):
        _, policy_old, batch, _ = make_group(1)
        for out, lp in zip(batch.outputs, batch.logp_old):
            assert abs(policy_old.log_prob("p", out) - lp) < 1e-12

    def test_sample_group_deterministic(self):
        _, policy_old, _, _ = make_group(2)
        a = sample_group(policy_old, "p", group_uniforms([5], 4, policy_old.max_length))
        b = sample_group(policy_old, "p", group_uniforms([5], 4, policy_old.max_length))
        assert a.outputs == b.outputs

    def test_identical_policies_give_unit_ratio_value(self):
        _, policy_old, batch, adv = make_group(3)
        cfg = GrpoConfig(group_size=4, kl_coef=0.0, entropy_coef=0.0)
        value, _ = grpo_objective(policy_old, batch, adv, cfg)
        # rho == 1 everywhere: value is the mean advantage, which is 0
        assert abs(value - float(adv.mean())) < 1e-12

    @pytest.mark.parametrize("clip_mode", ["standard", "literal"])
    @pytest.mark.parametrize("kl_estimator", ["log_ratio", "k3"])
    def test_gradient_matches_fd(self, clip_mode, kl_estimator):
        policy, _, batch, adv = make_group(4)
        cfg = GrpoConfig(
            group_size=4,
            clip_mode=clip_mode,
            kl_estimator=kl_estimator,
            kl_coef=0.01,
            entropy_coef=0.01,
        )
        _, grad = grpo_objective(policy, batch, adv, cfg)
        fd = finite_difference(lambda p: grpo_objective(p, batch, adv, cfg)[0], policy)
        assert np.max(np.abs(grad - fd)) < 1e-6

    def test_literal_mode_caps_upside(self):
        # with a positive advantage and rho >> 1, the literal form stays at
        # (1 - eps) * A while the standard form reaches (1 + eps) * A
        policy_old = ToyPolicy.uniform(VOCAB, n_contexts=8, max_length=4)
        theta = policy_old.theta.copy()
        output = ("a", "<eos>")
        for t in range(len(output)):
            b = reference_row(policy_old, "p", output[:t])
            theta[b, policy_old.token_index(output[t])] += 5.0
        policy = policy_old.with_theta(theta)
        windows = Windows(policy, ["p"])
        batch = GroupBatch(
            windows=windows,
            outputs=(output,),
            logp_old=np.array([policy_old.log_prob("p", output)]),
            tokens=windows.encode((output,), np.zeros(1, dtype=np.intp)),
        )
        assert math.exp(policy.log_prob("p", output) - batch.logp_old[0]) > 1.2
        base = dict(kl_coef=0.0, entropy_coef=0.0)
        adv = np.array([1.0])
        v_std, _ = grpo_objective(
            policy, batch, adv, GrpoConfig(clip_mode="standard", **base)
        )
        v_lit, _ = grpo_objective(
            policy, batch, adv, GrpoConfig(clip_mode="literal", **base)
        )
        assert abs(v_std - 1.2) < 1e-12
        assert abs(v_lit - 0.8) < 1e-12


def make_step(seed, prompts=("p", "q", "r"), group_size=3):
    """A batch of one group per prompt, drawn together, and its advantages."""
    rng = np.random.default_rng(seed)
    policy_old = random_policy(rng)
    policy = random_policy(rng, scale=0.3)
    windows = Windows(policy_old, prompts)
    seeds = [seed * 10 + j for j in range(len(prompts))]
    batch = sample_group(
        policy_old, windows, group_uniforms(seeds, group_size, policy_old.max_length)
    )
    rewards = rng.uniform(0, 3, size=(len(prompts), group_size))
    return policy, batch, np.concatenate([advantages(r) for r in rewards])


class TestLockstepStep:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab_size=st.integers(1, 30),
        n_contexts=st.integers(1, 32),  # few rows: contexts collide
        scale=st.floats(0.0, 40.0),
        max_length=st.integers(1, 10),
        prompts=st.lists(st.text(max_size=12), min_size=1, max_size=4),
        group_size=st.integers(2, 4),
    )
    def test_every_sequence_matches_reference(
        self, seed, vocab_size, n_contexts, scale, max_length, prompts, group_size
    ):
        vocab = tuple(f"t{i}" for i in range(vocab_size)) + ("<eos>",)
        policy = random_policy(
            np.random.default_rng(seed), n_contexts, vocab, scale, max_length
        )
        seeds = [(seed + j) % 2**32 for j in range(len(prompts))]
        batch = sample_group(
            policy,
            Windows(policy, prompts),
            group_uniforms(seeds, group_size, policy.max_length),
        )
        assert len(batch.outputs) == len(prompts) * group_size
        for s, (out, lp) in enumerate(zip(batch.outputs, batch.logp_old)):
            j, i = divmod(s, group_size)
            rng = np.random.default_rng([seeds[j], i])
            assert out == reference_sample(policy, prompts[j], rng)
            assert lp == reference_log_prob(policy, prompts[j], out)

    def test_table_hashes_only_the_windows_reached(self):
        # 100,000 tokens: (V+1)^2 = 10^10 windows a prompt, of which a
        # group reaches at most one per token it draws
        vocab = tuple(f"t{i}" for i in range(99_999)) + ("<eos>",)
        policy = random_policy(np.random.default_rng(17), 4, vocab, max_length=6)
        windows = Windows(policy, ["p", "q"])
        batch = sample_group(policy, windows, group_uniforms([1, 2], 3, policy.max_length))
        assert len(windows._memo) <= batch.tokens.mask.sum()
        for s, out in enumerate(batch.outputs):
            prompt = windows.prompt_keys[s // 3]
            assert batch.logp_old[s] == reference_log_prob(policy, prompt, out)

    def test_table_refuses_windows_past_intp(self):
        policy = ToyPolicy.uniform(VOCAB, context_size=40)
        with pytest.raises(ValueError, match="too many windows"):
            Windows(policy, ["p"])

    def test_one_prompt_table_equals_prompt_key(self):
        policy = random_policy(np.random.default_rng(12))
        by_key = sample_group(policy, "p", group_uniforms([9], 4, policy.max_length))
        by_table = sample_group(
            policy, Windows(policy, ["p"]), group_uniforms([9], 4, policy.max_length)
        )
        assert by_key.outputs == by_table.outputs
        assert np.array_equal(by_key.logp_old, by_table.logp_old)

    @pytest.mark.parametrize("clip_mode", ["standard", "literal"])
    @pytest.mark.parametrize("kl_estimator", ["log_ratio", "k3"])
    def test_step_gradient_matches_fd(self, clip_mode, kl_estimator):
        policy, batch, adv = make_step(13)
        cfg = GrpoConfig(
            group_size=3,
            clip_mode=clip_mode,
            kl_estimator=kl_estimator,
            kl_coef=0.01,
            entropy_coef=0.01,
        )
        _, grad = grpo_objective(policy, batch, adv, cfg)
        fd = finite_difference(lambda p: grpo_objective(p, batch, adv, cfg)[0], policy)
        assert np.max(np.abs(grad - fd)) < 1e-6

    @pytest.mark.parametrize("clip_mode", ["standard", "literal"])
    @pytest.mark.parametrize("kl_estimator", ["log_ratio", "k3"])
    def test_step_is_mean_of_one_group_objectives(self, clip_mode, kl_estimator):
        policy, batch, adv = make_step(14)
        cfg = GrpoConfig(
            group_size=3,
            clip_mode=clip_mode,
            kl_estimator=kl_estimator,
            kl_coef=0.01,
            entropy_coef=0.01,
        )
        value, grad = grpo_objective(policy, batch, adv, cfg)
        G = 3

        def one_group(j, prompt):
            windows = Windows(policy, [prompt])
            outputs = batch.outputs[j * G : (j + 1) * G]
            return GroupBatch(
                windows=windows,
                outputs=outputs,
                logp_old=batch.logp_old[j * G : (j + 1) * G],
                tokens=windows.encode(outputs, np.zeros(G, dtype=np.intp)),
            )

        groups = [
            grpo_objective(policy, one_group(j, prompt), adv[j * G : (j + 1) * G], cfg)
            for j, prompt in enumerate(batch.windows.prompt_keys)
        ]
        assert abs(value - np.mean([v for v, _ in groups])) < 1e-12
        assert np.max(np.abs(grad - np.mean([g for _, g in groups], axis=0))) < 1e-12

    def test_entropy_weights_rows_per_group(self):
        # "p" visits rows {0, 1, 2} and "q" rows {1, 2}: each group spreads
        # its bonus evenly over its own rows, so shared rows get both shares
        policy = random_policy(np.random.default_rng(15), n_contexts=4)
        groups = {
            "p": (("a", "<eos>"), ("b", "a", "<eos>")),
            "q": (("a", "b", "<eos>"), ("c",)),
        }
        visited = {
            k: {reference_row(policy, k, o[:t]) for o in outs for t in range(len(o))}
            for k, outs in groups.items()
        }
        assert visited == {"p": {0, 1, 2}, "q": {1, 2}}
        outputs = groups["p"] + groups["q"]
        windows = Windows(policy, tuple(groups))
        batch = GroupBatch(
            windows=windows,
            outputs=outputs,
            logp_old=np.array([policy.log_prob(k, o) for k in groups for o in groups[k]]),
            tokens=windows.encode(outputs, np.repeat(np.arange(2), 2)),
        )
        cfg = GrpoConfig(group_size=2, kl_coef=0.0, entropy_coef=0.5)
        value, grad = grpo_objective(policy, batch, np.zeros(4), cfg)
        expected_value, expected = 0.0, np.zeros_like(policy.theta)
        for rows in visited.values():
            for b in rows:
                h, gh = _entropy_with_grad(reference_row_log_probs(policy, b))
                expected_value += 0.5 * float(h) / len(rows) / 2
                expected[b] += 0.5 * gh / len(rows) / 2
        assert abs(value - expected_value) < 1e-12
        assert np.max(np.abs(grad - expected)) < 1e-12
        assert not grad[3].any()
