import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from retouchkit import checks
from retouchkit.alignment import (
    CategoricalPolicy,
    GrpoConfig,
    GrpoGroup,
    LoraFactors,
    _surrogate_terms,
    categorical_kl,
    group_advantages,
    grpo_gradient,
    grpo_objective,
    lora_delta,
)
from retouchkit.checks import (
    check_gradient_fd,
    finite_difference_gradient,
)


def gaussian_elimination_rank(m, tol=1e-9):
    # independent rank oracle: plain row reduction with partial pivoting
    m = [list(map(float, row)) for row in np.asarray(m)]
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        pivot = None
        best = tol
        for r in range(rank, rows):
            if abs(m[r][c]) > best:
                best = abs(m[r][c])
                pivot = r
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][c]
        for r in range(rank + 1, rows):
            f = m[r][c] / pv
            for cc in range(c, cols):
                m[r][cc] -= f * m[rank][cc]
        rank += 1
        if rank == rows:
            break
    return rank


# --- advantages ----------------------------------------------------------

def test_advantages_1_2_3():
    adv = group_advantages([1.0, 2.0, 3.0])
    # mean 2, population std sqrt(2/3)
    assert adv == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)


def test_advantages_zero_variance():
    with pytest.raises(ValueError, match="^all rewards equal; zero variance$"):
        group_advantages([5.0, 5.0])


# --- objective -----------------------------------------------------------

def test_objective_identity_is_zero():
    pi = CategoricalPolicy([0.2, 0.3, 0.5])
    group = GrpoGroup([0, 1, 2], [1.0, 2.0, 4.0])
    cfg = GrpoConfig(epsilon_clip=0.2, beta=1.0)
    assert abs(grpo_objective(pi, pi, pi, group, cfg)) <= 1e-12


def test_objective_reduces_to_minus_kl():
    theta = CategoricalPolicy([0.2, 0.8])
    ref = CategoricalPolicy([0.6, 0.4])
    group = GrpoGroup([0, 1], [0.0, 1.0])
    cfg = GrpoConfig(epsilon_clip=0.2, beta=1.0)
    got = grpo_objective(theta, ref, theta, group, cfg)
    # direct-summation KL oracle
    kl = sum(p * math.log(p / q) for p, q in zip(theta.probs, ref.probs))
    # ratios are 1 so the surrogate is mean(advantages) = 0
    assert got == pytest.approx(-kl, abs=1e-12)


def test_min_clip_hand_cases():
    # r = 1.5, eps = 0.2: A=+1 -> min(1.5, 1.2) = 1.2; A=-1 -> min(-1.5, -1.2) = -1.5
    old = CategoricalPolicy([0.4, 0.6])
    theta = CategoricalPolicy([0.6, 0.4])  # ratio on action 0 = 1.5
    cfg = GrpoConfig(epsilon_clip=0.2, beta=0.0)
    # two-sample groups engineered so action 0 carries advantage +1 then -1
    up = GrpoGroup([0, 1], [2.0, 0.0])  # advantages [+1, -1]
    down = GrpoGroup([0, 1], [0.0, 2.0])  # advantages [-1, +1]
    r1 = theta.probs[1] / old.probs[1]  # 0.4/0.6
    got_up = grpo_objective(theta, theta, old, up, cfg)
    assert got_up == pytest.approx((1.2 * 1.0 + min(r1 * -1, 0.8 * -1)) / 2, abs=1e-12)
    got_down = grpo_objective(theta, theta, old, down, cfg)
    assert got_down == pytest.approx((-1.5 + min(r1 * 1, 0.8 * 1)) / 2, abs=1e-12)


def test_objective_unclipped_limit_equals_direct_mean():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        p = rng.random(n) + 0.1
        theta = CategoricalPolicy(p / p.sum())
        q = rng.random(n) + 0.1
        old = CategoricalPolicy(q / q.sum())
        group = GrpoGroup(rng.integers(0, n, 5), rng.random(5) + np.arange(5))
        cfg = GrpoConfig(epsilon_clip=1e9, beta=0.0)
        adv = group_advantages(group.rewards)
        direct = float(
            np.mean(
                [
                    theta.probs[a] / old.probs[a] * ad
                    for a, ad in zip(group.actions, adv)
                ]
            )
        )
        assert abs(grpo_objective(theta, theta, old, group, cfg) - direct) <= 1e-12


def test_reward_shift_invariance():
    theta = CategoricalPolicy([0.3, 0.7])
    old = CategoricalPolicy([0.5, 0.5])
    cfg = GrpoConfig()
    g1 = GrpoGroup([0, 1, 0], [1.0, 2.0, 4.0])
    g2 = GrpoGroup([0, 1, 0], [101.0, 102.0, 104.0])
    a = grpo_objective(theta, theta, old, g1, cfg)
    b = grpo_objective(theta, theta, old, g2, cfg)
    assert a == pytest.approx(b, abs=1e-11)


def test_action_out_of_range():
    pi = CategoricalPolicy([0.5, 0.5])
    with pytest.raises(ValueError):
        grpo_objective(pi, pi, pi, GrpoGroup([0, 5], [0.0, 1.0]), GrpoConfig())


# --- gradient ------------------------------------------------------------

def test_gradient_check_differentiates_the_shipped_objective(monkeypatch):
    # a KL penalty of the wrong sign in the objective no longer matches the
    # analytic gradient, so the check must see it
    def wrong_sign_kl(theta, ref, old, group, cfg):
        terms, _, _ = _surrogate_terms(theta, old, group, cfg)
        return float(terms.mean() + cfg.beta * categorical_kl(theta, ref))

    monkeypatch.setattr(checks, "grpo_objective", wrong_sign_kl)
    assert not check_gradient_fd().passed


def test_gradient_kl_only():
    # advantages all zero: gradient = -beta * grad KL
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = 3
        logits = rng.normal(size=n)
        q = rng.random(n) + 0.1
        ref = CategoricalPolicy(q / q.sum())
        old = CategoricalPolicy.from_logits(logits)
        # symmetric rewards around their mean give advantages [-1, +1] on
        # the same action, cancelling the surrogate gradient exactly
        group = GrpoGroup([0, 0], [0.0, 2.0])
        cfg = GrpoConfig(epsilon_clip=0.2, beta=5.0)
        analytic = grpo_gradient(logits, ref, old, group, cfg)
        fd = finite_difference_gradient(np.asarray(logits), ref, old, group, cfg)
        scale = max(np.abs(fd).max(), 1e-8)
        assert np.abs(analytic - fd).max() / scale <= 1e-4


def reference_grpo_gradient(logits, ref, old, group, cfg):
    # oracle: the per-sample loop that grpo_gradient replaced, one one-hot
    # vector per sample on the unclipped branch, and no KL term at beta = 0
    theta = CategoricalPolicy.from_logits(logits)
    pi = np.asarray(theta.probs)
    n = len(pi)
    terms, ratios, adv = _surrogate_terms(theta, old, group, cfg)
    grad = np.zeros(n)
    for t, action in enumerate(group.actions):
        unclipped = ratios[t] * adv[t]
        if unclipped <= terms[t]:
            onehot = np.zeros(n)
            onehot[action] = 1.0
            grad += unclipped * (onehot - pi)
    grad /= len(group.actions)
    if cfg.beta > 0.0:
        kl = categorical_kl(theta, ref)
        grad -= cfg.beta * pi * (np.log(pi / np.asarray(ref.probs)) - kl)
    return grad


@st.composite
def gradient_cases(draw):
    """Logits, ref, old, a group and a config, with beta = 0 and very narrow
    and very wide clips among them. In about half the cases every sample is
    on the clipped branch: the reward is a function of the action, and old
    moves mass from the actions of positive advantage to those of negative
    advantage."""
    n = draw(st.integers(2, 6))
    weights = st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)
    policies = weights.map(lambda w: CategoricalPolicy(np.divide(w, sum(w))))
    logits = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    ref = draw(policies)
    actions = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=8))
    unit = st.floats(0.0, 1.0)
    clip_all = draw(st.booleans())
    if clip_all:
        value = draw(st.lists(unit, min_size=n, max_size=n))
        rewards = [value[a] for a in actions]
    else:
        rewards = draw(st.lists(unit, min_size=len(actions), max_size=len(actions)))
    assume(np.std(rewards) > 1e-3)
    group = GrpoGroup(actions, rewards)
    narrow, wide = [1e-9, 1e-3], [0.2, 0.5, 1e9]
    eps = draw(st.sampled_from(narrow if clip_all else narrow + wide))
    cfg = GrpoConfig(epsilon_clip=eps, beta=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))))
    if clip_all:
        sign = np.zeros(n)
        sign[list(group.actions)] = np.sign(group_advantages(rewards))
        m = np.asarray(CategoricalPolicy.from_logits(logits).probs) * 2.0**-sign
        old = CategoricalPolicy(m / m.sum())
    else:
        old = draw(policies)
    terms, ratios, adv = _surrogate_terms(CategoricalPolicy.from_logits(logits), old, group, cfg)
    assume(not clip_all or (ratios * adv > terms).all())
    return logits, ref, old, group, cfg


@given(case=gradient_cases())
@settings(max_examples=300, deadline=None)
def test_gradient_equals_the_per_sample_loop(case):
    got, want = grpo_gradient(*case), reference_grpo_gradient(*case)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_gradient_checks_the_reference_action_set_at_beta_zero():
    with pytest.raises(ValueError, match="different action sets"):
        grpo_gradient(
            [0.1, 0.2],
            CategoricalPolicy([0.2, 0.3, 0.5]),
            CategoricalPolicy([0.5, 0.5]),
            GrpoGroup([0, 1], [0.0, 1.0]),
            GrpoConfig(beta=0.0),
        )


# --- input validation ----------------------------------------------------

@pytest.mark.parametrize(
    "build",
    [
        lambda: CategoricalPolicy([0.5, math.nan]),
        lambda: CategoricalPolicy.from_logits([math.inf, 0.0]),
        lambda: GrpoConfig(epsilon_clip=math.nan),
        lambda: GrpoConfig(beta=math.nan),
        lambda: GrpoConfig(beta=math.inf),
        lambda: GrpoGroup([0, 1], [0.0, math.nan]),
        lambda: GrpoGroup([0, 1], [0.0, math.inf]),
    ],
    ids=[
        "policy-nan",
        "logits-inf",
        "epsilon-nan",
        "beta-nan",
        "beta-inf",
        "reward-nan",
        "reward-inf",
    ],
)
def test_non_finite_inputs_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_group_actions_are_integers():
    with pytest.raises(TypeError):
        GrpoGroup([0.7, 1.9], [0.0, 1.0])
    assert GrpoGroup(np.array([0, 1]), [0.0, 1.0]).actions == (0, 1)


# --- LoRA ----------------------------------------------------------------

def test_lora_zero_factor():
    f = LoraFactors(np.zeros((3, 2)), np.ones((2, 3)))
    assert np.all(lora_delta(f) == 0)


def test_lora_rank1_product():
    f = LoraFactors(np.array([[1.0], [2.0]]), np.array([[3.0, 4.0]]))
    assert np.array_equal(lora_delta(f), [[3.0, 4.0], [6.0, 8.0]])


# --- every rejecting branch ----------------------------------------------

_TWO, _THREE = CategoricalPolicy([0.5, 0.5]), CategoricalPolicy([0.2, 0.3, 0.5])


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: CategoricalPolicy([1.0, 0.0]),
            "strictly positive",
            id="zero-probability",
        ),
        pytest.param(lambda: GrpoGroup([0], [1.0]), "group needs >= 2", id="group-size"),
        pytest.param(
            lambda: LoraFactors(np.zeros((2, 2)), np.zeros((3, 2))),
            "factors must be n x r and r x m",
            id="lora-shape",
        ),
        pytest.param(
            lambda: LoraFactors(np.zeros((2, 0)), np.zeros((0, 2))),
            "rank must be >= 1",
            id="lora-rank",
        ),
        pytest.param(lambda: group_advantages([1.0]), "need at least 2 rewards", id="one-reward"),
        pytest.param(
            lambda: grpo_objective(_TWO, _TWO, _THREE, GrpoGroup([0, 1], [0.0, 1.0]), GrpoConfig()),
            "policies over different action sets",
            id="old-policy-size",
        ),
    ],
)
def test_rejecting_branches(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# a NaN reward made every advantage NaN, and rewards near the float range
# overflowed the std into advantages of 0, so the objective read 0.0
@pytest.mark.parametrize(
    "rewards, message",
    [
        ([0.0, math.nan], "rewards must be finite"),
        ([1.0, math.inf], "rewards must be finite"),
        ([1e308, -1e308], "reward mean or std overflows"),
    ],
)
def test_advantages_reject_rewards_whose_statistics_are_not_finite(rewards, message):
    with pytest.raises(ValueError, match=message):
        group_advantages(rewards)


def test_objective_rejects_a_group_whose_std_overflows():
    with pytest.raises(ValueError, match="reward mean or std overflows"):
        grpo_objective(_TWO, _TWO, _TWO, GrpoGroup([0, 1], [1e308, -1e308]), GrpoConfig())
