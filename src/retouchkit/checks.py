"""Self-contained invariance and finite-difference suites for the policy
objective, and a finite-difference suite for the hybrid saliency loss,
runnable from the CLI (`grpo-check`) and reused by the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import (
    CategoricalPolicy,
    GrpoConfig,
    GrpoGroup,
    _surrogate_terms,
    categorical_kl,
    group_advantages,
    grpo_gradient,
    grpo_objective,
)
from .saliency import SaliencyMap, hybrid_loss, hybrid_loss_gradient


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def line(self) -> str:
        return "%s\t%s\tmax_err=%.3e\ttol=%.0e" % (
            "PASS" if self.passed else "FAIL",
            self.name,
            self.max_error,
            self.tolerance,
        )


def _random_policy(rng: np.random.Generator, n: int) -> CategoricalPolicy:
    p = rng.random(n) + 0.05
    return CategoricalPolicy(p / p.sum())


def _random_group(rng: np.random.Generator, n_actions: int, size: int) -> GrpoGroup:
    while True:
        rewards = rng.random(size)
        if rewards.std() > 1e-3:
            break
    actions = rng.integers(0, n_actions, size=size)
    return GrpoGroup(actions, rewards)


def check_advantage_normalization() -> CheckResult:
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        adv = group_advantages(rng.random(rng.integers(2, 16)))
        worst = max(worst, abs(adv.mean()), abs(adv.std() - 1.0))
    return CheckResult("advantage mean-0 / std-1", worst, 1e-10)


def check_identity_objective() -> CheckResult:
    # theta = old = ref forces every ratio to 1 and KL to 0, so the
    # objective equals mean(advantages) = 0
    rng = np.random.default_rng(1)
    cfg = GrpoConfig(epsilon_clip=0.2, beta=0.5)
    worst = 0.0
    for _ in range(200):
        pi = _random_policy(rng, int(rng.integers(2, 8)))
        group = _random_group(rng, len(pi), int(rng.integers(2, 10)))
        worst = max(worst, abs(grpo_objective(pi, pi, pi, group, cfg)))
    return CheckResult("objective = 0 at theta=old=ref", worst, 1e-12)


def check_reward_shift_invariance() -> CheckResult:
    rng = np.random.default_rng(2)
    cfg = GrpoConfig()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        theta = _random_policy(rng, n)
        ref = _random_policy(rng, n)
        old = _random_policy(rng, n)
        group = _random_group(rng, n, int(rng.integers(2, 10)))
        shifted = GrpoGroup(group.actions, [r + 17.5 for r in group.rewards])
        worst = max(
            worst,
            abs(
                grpo_objective(theta, ref, old, group, cfg)
                - grpo_objective(theta, ref, old, shifted, cfg)
            ),
        )
    # analytically zero; the tolerance only absorbs IEEE-754 rounding of
    # the shifted rewards
    return CheckResult("reward-shift invariance", worst, 1e-11)


def check_kl_nonnegative() -> CheckResult:
    rng = np.random.default_rng(3)
    min_kl = float("inf")
    max_self = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        p = _random_policy(rng, n)
        q = _random_policy(rng, n)
        min_kl = min(min_kl, categorical_kl(p, q))
        max_self = max(max_self, abs(categorical_kl(p, p)))
    err = max(max(0.0, -min_kl), max_self)
    return CheckResult("KL >= 0 and KL(p||p) = 0", err, 1e-12)


def finite_difference_gradient(
    logits: np.ndarray,
    ref: CategoricalPolicy,
    old: CategoricalPolicy,
    group: GrpoGroup,
    cfg: GrpoConfig,
) -> np.ndarray:
    """Central finite differences (step 1e-5) of `grpo_objective` w.r.t.
    logits."""
    h = 1e-5

    def objective(z: np.ndarray) -> float:
        return grpo_objective(CategoricalPolicy.from_logits(z), ref, old, group, cfg)

    steps = np.eye(len(logits)) * h
    return np.array([(objective(logits + e) - objective(logits - e)) / (2 * h) for e in steps])


def check_gradient_fd() -> CheckResult:
    rng = np.random.default_rng(4)
    worst = 0.0
    done = 0
    while done < 100:
        n = int(rng.integers(2, 6))
        logits = rng.normal(size=n)
        ref = _random_policy(rng, n)
        old = _random_policy(rng, n)
        cfg = GrpoConfig(epsilon_clip=0.2, beta=float(rng.random()))
        group = _random_group(rng, n, int(rng.integers(2, 8)))
        _, ratios, _ = _surrogate_terms(CategoricalPolicy.from_logits(logits), old, group, cfg)
        # skip subgradient points, where a ratio is within 1e-3 of 1 +- eps:
        # finite differences straddle the kink
        if np.abs(np.abs(ratios - 1) - cfg.epsilon_clip).min() < 1e-3:
            continue
        analytic = grpo_gradient(logits, ref, old, group, cfg)
        fd = finite_difference_gradient(logits, ref, old, group, cfg)
        scale = max(np.abs(fd).max(), 1e-8)
        worst = max(worst, float(np.abs(analytic - fd).max() / scale))
        done += 1
    return CheckResult("gradient vs finite differences", worst, 1e-4)


def check_hybrid_loss_gradient_fd() -> CheckResult:
    # maps are float32, so each central difference is divided by the step
    # that float32 rounding actually took, not by 2h
    rng = np.random.default_rng(5)
    h = 1e-4
    worst = 0.0
    for _ in range(100):
        # bounded away from 0, where the h=1e-4 truncation error blows up,
        # and from 1, so that p + h stays a valid saliency value
        p = rng.uniform(0.05, 0.95, (4, 4)).astype(np.float32)
        truth = SaliencyMap.from_array(rng.uniform(0.05, 0.95, (4, 4)).astype(np.float32))
        alpha = float(rng.random())
        analytic = hybrid_loss_gradient(SaliencyMap.from_array(p), truth, alpha)
        fd = np.zeros((4, 4))
        for idx in np.ndindex(4, 4):
            pp, pm = p.copy(), p.copy()
            pp[idx] += np.float32(h)
            pm[idx] -= np.float32(h)
            step = float(pp[idx]) - float(pm[idx])
            fd[idx] = (
                hybrid_loss(SaliencyMap.from_array(pp), truth, alpha)
                - hybrid_loss(SaliencyMap.from_array(pm), truth, alpha)
            ) / step
        scale = max(np.abs(fd).max(), 1e-8)
        worst = max(worst, float(np.abs(analytic - fd).max() / scale))
    return CheckResult("hybrid-loss gradient vs finite differences", worst, 1e-4)


def run_all_checks() -> list[CheckResult]:
    return [
        check_advantage_normalization(),
        check_identity_objective(),
        check_reward_shift_invariance(),
        check_kl_nonnegative(),
        check_gradient_fd(),
        check_hybrid_loss_gradient_fd(),
    ]
