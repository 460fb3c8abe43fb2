"""Desk-scale policy-alignment math: group-relative advantages, the
clipped-surrogate objective with a KL penalty toward a reference policy,
and low-rank adapter algebra, all on toy categorical policies with full
distributions exposed.

The surrogate is an objective to MAXIMIZE.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class CategoricalPolicy:
    probs: tuple[float, ...]

    def __init__(self, probs: Sequence[float]):
        probs = tuple(float(p) for p in probs)
        if not abs(sum(probs) - 1.0) <= 1e-9:  # also rejects NaN and inf
            raise ValueError("probabilities must sum to 1")
        if not all(p > 0.0 for p in probs):
            raise ValueError("probabilities must be strictly positive")
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.probs)

    @classmethod
    def from_logits(cls, logits: Sequence[float]) -> "CategoricalPolicy":
        z = np.asarray(logits, dtype=np.float64)
        if not np.isfinite(z).all():
            raise ValueError("logits must be finite")
        z = z - z.max()
        e = np.exp(z)
        return cls(e / e.sum())


@dataclass(frozen=True)
class GrpoConfig:
    epsilon_clip: float = 0.2
    beta: float = 0.04

    def __post_init__(self):
        if not self.epsilon_clip > 0.0:  # also rejects NaN
            raise ValueError("epsilon_clip must be > 0")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError("beta must be finite and >= 0")


@dataclass(frozen=True)
class GrpoGroup:
    """Sampled actions and their rewards for one query."""

    actions: tuple[int, ...]
    rewards: tuple[float, ...]

    def __init__(self, actions: Sequence[int], rewards: Sequence[float]):
        actions = tuple(operator.index(a) for a in actions)  # a float is a TypeError
        rewards = tuple(float(r) for r in rewards)
        if len(actions) < 2 or len(actions) != len(rewards):
            raise ValueError("group needs >= 2 (action, reward) pairs of equal length")
        if not all(math.isfinite(r) for r in rewards):
            raise ValueError("rewards must be finite")
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "rewards", rewards)


@dataclass(frozen=True)
class LoraFactors:
    a: np.ndarray  # n x r
    b: np.ndarray  # r x m

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError("factors must be n x r and r x m")
        if a.shape[1] < 1:
            raise ValueError("rank must be >= 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def group_advantages(rewards: Sequence[float]) -> np.ndarray:
    """(r_i - mean) / population std; raises ValueError if all rewards are
    equal (advantages are undefined), or for a reward, mean or std that is
    not finite (rewards near the float range overflow the std)."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size < 2:
        raise ValueError("need at least 2 rewards")
    if not np.isfinite(r).all():
        raise ValueError("rewards must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = r.mean(), r.std()
    if not (np.isfinite(mean) and np.isfinite(std)):
        raise ValueError("reward mean or std overflows")
    if std == 0.0:
        raise ValueError("all rewards equal; zero variance")
    return (r - mean) / std


def categorical_kl(p: CategoricalPolicy, q: CategoricalPolicy) -> float:
    """Exact KL(p || q) over a finite action set."""
    if len(p) != len(q):
        raise ValueError("policies over different action sets")
    pa = np.asarray(p.probs)
    qa = np.asarray(q.probs)
    return float(np.sum(pa * np.log(pa / qa)))


def _surrogate_terms(
    theta: CategoricalPolicy,
    old: CategoricalPolicy,
    group: GrpoGroup,
    cfg: GrpoConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if len(theta) != len(old):
        raise ValueError("policies over different action sets")
    for a in group.actions:
        if not 0 <= a < len(theta):
            raise ValueError("action index %d out of range" % a)
    adv = group_advantages(group.rewards)
    ratios = np.asarray([theta.probs[a] / old.probs[a] for a in group.actions])
    clipped = np.clip(ratios, 1.0 - cfg.epsilon_clip, 1.0 + cfg.epsilon_clip)
    terms = np.minimum(ratios * adv, clipped * adv)
    return terms, ratios, adv


def grpo_objective(
    theta: CategoricalPolicy,
    ref: CategoricalPolicy,
    old: CategoricalPolicy,
    group: GrpoGroup,
    cfg: GrpoConfig,
) -> float:
    """mean_t min(r_t * A_t, clip(r_t, 1-eps, 1+eps) * A_t)
    - beta * KL(theta || ref), to be maximized."""
    terms, _, _ = _surrogate_terms(theta, old, group, cfg)
    return float(terms.mean() - cfg.beta * categorical_kl(theta, ref))


def grpo_gradient(
    logits: Sequence[float],
    ref: CategoricalPolicy,
    old: CategoricalPolicy,
    group: GrpoGroup,
    cfg: GrpoConfig,
) -> np.ndarray:
    """Analytic d(objective)/d(logits) with theta = softmax(logits).

    Advantages are treated as constants; the clipped branch has zero
    gradient where the clip is active.
    """
    theta = CategoricalPolicy.from_logits(logits)
    pi = np.asarray(theta.probs)
    terms, ratios, adv = _surrogate_terms(theta, old, group, cfg)
    unclipped = ratios * adv
    # min selects the clipped branch strictly only when the clip is active,
    # and an active clip is constant in theta: zero gradient. Otherwise
    # d(r*A)/dlogit_k = r*A*(1[k=a] - pi_k), summed over the samples.
    w = np.where(unclipped <= terms, unclipped, 0.0)
    grad = (np.bincount(group.actions, w, len(pi)) - pi * w.sum()) / len(w)
    kl = categorical_kl(theta, ref)
    return grad - cfg.beta * pi * (np.log(pi / np.asarray(ref.probs)) - kl)


def lora_delta(f: LoraFactors) -> np.ndarray:
    """Weight update A @ B (rank <= r by construction)."""
    return f.a @ f.b
