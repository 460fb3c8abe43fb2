"""Desk-scale policy-alignment math: group-relative advantages, the
clipped-surrogate objective with a KL penalty toward a reference policy,
reward composition, and low-rank adapter algebra, all on toy categorical
policies with full distributions exposed.

The surrogate is an objective to MAXIMIZE; use `grpo_loss` for the
negated value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import RegionAnnotation
from .textmetrics import Diagnosis, rouge_l


class ZeroVarianceError(ValueError):
    """All group rewards equal; advantages are undefined."""


@dataclass(frozen=True)
class CategoricalPolicy:
    probs: tuple[float, ...]

    def __init__(self, probs: Sequence[float]):
        probs = tuple(float(p) for p in probs)
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
        if any(p <= 0.0 for p in probs):
            raise ValueError("probabilities must be strictly positive")
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.probs)

    @classmethod
    def from_logits(cls, logits: Sequence[float]) -> "CategoricalPolicy":
        z = np.asarray(logits, dtype=np.float64)
        z = z - z.max()
        e = np.exp(z)
        return cls(e / e.sum())


@dataclass(frozen=True)
class GrpoConfig:
    epsilon_clip: float = 0.2
    beta: float = 0.04

    def __post_init__(self):
        if self.epsilon_clip <= 0.0:
            raise ValueError("epsilon_clip must be > 0")
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0")


@dataclass(frozen=True)
class GrpoGroup:
    """Sampled actions and their rewards for one query."""

    actions: tuple[int, ...]
    rewards: tuple[float, ...]

    def __init__(self, actions: Sequence[int], rewards: Sequence[float]):
        actions = tuple(int(a) for a in actions)
        rewards = tuple(float(r) for r in rewards)
        if len(actions) < 2 or len(actions) != len(rewards):
            raise ValueError("group needs >= 2 (action, reward) pairs of equal length")
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

    @property
    def rank(self) -> int:
        return self.a.shape[1]


def group_advantages(rewards: Sequence[float]) -> list[float]:
    """(r_i - mean) / population std; raises ZeroVarianceError if all
    rewards are equal."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size < 2:
        raise ValueError("need at least 2 rewards")
    std = r.std()
    if std == 0.0:
        raise ZeroVarianceError("all rewards equal; zero variance")
    return list((r - r.mean()) / std)


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
    adv = np.asarray(group_advantages(group.rewards))
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
    if len(theta) != len(ref):
        raise ValueError("policies over different action sets")
    terms, _, _ = _surrogate_terms(theta, old, group, cfg)
    return float(terms.mean() - cfg.beta * categorical_kl(theta, ref))


def grpo_loss(
    theta: CategoricalPolicy,
    ref: CategoricalPolicy,
    old: CategoricalPolicy,
    group: GrpoGroup,
    cfg: GrpoConfig,
) -> float:
    return -grpo_objective(theta, ref, old, group, cfg)


def grpo_gradient(
    logits: Sequence[float],
    ref: CategoricalPolicy,
    old: CategoricalPolicy,
    group: GrpoGroup,
    cfg: GrpoConfig,
) -> list[float]:
    """Analytic d(objective)/d(logits) with theta = softmax(logits).

    Advantages are treated as constants; the clipped branch has zero
    gradient where the clip is active.
    """
    theta = CategoricalPolicy.from_logits(logits)
    pi = np.asarray(theta.probs)
    n = len(pi)
    terms, ratios, adv = _surrogate_terms(theta, old, group, cfg)
    grad = np.zeros(n)
    for t, action in enumerate(group.actions):
        unclipped = ratios[t] * adv[t]
        # min selects the clipped branch strictly only when the clip is
        # active, and an active clip is constant in theta: zero gradient.
        if unclipped <= terms[t]:
            # d(r*A)/dlogit_k = r*A*(1[k=a] - pi_k)
            onehot = np.zeros(n)
            onehot[action] = 1.0
            grad += unclipped * (onehot - pi)
    grad /= len(group.actions)
    if cfg.beta > 0.0:
        kl = categorical_kl(theta, ref)
        ref_p = np.asarray(ref.probs)
        grad -= cfg.beta * pi * (np.log(pi / ref_p) - kl)
    return list(grad)


def compose_reward(
    pred: Diagnosis, truth: RegionAnnotation, w_cat: float = 0.5, w_txt: float = 0.5
) -> float:
    """w_cat * [category match] + w_txt * rouge_l(descriptions)."""
    if w_cat < 0.0 or w_txt < 0.0 or abs(w_cat + w_txt - 1.0) > 1e-9:
        raise ValueError("weights must be non-negative and sum to 1")
    cat = 1.0 if pred.category is truth.category else 0.0
    return w_cat * cat + w_txt * rouge_l(pred.description, truth.description)


def lora_delta(f: LoraFactors) -> np.ndarray:
    """Weight update A @ B (rank <= r by construction)."""
    return f.a @ f.b


def lora_apply(w: np.ndarray, f: LoraFactors) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    delta = lora_delta(f)
    if w.shape != delta.shape:
        raise ValueError("weight shape %s does not match delta %s" % (w.shape, delta.shape))
    return w + delta
