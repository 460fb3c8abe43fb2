import pytest

from retouchkit.dataset import DistortionCategory, RegionAnnotation
from retouchkit.textmetrics import (
    Diagnosis,
    category_accuracy,
    evaluate_reasoning,
    meteor_lite,
    rouge_l,
    tokenize,
)

HAND = DistortionCategory.LIMB_HAND_DEFORMITY
FACE = DistortionCategory.FACE_DISTORTION


def truth(rid, cat=HAND, desc="the hand has six fingers"):
    return RegionAnnotation(
        center=(1, 1), category=cat, description=desc, annotator="t", region_id=rid
    )


def diag(rid, cat=HAND, desc="the hand has six fingers"):
    return Diagnosis(region_id=rid, category=cat, description=desc, severity=0.5)


def test_tokenize_case_and_punct():
    assert tokenize("The CAT, sat!") == ["the", "cat", "sat"]


def test_rouge_identical():
    assert rouge_l("a small hand", "a small hand") == 1.0


def test_rouge_disjoint():
    assert rouge_l("alpha beta", "gamma delta") == 0.0


def test_rouge_derived_example():
    # LCS("the cat sat", "the cat ran") = 2 tokens; P = R = 2/3
    assert rouge_l("the cat sat", "the cat ran") == pytest.approx(2.0 / 3.0)


def test_rouge_case_punct_invariance():
    assert rouge_l("The cat, sat.", "the CAT sat") == 1.0


def test_rouge_empty_error():
    with pytest.raises(ValueError):
        rouge_l("...", "words here")


def test_meteor_identical_n_tokens():
    for n in (1, 2, 5):
        text = " ".join("tok%d" % i for i in range(n))
        assert meteor_lite(text, text) == pytest.approx(1.0 - 0.5 / n**3)


def test_meteor_no_overlap():
    assert meteor_lite("alpha beta", "gamma delta") == 0.0


def test_meteor_swapped_pair():
    # "a b" vs "b a": 2 matches in 2 chunks, penalty 0.5, F = 1
    assert meteor_lite("a b", "b a") == pytest.approx(0.5)


def test_meteor_penalty_bounds():
    import numpy as np

    rng = np.random.default_rng(0)
    vocab = ["red", "blue", "hand", "face", "warped", "blurry", "extra"]
    for _ in range(200):
        c = " ".join(rng.choice(vocab, size=rng.integers(1, 8)))
        r = " ".join(rng.choice(vocab, size=rng.integers(1, 8)))
        score = meteor_lite(c, r)
        assert 0.0 <= score <= 1.0


def test_accuracy_all_and_none():
    truths = [truth("r0"), truth("r1", FACE)]
    assert category_accuracy([diag("r0"), diag("r1", FACE)], truths) == 1.0
    assert category_accuracy([diag("r0", FACE), diag("r1", HAND)], truths) == 0.0


def test_accuracy_4_of_5():
    truths = [truth("r%d" % i) for i in range(5)]
    preds = [diag("r%d" % i) for i in range(4)] + [diag("r4", FACE)]
    assert category_accuracy(preds, truths) == 0.8


def test_accuracy_unmatched_id_error():
    with pytest.raises(ValueError):
        category_accuracy([diag("zz")], [truth("r0")])


def test_evaluate_perfect():
    truths = [truth("r0"), truth("r1", FACE, "the face is warped")]
    preds = [diag("r0"), diag("r1", FACE, "the face is warped")]
    rep = evaluate_reasoning(preds, truths)
    assert rep.accuracy == 1.0
    assert rep.rouge_l == 1.0
    assert rep.meteor_lite == pytest.approx(1.0, abs=0.01)


def test_evaluate_single_pair_equals_pair_metrics():
    truths = [truth("r0", HAND, "six fingers on the hand")]
    preds = [diag("r0", FACE, "the hand looks odd")]
    rep = evaluate_reasoning(preds, truths)
    assert rep.accuracy == 0.0
    assert rep.rouge_l == pytest.approx(
        rouge_l("the hand looks odd", "six fingers on the hand")
    )
    assert rep.meteor_lite == pytest.approx(
        meteor_lite("the hand looks odd", "six fingers on the hand")
    )


@pytest.mark.parametrize("score", [category_accuracy, evaluate_reasoning])
def test_duplicate_truth_id_is_an_error(score):
    truths = [truth("r0", desc="extra finger"), truth("r0", desc="blurry face")]
    with pytest.raises(ValueError, match="^duplicate truth region id 'r0'$"):
        score([diag("r0", desc="extra finger")], truths)


@pytest.mark.parametrize("score", [category_accuracy, evaluate_reasoning])
def test_duplicate_prediction_id_is_an_error(score):
    with pytest.raises(ValueError, match="^duplicate prediction region id 'r1'$"):
        score([diag("r1"), diag("r0"), diag("r1", FACE)], [truth("r0"), truth("r1")])


def test_truths_without_an_id_match_nothing():
    truths = [truth(None), truth(None, FACE), truth("r0")]
    assert category_accuracy([diag("r0")], truths) == 1.0


@pytest.mark.parametrize(
    "pred_desc, truth_desc, message",
    [
        (
            "日本語の説明",
            "the hand",
            "region 'r1': prediction description '日本語の説明' has no a-z or 0-9 token",
        ),
        ("the hand", "...", "region 'r1': truth description '...' has no a-z or 0-9 token"),
    ],
    ids=["prediction", "truth"],
)
def test_evaluate_reasoning_names_an_untokenizable_description(pred_desc, truth_desc, message):
    truths = [truth("r0"), truth("r1", desc=truth_desc)]
    with pytest.raises(ValueError) as info:
        evaluate_reasoning([diag("r0"), diag("r1", desc=pred_desc)], truths)
    assert str(info.value) == message


def test_evaluate_reasoning_equals_the_pair_metrics():
    truths = [truth("r0", HAND, "six fingers on the hand"), truth("r1", FACE, "a warped face")]
    preds = [diag("r1", FACE, "the face is warped"), diag("r0", FACE, "the hand looks odd")]
    rep = evaluate_reasoning(preds, truths)
    pairs = [(p.description, t.description) for p, t in zip(preds, truths[::-1])]
    assert rep.accuracy == 0.5
    assert rep.rouge_l == sum(rouge_l(c, r) for c, r in pairs) / 2
    assert rep.meteor_lite == sum(meteor_lite(c, r) for c, r in pairs) / 2
