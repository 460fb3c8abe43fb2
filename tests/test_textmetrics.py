import pytest
from hypothesis import example, given, settings, strategies as st

from retouchkit.dataset import DistortionCategory, RegionAnnotation
from retouchkit.textmetrics import (
    Diagnosis,
    _lcs_length,
    _meteor_lite,
    _rouge_l,
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


# --- reference oracles: the quadratic DP and the first-unused scan --------

def dp_lcs_length(a, b):
    # classic O(len(a)*len(b)) dynamic program, rolling rows
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def dp_rouge_l(cand, ref):
    lcs = dp_lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(cand)
    r = lcs / len(ref)
    return 2.0 * p * r / (p + r)


def scan_meteor_lite(cand, ref):
    # each candidate token takes the first unused equal reference token
    used = [False] * len(ref)
    align = []
    for tok in cand:
        hit = None
        for j, rtok in enumerate(ref):
            if not used[j] and rtok == tok:
                hit = j
                used[j] = True
                break
        align.append(hit)
    matches = sum(1 for a in align if a is not None)
    if matches == 0:
        return 0.0
    chunks = 0
    prev = None
    for a in align:
        if a is None:
            prev = None
            continue
        if prev is None or a != prev + 1:
            chunks += 1
        prev = a
    p = matches / len(cand)
    r = matches / len(ref)
    f = 10.0 * p * r / (r + 9.0 * p)
    penalty = 0.5 * (chunks / matches) ** 3
    return f * (1.0 - penalty)


# small alphabets force repeated tokens; up to 200 tokens runs the bit
# vector past one 64-bit word
_ALPHABETS = (("a",), ("a", "b"), ("a", "b", "c"), tuple("abcdefgh"))


@st.composite
def token_pairs(draw):
    alphabet = draw(st.sampled_from(_ALPHABETS))

    def side(tokens):
        n = draw(st.one_of(st.integers(1, 8), st.integers(1, 200)))
        return draw(st.lists(st.sampled_from(tokens), min_size=n, max_size=n))

    cand = side(alphabet)
    shape = draw(st.sampled_from(["random", "identical", "disjoint"]))
    if shape == "identical":
        ref = list(cand)
    elif shape == "disjoint":
        ref = side(("x", "y"))
    else:
        ref = side(alphabet)
    return cand, ref


_LONG = ["a", "b", "c", "a", "b"] * 40  # 200 tokens


@given(token_pairs())
@example((["a"], ["a"]))
@example((["a"], ["b"]))
@example((["b"], _LONG))
@example((_LONG, ["c"]))
@example((_LONG, _LONG))
@example((_LONG, _LONG[::-1]))
@example((_LONG[:70], ["z"] * 69 + ["a"]))
@settings(max_examples=200, deadline=None)
def test_text_kernels_match_the_dp_and_the_scan(pair):
    cand, ref = pair
    assert _lcs_length(cand, ref) == dp_lcs_length(cand, ref)
    want = dp_rouge_l(cand, ref)
    assert _rouge_l(cand, ref) == want
    assert rouge_l(" ".join(cand), " ".join(ref)) == want
    want = scan_meteor_lite(cand, ref)
    assert _meteor_lite(cand, ref) == want
    assert meteor_lite(" ".join(cand), " ".join(ref)) == want


def test_lcs_of_identical_and_disjoint_sides():
    assert _lcs_length(_LONG, _LONG) == 200
    assert _lcs_length(_LONG, ["x"] * 200) == 0
    assert _lcs_length(["a"], _LONG) == 1
    assert _lcs_length(_LONG, ["c"]) == 1
