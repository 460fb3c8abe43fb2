import base64
import json
from pathlib import Path

import numpy as np
import pytest

from retouchkit.cli import main
from retouchkit.media_io import FloatGrid, ImageBuffer, write_float_grid, write_pnm
from fake_backend import FakeBackend, LoopbackServer

DATA = Path(__file__).parent / "data"


def write_bump_field(path, size=8, height=0.8):
    field = np.zeros((size, size), dtype=np.float32)
    field[3:5, 3:5] = height
    path.write_bytes(write_float_grid(FloatGrid.from_array(field)))


def write_gray_image(path, size=8):
    img = ImageBuffer.from_array(np.full((size, size), 100, dtype=np.uint8))
    path.write_bytes(write_pnm(img))


def test_dataset_stats_text(capsys):
    rc = main(["dataset-stats", str(DATA / "synthetic50.jsonl")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "image_count:             50" in out
    assert "region_count:            250" in out


def test_dataset_stats_json(capsys):
    rc = main(["dataset-stats", str(DATA / "synthetic50.jsonl"), "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["regions_per_image"] == 5.0


def test_dataset_stats_empty(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(["dataset-stats", str(empty)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "empty dataset" in captured.err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as ei:
        main(["no-such-subcommand"])
    assert ei.value.code == 2


def test_grpo_check(capsys):
    rc = main(["grpo-check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_rasterize(tmp_path, capsys):
    out = tmp_path / "mask.pnm"
    rc = main(
        ["rasterize", "--width", "100", "--height", "100", "--center", "50,50", "-o", str(out)]
    )
    assert rc == 0
    assert "81 pixels set" in capsys.readouterr().out
    from retouchkit.media_io import read_pnm

    img = read_pnm(out.read_bytes())
    assert int((img.to_array() > 0).sum()) == 81


def test_rasterize_clips_a_disc_whose_centre_is_left_of_the_frame(tmp_path, capsys):
    # argparse reads a bare "-3,50" as an option, so the value is attached
    out = tmp_path / "mask.pnm"
    rc = main(
        ["rasterize", "--width", "100", "--height", "100", "--center=-3,50", "-o", str(out)]
    )
    # radius 5 around (-3, 50): the offsets dx >= 3 stay on the frame
    want = sum(1 for dx in range(3, 6) for dy in range(-5, 6) if dx * dx + dy * dy <= 25)
    assert want == 17
    assert rc == 0
    assert capsys.readouterr().out == "%d pixels set\n" % want
    from retouchkit.media_io import read_pnm

    img = read_pnm(out.read_bytes()).to_array()
    assert int((img > 0).sum()) == want
    assert (img[45:56, :3] > 0).sum() == want


def test_rasterize_a_centre_far_off_the_frame_sets_nothing(tmp_path, capsys):
    out = tmp_path / "mask.pnm"
    rc = main(
        ["rasterize", "--width", "100", "--height", "100", "--center", "500,500", "-o", str(out)]
    )
    assert rc == 0
    assert capsys.readouterr().out == "0 pixels set\n"
    from retouchkit.media_io import read_pnm

    img = read_pnm(out.read_bytes()).to_array()
    assert img.shape[:2] == (100, 100) and not img.any()


def test_propose_masks(tmp_path, capsys):
    fsal = tmp_path / "map.fsal"
    write_bump_field(fsal)
    rc = main(["propose-masks", str(fsal), "--tau", "0.5", "--dilation-radius", "0"])
    assert rc == 0
    regions = json.loads(capsys.readouterr().out)
    assert len(regions) == 1
    assert regions[0]["area"] == 4


@pytest.mark.parametrize("min_area", ["0", "-5"])
def test_propose_masks_rejects_min_area_below_one(tmp_path, capsys, min_area):
    # it used to run, with min_area acting as 1
    fsal = tmp_path / "map.fsal"
    write_bump_field(fsal)
    assert main(["propose-masks", str(fsal), "--min-area", min_area]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "min_area must be >= 1\n"


_ONE_REGION = """[
  {
    "bbox": [
      3,
      3,
      4,
      4
    ],
    "area": 4,
    "peak_saliency": 0.800000012
  }
]
"""


@pytest.mark.parametrize("tau, want", [("0.5", _ONE_REGION), ("0.9", "[]\n")])
def test_propose_masks_output_bytes(tmp_path, capsys, tau, want):
    # json.dumps(..., indent=2) without sort_keys: keys in bbox, area, peak order
    fsal = tmp_path / "map.fsal"
    write_bump_field(fsal)
    assert main(["propose-masks", str(fsal), "--tau", tau, "--dilation-radius", "0"]) == 0
    assert capsys.readouterr().out == want


def write_multi_bump_scene(image_path, field_path):
    """A 24x24 gray ramp whose hidden field has bumps of 0.95, 0.8 and 0.65."""
    ramp = np.add.outer(np.arange(24) * 7, np.arange(24) * 3) % 251
    image_path.write_bytes(write_pnm(ImageBuffer.from_array(ramp.astype(np.uint8))))
    field = np.zeros((24, 24), dtype=np.float32)
    field[2:5, 3:7] = 0.95
    field[10:14, 15:18] = 0.8
    field[18:21, 4:6] = 0.65
    field_path.write_bytes(write_float_grid(FloatGrid.from_array(field)))


def test_run_loop_trace_file_matches_the_golden_bytes(tmp_path, capsys, monkeypatch):
    # the golden bytes are json.dumps(..., sort_keys=True, indent=2) of this
    # trace: three records (3, 2 and 0 regions), then a converged stop
    monkeypatch.chdir(tmp_path)  # the trace names the -o path as given
    write_multi_bump_scene(Path("in.pnm"), Path("field.fsal"))
    rc = main(
        [
            "run-loop",
            "--image", "in.pnm",
            "--mock",
            "--mock-field", "field.fsal",
            "--seed", "0",
            "--mock-decay", "0.7",
            "--trace", "trace.json",
            "-o", "out.pnm",
        ]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 3
    golden = (DATA / "run_loop_multi_bump.trace.json").read_bytes()
    assert Path("trace.json").read_bytes() == golden


def test_run_loop_mock_two_iterations(tmp_path, capsys):
    img = tmp_path / "in.pnm"
    fsal = tmp_path / "field.fsal"
    trace_path = tmp_path / "trace.json"
    out_img = tmp_path / "out.pnm"
    write_gray_image(img)
    write_bump_field(fsal, height=0.8)
    rc = main(
        [
            "run-loop",
            "--image", str(img),
            "--mock",
            "--mock-field", str(fsal),
            "--mock-decay", "0.5",
            "--tau", "0.5",
            "--dilation-radius", "0",
            "--trace", str(trace_path),
            "-o", str(out_img),
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["iterations"] == 2
    assert report["actions_total"] == 1
    assert report["converged"] is True
    trace = json.loads(trace_path.read_text())
    assert len(trace["records"]) == 2
    assert out_img.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--mock", "--dilation-radius", "-1"], "dilation_radius must be >= 0"),
        (["--timeout-ms", "0"], "timeout_s must be > 0"),
        (["--mock", "--min-area", "0"], "min_area must be >= 1"),
    ],
)
def test_run_loop_rejects_an_out_of_range_option(tmp_path, capsys, args, message):
    img = tmp_path / "in.pnm"
    write_gray_image(img)
    assert main(["run-loop", "--image", str(img), *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_run_loop_determinism(tmp_path, capsys):
    img = tmp_path / "in.pnm"
    fsal = tmp_path / "field.fsal"
    write_gray_image(img)
    write_bump_field(fsal)
    argv = [
        "run-loop", "--image", str(img), "--mock", "--mock-field", str(fsal),
        "--dilation-radius", "0",
    ]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_run_loop_no_eligible_tool_writes_trace(tmp_path, capsys):
    # --mock registers one mask-guided tool; this bump is diagnosed as a
    # text anomaly, which wants an instruction-driven one
    img = tmp_path / "in.pnm"
    fsal = tmp_path / "field.fsal"
    trace_path = tmp_path / "trace.json"
    out_img = tmp_path / "out.pnm"
    write_gray_image(img, size=64)
    field = np.zeros((64, 64), dtype=np.float32)
    field[10:15, 16:21] = 0.9
    fsal.write_bytes(write_float_grid(FloatGrid.from_array(field)))
    rc = main(
        [
            "run-loop", "--image", str(img), "--mock", "--mock-field", str(fsal),
            "--trace", str(trace_path), "-o", str(out_img),
        ]
    )
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["iterations"] == 1
    trace = json.loads(trace_path.read_text())
    assert trace["stop_reason"] == "no_eligible_tool"
    assert trace["records"][0]["diagnoses"][0]["category"] == "text_anomaly"
    assert out_img.read_bytes() == img.read_bytes()


@pytest.fixture
def backend_env(monkeypatch):
    with LoopbackServer(FakeBackend()) as server:
        for role in ("PERCEPTION", "REASONING", "INPAINT"):
            monkeypatch.setenv("RETOUCH_BACKEND_%s_URL" % role, server.url)
        yield monkeypatch


def test_run_loop_http_backends_from_env(tmp_path, capsys, backend_env):
    img = tmp_path / "in.pnm"
    trace_path = tmp_path / "trace.json"
    write_gray_image(img)
    rc = main(["run-loop", "--image", str(img), "--trace", str(trace_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["converged"] is True
    assert json.loads(trace_path.read_text())["stop_reason"] == "converged"


def test_run_loop_unset_backend_variable(tmp_path, capsys, backend_env):
    img = tmp_path / "in.pnm"
    write_gray_image(img)
    backend_env.delenv("RETOUCH_BACKEND_REASONING_URL")
    rc = main(["run-loop", "--image", str(img)])
    assert rc == 1
    assert "RETOUCH_BACKEND_REASONING_URL" in capsys.readouterr().err


def test_run_loop_malformed_diagnosis_writes_the_trace(tmp_path, capsys, monkeypatch):
    # one region whose diagnosis has a null severity: a SchemaError, so the
    # loop stops provider_error instead of a TypeError escaping main
    field = np.zeros((8, 8), np.float32)
    field[3:5, 3:5] = 0.9
    grid = FloatGrid.from_array(field)
    entry = {"id": "r0", "category": "face_distortion", "description": "d", "severity": None}
    backend = FakeBackend(
        answers={
            "/v1/perceive": {"saliency_b64": base64.b64encode(write_float_grid(grid)).decode()},
            "/v1/diagnose": {"diagnoses": [entry]},
        }
    )
    img = tmp_path / "in.pnm"
    trace_path = tmp_path / "trace.json"
    write_gray_image(img)
    with LoopbackServer(backend) as server:
        for role in ("PERCEPTION", "REASONING", "INPAINT"):
            monkeypatch.setenv("RETOUCH_BACKEND_%s_URL" % role, server.url)
        rc = main(["run-loop", "--image", str(img), "--tau", "0.5", "--trace", str(trace_path)])
    assert rc == 1
    trace = json.loads(trace_path.read_text())
    assert trace["stop_reason"] == "provider_error"
    assert "r0" in trace["error"]
    [rec] = trace["records"]
    assert len(rec["regions"]) == 1
    assert rec["actions"] == []
    assert json.loads(capsys.readouterr().out)["iterations"] == 1


def test_evaluate_reasoning(tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    truth = tmp_path / "truth.jsonl"
    pred.write_text(
        json.dumps(
            {
                "region_id": "r0",
                "category": "face_distortion",
                "description": "warped face",
                "severity": 0.9,
            }
        )
        + "\n"
    )
    truth.write_text(
        json.dumps(
            {"region_id": "r0", "category": "face_distortion", "description": "warped face"}
        )
        + "\n"
    )
    rc = main(["evaluate-reasoning", str(pred), str(truth)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "accuracy\trouge_l\tmeteor_lite"
    acc, rouge, meteor = (float(v) for v in lines[1].split("\t"))
    assert acc == 1.0
    assert rouge == 1.0


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"category": "face_distortion", "description": "d"}', "missing field 'region_id'"),
        ('["r0", "face_distortion"]', "record is not a JSON object"),
        pytest.param(
            '{"region_id": "r0", "category": "face_distortion", "description": "caf\xe9"}'.encode(
                "latin-1"
            ),
            "not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 70: "
            "invalid continuation byte",
            id="latin-1",
        ),
    ],
)
@pytest.mark.parametrize("bad_input", ["pred", "truth"])
def test_evaluate_reasoning_malformed_line(tmp_path, capsys, line, message, bad_input):
    good = json.dumps({"region_id": "r0", "category": "face_distortion", "description": "d"})
    line = line if isinstance(line, bytes) else line.encode()
    paths = {name: tmp_path / ("%s.jsonl" % name) for name in ("pred", "truth")}
    for name, path in paths.items():
        path.write_bytes(good.encode() + b"\n" + (line + b"\n" if name == bad_input else b""))
    rc = main(["evaluate-reasoning", str(paths["pred"]), str(paths["truth"])])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "%s: line 2: %s\n" % (paths[bad_input], message)


def test_evaluate_reasoning_huge_integer_severity(tmp_path, capsys):
    # float() of a 400-digit integer raises OverflowError, which is no ValueError
    good = json.dumps({"region_id": "r0", "category": "face_distortion", "description": "d"})
    huge = '{"region_id": "r1", "category": "face_distortion", "description": "d", "severity": %s}'
    pred, truth = tmp_path / "pred.jsonl", tmp_path / "truth.jsonl"
    pred.write_text(good + "\n" + huge % ("9" * 400) + "\n")
    truth.write_text(good + "\n")
    rc = main(["evaluate-reasoning", str(pred), str(truth)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "%s: line 2: int too large to convert to float\n" % pred


def write_reasoning_files(tmp_path, preds, truths):
    """pred.jsonl and truth.jsonl of (region_id, description) pairs, all of
    category face_distortion."""
    paths = []
    for name, rows in (("pred", preds), ("truth", truths)):
        path = tmp_path / ("%s.jsonl" % name)
        path.write_text(
            "".join(
                json.dumps({"region_id": rid, "category": "face_distortion", "description": d})
                + "\n"
                for rid, d in rows
            )
        )
        paths.append(str(path))
    return paths


@pytest.mark.parametrize(
    "preds, truths, message",
    [
        (
            [("r0", "extra finger")],
            [("r0", "extra finger"), ("r0", "blurry face")],
            "duplicate truth region id 'r0'",
        ),
        (
            [("r0", "extra finger"), ("r0", "blurry face")],
            [("r0", "extra finger")],
            "duplicate prediction region id 'r0'",
        ),
    ],
    ids=["truth", "prediction"],
)
def test_evaluate_reasoning_duplicate_region_id(tmp_path, capsys, preds, truths, message):
    rc = main(["evaluate-reasoning", *write_reasoning_files(tmp_path, preds, truths)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_evaluate_reasoning_untokenizable_description(tmp_path, capsys):
    preds = [("r0", "warped face"), ("r1", "日本語の説明")]
    truths = [("r0", "warped face"), ("r1", "extra finger")]
    rc = main(["evaluate-reasoning", *write_reasoning_files(tmp_path, preds, truths)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (
        "region 'r1': prediction description '日本語の説明' has no a-z or 0-9 token\n"
    )


def write_self_evaluation(tmp_path):
    """A one-image dataset and a prediction equal to its ground truth."""
    from retouchkit.dataset import ground_truth_map, parse_dataset

    record = {
        "image_id": "img0",
        "image": "img0.pnm",
        "prompt": "p",
        "width": 40,
        "height": 40,
        "regions": [
            {
                "x": 20,
                "y": 20,
                "category": "limb_hand_deformity",
                "description": "bad hand",
                "annotator": "a0",
            }
        ],
    }
    ds_path = tmp_path / "ds.jsonl"
    ds_path.write_text(json.dumps(record) + "\n")
    # prediction = ground truth, so the self-evaluation bundle applies
    [rec] = parse_dataset(ds_path.read_bytes())
    truth, _ = ground_truth_map(rec)
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    (pred_dir / "img0.fsal").write_bytes(write_float_grid(truth.grid))
    return ds_path, pred_dir


def test_evaluate_saliency(tmp_path, capsys):
    ds_path, pred_dir = write_self_evaluation(tmp_path)
    rc = main(["evaluate-saliency", str(ds_path), "--pred-dir", str(pred_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "image\tauc_judd\tnss\tcc\tsim\tkld"
    fields = lines[1].split("\t")
    assert fields[0] == "img0"
    auc, nss_v, cc_v, sim_v, kld_v = (float(v) for v in fields[1:])
    # fixations tie with other in-disc pixels, so half-credit keeps AUC < 1
    assert auc >= 0.99
    assert cc_v == pytest.approx(1.0, abs=1e-6)
    assert sim_v == pytest.approx(1.0, abs=1e-6)
    assert lines[2].startswith("aggregate\t")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--epsilon", "0"], "epsilon must be positive, got 0.0"),
        (["--epsilon", "-1"], "epsilon must be positive, got -1.0"),
        (["--epsilon", "nan"], "epsilon must be positive, got nan"),
        (["--blur-sigma", "-3"], "blur_sigma must be >= 0, got -3.0"),
        (["--blur-sigma", "nan"], "blur_sigma must be >= 0, got nan"),
    ],
)
def test_evaluate_saliency_rejects_an_out_of_range_option(tmp_path, capsys, args, message):
    ds_path, pred_dir = write_self_evaluation(tmp_path)
    assert main(["evaluate-saliency", str(ds_path), "--pred-dir", str(pred_dir), *args]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


def test_evaluate_saliency_missing_prediction_prints_no_partial_table(tmp_path, capsys):
    # the first image evaluates; the second has no .fsal
    ds_path, pred_dir = write_self_evaluation(tmp_path)
    first = json.loads(ds_path.read_text())
    second = dict(first, image_id="img1", image="img1.pnm")
    ds_path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    assert main(["evaluate-saliency", str(ds_path), "--pred-dir", str(pred_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "[Errno 2] No such file or directory: %r\n" % str(pred_dir / "img1.fsal")
