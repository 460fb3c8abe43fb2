import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from retouchkit import cli
from retouchkit.cli import main
from retouchkit.media_io import FloatGrid, ImageBuffer, write_float_grid, write_pnm
from fake_backend import FakeBackend, LoopbackServer

DATA = Path(__file__).parent / "data"


def error_line(capsys, argv):
    """The one line `main(argv)` prints on stderr; it must exit 1 and print nothing on stdout."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err.count("\n"), err[-1:]) == ("", 1, "\n"), (out, err)
    return err[:-1]


def write_bump_field(path, size=8, height=0.8):
    field = np.zeros((size, size), dtype=np.float32)
    field[3:5, 3:5] = height
    path.write_bytes(write_float_grid(FloatGrid.from_array(field)))


def write_gray_image(path, size=8):
    img = ImageBuffer.from_array(np.full((size, size), 100, dtype=np.uint8))
    path.write_bytes(write_pnm(img))


def write_seeded_predictions(pred_dir):
    """The predictions the evaluate-saliency goldens were computed from: one
    per image of synthetic50.jsonl, seeded by its line number; continuous
    float32 values for even lines, and for odd lines 4 levels (heavy ties)
    with a first row of -0.0."""
    for i, line in enumerate((DATA / "synthetic50.jsonl").read_text().splitlines()):
        rec = json.loads(line)
        arr = np.random.default_rng(i).random((rec["height"], rec["width"]), dtype=np.float32)
        if i % 2:
            arr = np.floor(arr * 4) / 4
            arr[0] = -0.0
        grid = FloatGrid.from_array(arr)
        (Path(pred_dir) / ("%s.fsal" % rec["image_id"])).write_bytes(write_float_grid(grid))


def write_multi_bump_scene(image_path, field_path):
    """The scene of the run-loop golden trace: a 24x24 gray ramp whose hidden
    field has bumps of 0.95, 0.8 and 0.65."""
    ramp = np.add.outer(np.arange(24) * 7, np.arange(24) * 3) % 251
    Path(image_path).write_bytes(write_pnm(ImageBuffer.from_array(ramp.astype(np.uint8))))
    field = np.zeros((24, 24), dtype=np.float32)
    field[2:5, 3:7] = 0.95
    field[10:14, 15:18] = 0.8
    field[18:21, 4:6] = 0.65
    Path(field_path).write_bytes(write_float_grid(FloatGrid.from_array(field)))


# the golden files were written by an earlier implementation of
# parse_dataset and compute_stats
def test_dataset_stats_text(capsys):
    rc = main(["dataset-stats", str(DATA / "synthetic50.jsonl")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode() == (DATA / "dataset_stats_synthetic50.txt").read_bytes()


def test_dataset_stats_json(capsys):
    rc = main(["dataset-stats", str(DATA / "synthetic50.jsonl"), "--json"])
    assert rc == 0
    assert capsys.readouterr().out.encode() == (DATA / "dataset_stats_synthetic50.json").read_bytes()


def test_dataset_stats_empty(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert error_line(capsys, ["dataset-stats", str(empty)]) == "empty dataset"


# a JSON integer, number or string stands for itself: a float, a bool, a
# string or a null in its place is an error, never coerced
@pytest.mark.parametrize(
    "where, field, value, message",
    [
        ("region", "x", 5.7, "x must be an integer, not 5.7"),
        ("region", "y", True, "y must be an integer, not true"),
        ("record", "width", "100", 'width must be an integer, not "100"'),
        ("record", "height", 100.9, "height must be an integer, not 100.9"),
        ("region", "description", 123, "description must be a string, not 123"),
        ("region", "annotator", None, "annotator must be a string, not null"),
        ("region", "id", 3, "id must be a string, not 3"),
        ("record", "image_id", 7, "image_id must be a string, not 7"),
        ("record", "image", None, "image must be a string, not null"),
        ("record", "prompt", False, "prompt must be a string, not false"),
        ("record", "regions", {}, "regions must be a list, not {}"),
        ("record", "regions", "", 'regions must be a list, not ""'),
        ("record", "regions", [5], "region must be an object, not 5"),
    ],
)
def test_dataset_stats_rejects_a_mistyped_field(tmp_path, capsys, where, field, value, message):
    region = {"x": 5, "y": 1, "category": "face_distortion", "description": "d", "annotator": "a"}
    record = {"image_id": "a", "image": "a", "prompt": "p", "width": 100, "height": 100}
    good = json.dumps({**record, "regions": [region]})
    bad = {**record, "regions": [region]}
    if where == "region":
        bad["regions"] = [{**region, field: value}]
    else:
        bad[field] = value
    path = tmp_path / "data.jsonl"
    path.write_text(good + "\n" + json.dumps(bad) + "\n")
    assert error_line(capsys, ["dataset-stats", str(path)]) == "%s: line 2: %s" % (path, message)


# json.loads raises a RecursionError for nesting past the recursion limit,
# and a plain ValueError for an integer past int()'s 4,300-digit limit
@pytest.mark.parametrize(
    "line, message",
    [
        pytest.param(
            "[" * 100_000,
            "malformed JSON: maximum recursion depth exceeded",
            id="nesting",
        ),
        pytest.param(
            '{"image_id": "a", "image": "a", "prompt": "p", "width": %s, "height": 1, "regions": []}'
            % ("1" * 5001),
            "malformed JSON: Exceeds the limit (4300 digits) for integer string conversion",
            id="digits",
        ),
    ],
)
def test_dataset_stats_names_the_line_of_any_malformed_json(tmp_path, capsys, line, message):
    path = tmp_path / "data.jsonl"
    path.write_text(line + "\n")
    assert error_line(capsys, ["dataset-stats", str(path)]).startswith("%s: line 1: %s" % (path, message))


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as ei:
        main(["no-such-subcommand"])
    assert ei.value.code == 2


# the golden file was written by the per-sample-loop implementation of
# grpo_gradient and finite_difference_gradient
def test_grpo_check(capsys):
    rc = main(["grpo-check"])
    assert rc == 0
    assert capsys.readouterr().out == (DATA / "grpo_check.txt").read_text()


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


@pytest.mark.parametrize("center", ["1,2,3", "1", "a,b", ""])
def test_rasterize_rejects_a_malformed_centre_as_a_usage_error(tmp_path, capsys, center):
    # it used to exit 1 with the text of a failed unpacking or int()
    out = tmp_path / "m.pnm"
    with pytest.raises(SystemExit) as exc:
        main(["rasterize", "--width", "10", "--height", "10", "--center=" + center, "-o", str(out)])
    assert exc.value.code == 2
    assert "argument --center: expected X,Y" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 37.3 GiB"), "Unable to allocate 37.3 GiB"),
        (MemoryError(), "MemoryError"),
    ],
    ids=["numpy", "bare"],
)
def test_an_allocation_that_fails_is_one_stderr_line(tmp_path, capsys, monkeypatch, error, line):
    # a 200000 x 200000 frame under an address-space limit used to end in
    # numpy's traceback; the fault is raised here, so nothing is allocated
    def fail(*args):
        raise error

    monkeypatch.setattr(cli.ds, "rasterize_region", fail)
    out = tmp_path / "m.pnm"
    argv = ["rasterize", "--width", "200000", "--height", "200000", "--center", "1,1", "-o", str(out)]
    assert error_line(capsys, argv) == line
    assert not out.exists()


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


@pytest.mark.parametrize("min_area", ["0", "-5"])
def test_propose_masks_rejects_min_area_below_one(tmp_path, capsys, min_area):
    # it used to run, with min_area acting as 1
    fsal = tmp_path / "map.fsal"
    write_bump_field(fsal)
    assert error_line(capsys, ["propose-masks", str(fsal), "--min-area", min_area]) == "min_area must be >= 1"


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
    assert error_line(capsys, ["run-loop", "--image", str(img), *args]) == message


def test_run_loop_rejects_a_mock_field_out_of_range(tmp_path, capsys):
    # rejected before the loop starts, not as an internal error at its
    # first perception
    img = tmp_path / "in.pnm"
    fsal = tmp_path / "field.fsal"
    write_gray_image(img)
    write_bump_field(fsal, height=1.5)
    argv = ["run-loop", "--image", str(img), "--mock", "--mock-field", str(fsal)]
    assert error_line(capsys, argv) == "field values must lie in [0, 1]"


def _bad_image(tmp_path):
    bad = tmp_path / "in.pnm"
    bad.write_bytes(b"P5\n8 8\n65535\n" + bytes(128))
    return ["run-loop", "--image", str(bad), "--mock"], bad, "maxval 65535 is not 255"


def _truncated_fsal(path):
    write_bump_field(path)
    path.write_bytes(path.read_bytes()[:-3])
    return "FSAL1 payload has 253 of 256 expected bytes"


def _truncated_mock_field(tmp_path):
    img, bad = tmp_path / "in.pnm", tmp_path / "field.fsal"
    write_gray_image(img)
    message = _truncated_fsal(bad)
    return ["run-loop", "--image", str(img), "--mock", "--mock-field", str(bad)], bad, message


def _truncated_map(tmp_path):
    bad = tmp_path / "map.fsal"
    return ["propose-masks", str(bad)], bad, _truncated_fsal(bad)


def _out_of_range_prediction(tmp_path):
    ds_path, pred_dir = write_self_evaluation(tmp_path)
    bad = pred_dir / "img0.fsal"
    bad.write_bytes(write_float_grid(FloatGrid.from_array(np.full((40, 40), 1.5, np.float32))))
    argv = ["evaluate-saliency", str(ds_path), "--pred-dir", str(pred_dir)]
    return argv, bad, "saliency values must lie in [0, 1]"


@pytest.mark.parametrize(
    "build", [_bad_image, _truncated_mock_field, _truncated_map, _out_of_range_prediction]
)
def test_a_bad_input_file_is_one_stderr_line_that_names_it(tmp_path, capsys, build):
    argv, bad, message = build(tmp_path)
    assert error_line(capsys, argv) == "%s: %s" % (bad, message)


def test_run_loop_acts_on_a_text_anomaly(tmp_path, capsys):
    # reasoner seed 7 diagnoses this bump as a text anomaly (seed 0 would not),
    # which wants an instruction-driven tool; --mock registers one next to
    # the mask-guided one. Under tau 0.4 the bump's 0.45 after one edit
    # (decay 0.5) takes a second.
    img = tmp_path / "in.pnm"
    fsal = tmp_path / "field.fsal"
    trace_path = tmp_path / "trace.json"
    out_img = tmp_path / "out.pnm"
    ramp = np.add.outer(np.arange(64) * 3, np.arange(64)) % 251  # so a fill shows
    img.write_bytes(write_pnm(ImageBuffer.from_array(ramp.astype(np.uint8))))
    field = np.zeros((64, 64), dtype=np.float32)
    field[10:15, 17:22] = 0.9
    fsal.write_bytes(write_float_grid(FloatGrid.from_array(field)))
    rc = main(
        [
            "run-loop", "--image", str(img), "--mock", "--mock-field", str(fsal),
            "--seed", "7", "--tau", "0.4", "--trace", str(trace_path), "-o", str(out_img),
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["iterations"], report["actions_total"], report["stop_reason"]) == (3, 2, "converged")
    trace = json.loads(trace_path.read_text())
    for rec in trace["records"][:2]:
        assert rec["diagnoses"][0]["category"] == "text_anomaly"
        (action,) = rec["actions"]
        assert action["tool"] == "mock-instruct"
        assert action["instruction"]
    assert out_img.read_bytes() != img.read_bytes()


@pytest.fixture
def backend():
    return FakeBackend()


@pytest.fixture
def backend_env(monkeypatch, backend):
    with LoopbackServer(backend) as server:
        for role in ("PERCEPTION", "REASONING", "INPAINT"):
            monkeypatch.setenv("RETOUCH_BACKEND_%s_URL" % role, server.url)
        yield monkeypatch


# what a run-loop on the defaults sends the default FakeBackend: its one
# salient block is diagnosed and inpainted, and the next map is all zero
_ONE_EDIT = ["/v1/perceive", "/v1/diagnose", "/v1/inpaint", "/v1/perceive"]


def test_run_loop_http_backends_from_env(tmp_path, capsys, backend, backend_env):
    img = tmp_path / "in.pnm"
    trace_path = tmp_path / "trace.json"
    write_gray_image(img)
    rc = main(["run-loop", "--image", str(img), "--prompt", "fix the hand", "--trace", str(trace_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["converged"], report["actions_total"]) == (True, 1)
    assert json.loads(trace_path.read_text())["stop_reason"] == "converged"
    assert [path for path, _ in backend.requests] == _ONE_EDIT
    # an inpaint request carries no prompt
    prompts = [req.get("prompt") for _, req in backend.requests]
    assert prompts == ["fix the hand", "fix the hand", None, "fix the hand"]


# the runtime's one dependency is numpy: in the child an import of scipy or
# requests raises ImportError, and urllib3 imported on its own fails the run.
# Every module of the package is imported first, so one that no command
# imports is held to this too.
_RUNTIME_ONLY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = sys.modules["requests"] = None
import retouchkit
for module in pkgutil.iter_modules(retouchkit.__path__):
    importlib.import_module("retouchkit." + module.name)
from retouchkit.cli import main
rc = main(sys.argv[1:])
del sys.modules["scipy"], sys.modules["requests"]
imported = sorted({"scipy", "requests", "urllib3"} & set(sys.modules))
sys.exit("imported %s" % imported if imported else rc)
"""

# ulimit -v 3000000: numpy's allocation of a frame too large fails at once,
# so a regression never takes the machine's memory
_ADDRESS_SPACE_LIMIT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (3_000_000 * 1024,) * 2)
"""


def run_runtime_only(tmp_path, argv, prelude=""):
    """`retouchkit argv` in a child interpreter, after `prelude`, with scipy
    and requests unimportable; it runs in `tmp_path`, which holds every input
    the cases name by a relative path."""
    write_bump_field(tmp_path / "map.fsal")
    write_seeded_predictions(tmp_path)
    write_multi_bump_scene(tmp_path / "in.pnm", tmp_path / "field.fsal")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", prelude + _RUNTIME_ONLY, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["grpo-check"], id="grpo-check"),
        pytest.param(["propose-masks", "map.fsal", "--tau", "0.5"], id="propose-masks"),
        pytest.param(
            ["evaluate-saliency", str(DATA / "synthetic50.jsonl"), "--pred-dir", ".", "--blur-sigma", "2"],
            id="evaluate-saliency",
        ),
        pytest.param(["dataset-stats", str(DATA / "synthetic50.jsonl")], id="dataset-stats"),
        pytest.param(
            ["evaluate-reasoning", str(DATA / "reasoning_pred.jsonl"), str(DATA / "reasoning_truth.jsonl")],
            id="evaluate-reasoning",
        ),
        pytest.param(
            ["run-loop", "--image", "in.pnm", "--mock", "--mock-field", "field.fsal", "-o", "out.pnm"],
            id="run-loop-mock",
        ),
        # backend_env's variables name the loopback backend
        pytest.param(["run-loop", "--image", "in.pnm", "-o", "out.pnm"], id="run-loop-http"),
    ],
)
def test_the_runtime_path_imports_neither_scipy_nor_requests(tmp_path, backend, backend_env, argv):
    # the outputs are checked in-process above, against the golden files
    proc = run_runtime_only(tmp_path, argv)
    assert proc.returncode == 0, proc.stderr
    # only run-loop without --mock sends requests, and it edits once
    sent = [path for path, _ in backend.requests]
    if argv[0] == "run-loop" and "--mock" not in argv:
        assert (sent, json.loads(proc.stdout)["actions_total"]) == (_ONE_EDIT, 1)
    else:
        assert sent == []


@pytest.mark.parametrize(
    "argv, text",
    [
        pytest.param(
            ["rasterize", "--width", "200000", "--height", "200000", "--center", "1,1", "-o", "big.pnm"],
            "Unable to allocate",
            id="rasterize",
        ),
        # refused before any kernel is built, not by a failed allocation
        pytest.param(
            ["evaluate-saliency", str(DATA / "synthetic50.jsonl"), "--pred-dir", ".", "--blur-sigma", "1e6"],
            "kernel radius above",
            id="blur",
        ),
    ],
)
def test_a_real_allocation_past_the_address_space_is_one_stderr_line(tmp_path, argv, text):
    proc = run_runtime_only(tmp_path, argv, prelude=_ADDRESS_SPACE_LIMIT)
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (1, "", 1), proc.stderr
    assert text in proc.stderr
    assert not (tmp_path / "big.pnm").exists()


def test_run_loop_unset_backend_variable(tmp_path, capsys, backend_env):
    img = tmp_path / "in.pnm"
    write_gray_image(img)
    backend_env.delenv("RETOUCH_BACKEND_REASONING_URL")
    assert error_line(capsys, ["run-loop", "--image", str(img)]) == (
        "environment variable RETOUCH_BACKEND_REASONING_URL is not set"
    )


def test_run_loop_rejects_a_bad_endpoint_before_the_loop(tmp_path, capsys, backend_env):
    # not retried with backoff and reported as a provider_error stop; the
    # backend's own URL with a query, which would never be sent, would run
    img = tmp_path / "in.pnm"
    write_gray_image(img)
    for endpoint in ("foo", os.environ["RETOUCH_BACKEND_REASONING_URL"] + "/?q=1"):
        backend_env.setenv("RETOUCH_BACKEND_REASONING_URL", endpoint)
        assert error_line(capsys, ["run-loop", "--image", str(img)]) == (
            "endpoint %r is not an http:// or https:// URL with a host and no credentials, query or fragment"
            % endpoint
        )


def test_run_loop_malformed_diagnosis_writes_the_trace(tmp_path, capsys, backend, backend_env):
    # one region whose diagnosis has a null severity: a SchemaError, so the
    # loop stops provider_error instead of a TypeError escaping main, and
    # still writes the trace and the unedited image
    entry = {"id": "r0", "category": "face_distortion", "description": "d", "severity": None}
    backend.answers["/v1/diagnose"] = {"diagnoses": [entry]}
    img = tmp_path / "in.pnm"
    trace_path = tmp_path / "trace.json"
    out_img = tmp_path / "out.pnm"
    write_gray_image(img)
    rc = main(["run-loop", "--image", str(img), "--trace", str(trace_path), "-o", str(out_img)])
    assert rc == 1
    trace = json.loads(trace_path.read_text())
    assert trace["stop_reason"] == "provider_error"
    assert "r0" in trace["error"]
    [rec] = trace["records"]
    assert len(rec["regions"]) == 1
    assert rec["diagnoses"] == rec["actions"] == []
    assert json.loads(capsys.readouterr().out)["iterations"] == 1
    assert out_img.read_bytes() == img.read_bytes()


def test_run_loop_sends_a_text_anomaly_to_an_instruction_driven_endpoint(tmp_path, backend, backend_env):
    # without --mock the inpaint endpoint also serves the instruction-driven
    # kind, and only its requests carry an instruction; --max-iter 1 stops
    # the loop before the perception that would find it converged
    entry = {"id": "r0", "category": "text_anomaly", "description": "garbled sign", "severity": 0.5}
    backend.answers["/v1/diagnose"] = {"diagnoses": [entry]}
    img = tmp_path / "in.pnm"
    write_gray_image(img)
    rc = main(["run-loop", "--image", str(img), "--max-iter", "1"])
    assert rc == 0
    assert [path for path, _ in backend.requests] == _ONE_EDIT[:3]
    inpaints = [req for path, req in backend.requests if path == "/v1/inpaint"]
    assert [req["instruction"] for req in inpaints] == ["fix text_anomaly: garbled sign"]


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
        pytest.param(
            "[" * 100_000,
            "malformed JSON: maximum recursion depth exceeded while decoding a JSON array from a "
            "unicode string",
            id="nesting",
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
    argv = ["evaluate-reasoning", str(paths["pred"]), str(paths["truth"])]
    assert error_line(capsys, argv) == "%s: line 2: %s" % (paths[bad_input], message)


def test_evaluate_reasoning_huge_integer_severity(tmp_path, capsys):
    # float() of a 400-digit integer raises OverflowError, which is no ValueError
    good = json.dumps({"region_id": "r0", "category": "face_distortion", "description": "d"})
    huge = '{"region_id": "r1", "category": "face_distortion", "description": "d", "severity": %s}'
    pred, truth = tmp_path / "pred.jsonl", tmp_path / "truth.jsonl"
    pred.write_text(good + "\n" + huge % ("9" * 400) + "\n")
    truth.write_text(good + "\n")
    argv = ["evaluate-reasoning", str(pred), str(truth)]
    assert error_line(capsys, argv) == "%s: line 2: int too large to convert to float" % pred


@pytest.mark.parametrize(
    "bad_input, field, value, message",
    [
        ("pred", "severity", True, "severity must be a number, not true"),
        ("pred", "severity", "0.5", 'severity must be a number, not "0.5"'),
        ("pred", "description", 123, "description must be a string, not 123"),
        ("truth", "description", 123, "description must be a string, not 123"),
        ("truth", "x", 5.7, "x must be an integer, not 5.7"),
        ("truth", "y", False, "y must be an integer, not false"),
        ("truth", "annotator", None, "annotator must be a string, not null"),
        ("pred", "region_id", 7, "region_id must be a string, not 7"),
        ("truth", "region_id", None, "region_id must be a string, not null"),
    ],
)
def test_evaluate_reasoning_mistyped_field(tmp_path, capsys, bad_input, field, value, message):
    good = {"region_id": "r0", "category": "face_distortion", "description": "d"}
    paths = {name: tmp_path / ("%s.jsonl" % name) for name in ("pred", "truth")}
    for name, path in paths.items():
        lines = [good, {**good, "region_id": "r1"}]
        if name == bad_input:
            lines[1][field] = value
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    argv = ["evaluate-reasoning", str(paths["pred"]), str(paths["truth"])]
    assert error_line(capsys, argv) == "%s: line 2: %s" % (paths[bad_input], message)


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
    argv = ["evaluate-reasoning", *write_reasoning_files(tmp_path, preds, truths)]
    assert error_line(capsys, argv) == message


def test_evaluate_reasoning_untokenizable_description(tmp_path, capsys):
    preds = [("r0", "warped face"), ("r1", "日本語の説明")]
    truths = [("r0", "warped face"), ("r1", "extra finger")]
    argv = ["evaluate-reasoning", *write_reasoning_files(tmp_path, preds, truths)]
    assert error_line(capsys, argv) == (
        "region 'r1': prediction description '日本語の説明' has no a-z or 0-9 token"
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


@pytest.mark.parametrize(
    "args, message",
    [
        # past the documented ceiling on the blur's kernel radius: a finite
        # sigma whose kernel would ask for gigabytes, the first sigma whose
        # radius is one above the ceiling, and one between
        (["--blur-sigma", "1e6"], "blur_sigma gives a kernel radius above 256, got 1000000.0"),
        (["--blur-sigma", "64.125"], "blur_sigma gives a kernel radius above 256, got 64.125"),
        (["--blur-sigma", "100"], "blur_sigma gives a kernel radius above 256, got 100.0"),
        (["--blur-sigma", "-3"], "blur_sigma must be >= 0, got -3.0"),
        (["--blur-sigma", "nan"], "blur_sigma must be >= 0, got nan"),
        # int() of an infinite kernel radius raises OverflowError
        (["--blur-sigma", "inf"], "blur_sigma gives an infinite kernel radius, got inf"),
        (["--blur-sigma", "1e308"], "blur_sigma gives an infinite kernel radius, got 1e+308"),
    ],
)
def test_evaluate_saliency_rejects_an_out_of_range_option(tmp_path, capsys, args, message):
    ds_path, pred_dir = write_self_evaluation(tmp_path)
    argv = ["evaluate-saliency", str(ds_path), "--pred-dir", str(pred_dir), *args]
    assert error_line(capsys, argv) == message


def test_evaluate_saliency_has_no_epsilon_option(tmp_path, capsys):
    # KLD's stabilizer is the fixed saliency.KLD_EPSILON
    ds_path, pred_dir = write_self_evaluation(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["evaluate-saliency", str(ds_path), "--pred-dir", str(pred_dir), "--epsilon", "1e-7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon 1e-7" in capsys.readouterr().err


def test_evaluate_saliency_missing_prediction_prints_no_partial_table(tmp_path, capsys):
    # the first image evaluates; the second has no .fsal
    ds_path, pred_dir = write_self_evaluation(tmp_path)
    first = json.loads(ds_path.read_text())
    second = dict(first, image_id="img1", image="img1.pnm")
    ds_path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    assert error_line(capsys, ["evaluate-saliency", str(ds_path), "--pred-dir", str(pred_dir)]) == (
        "[Errno 2] No such file or directory: %r" % str(pred_dir / "img1.fsal")
    )


@pytest.mark.parametrize(
    "args, golden",
    [
        ([], "evaluate_saliency_synthetic50.tsv"),
        (["--blur-sigma", "2"], "evaluate_saliency_synthetic50_blur2.tsv"),
    ],
    ids=["no_blur", "blur_sigma_2"],
)
def test_evaluate_saliency_output_matches_the_golden_bytes(tmp_path, capsys, args, golden):
    # the golden files were written by an earlier implementation of the
    # five metrics from these same predictions
    write_seeded_predictions(tmp_path)
    rc = main(["evaluate-saliency", str(DATA / "synthetic50.jsonl"), "--pred-dir", str(tmp_path), *args])
    assert rc == 0
    assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()


# the golden file was written by the two-list implementation of
# evaluate_reasoning and the hand-written header of ReasoningReport.as_tsv
def test_evaluate_reasoning_output_matches_the_golden_bytes(capsys):
    pred, truth = DATA / "reasoning_pred.jsonl", DATA / "reasoning_truth.jsonl"
    assert main(["evaluate-reasoning", str(pred), str(truth)]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "evaluate_reasoning.tsv").read_bytes()


def test_evaluate_saliency_checks_sizes_before_it_builds_the_ground_truth(
    tmp_path, capsys, monkeypatch
):
    # a 200000x200000 record used to allocate its 37 GiB frame in
    # ground_truth_map before the 4x4 prediction's size was compared
    import retouchkit.dataset

    def unreachable(*args, **kwargs):
        raise AssertionError("ground_truth_map called")

    monkeypatch.setattr(retouchkit.dataset, "ground_truth_map", unreachable)
    record = {
        "image_id": "big",
        "image": "big.pnm",
        "prompt": "p",
        "width": 200000,
        "height": 200000,
        "regions": [
            {"x": 1, "y": 1, "category": "face_distortion", "description": "d", "annotator": "a0"}
        ],
    }
    ds_path = tmp_path / "ds.jsonl"
    ds_path.write_text(json.dumps(record) + "\n")
    (tmp_path / "big.fsal").write_bytes(write_float_grid(FloatGrid.from_array(np.zeros((4, 4), np.float32))))
    assert error_line(capsys, ["evaluate-saliency", str(ds_path), "--pred-dir", str(tmp_path)]) == (
        "big: prediction is 4x4, record is 200000x200000"
    )


@pytest.mark.parametrize(
    "case, message",
    [
        ("no-regions", "auc_judd needs at least one fixation"),
        ("constant-prediction", "nss undefined for a constant map"),
    ],
)
def test_evaluate_saliency_names_the_image_of_an_undefined_metric(tmp_path, capsys, case, message):
    ds_path, pred_dir = write_self_evaluation(tmp_path)
    if case == "no-regions":
        ds_path.write_text(json.dumps(dict(json.loads(ds_path.read_text()), regions=[])) + "\n")
    else:
        constant = FloatGrid.from_array(np.full((40, 40), 0.5, np.float32))
        (pred_dir / "img0.fsal").write_bytes(write_float_grid(constant))
    argv = ["evaluate-saliency", str(ds_path), "--pred-dir", str(pred_dir)]
    assert error_line(capsys, argv) == "img0: %s" % message


def test_evaluate_saliency_names_the_dataset_file_of_a_bad_line(tmp_path, capsys):
    ds_path, pred_dir = write_self_evaluation(tmp_path)
    ds_path.write_text(ds_path.read_text() + "{bad\n")
    argv = ["evaluate-saliency", str(ds_path), "--pred-dir", str(pred_dir)]
    assert error_line(capsys, argv).startswith("%s: line 2: malformed JSON: " % ds_path)


def test_rasterize_help_shows_the_form_for_a_negative_x(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rasterize", "--help"])
    assert exc.value.code == 0
    assert "--center=X,Y" in " ".join(capsys.readouterr().out.split())


def test_evaluate_saliency_empty_dataset(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    argv = ["evaluate-saliency", str(empty), "--pred-dir", str(tmp_path)]
    assert error_line(capsys, argv) == "empty dataset"
