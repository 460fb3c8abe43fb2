import base64
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from retouchkit.cli import main
from retouchkit.media_io import FloatGrid, ImageBuffer, write_float_grid, write_pnm

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


def test_propose_masks(tmp_path, capsys):
    fsal = tmp_path / "map.fsal"
    write_bump_field(fsal)
    rc = main(["propose-masks", str(fsal), "--tau", "0.5", "--dilation-radius", "0"])
    assert rc == 0
    regions = json.loads(capsys.readouterr().out)
    assert len(regions) == 1
    assert regions[0]["area"] == 4


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


class ZeroMapBackend:
    """Loopback backend answering every POST with an 8x8 FSAL1 map, all
    zero unless `field` is given, and the `diagnoses` list."""

    def __init__(self, field=None, diagnoses=()):
        grid = FloatGrid.from_array(np.zeros((8, 8), np.float32) if field is None else field)
        answer = {
            "saliency_b64": base64.b64encode(write_float_grid(grid)).decode(),
            "diagnoses": list(diagnoses),
        }

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                body = json.dumps(answer).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=self.server.serve_forever, daemon=True).start()
        self.url = "http://127.0.0.1:%d" % self.server.server_address[1]

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def backend_env(monkeypatch):
    backend = ZeroMapBackend()
    for role in ("PERCEPTION", "REASONING", "INPAINT"):
        monkeypatch.setenv("RETOUCH_BACKEND_%s_URL" % role, backend.url)
    yield monkeypatch
    backend.close()


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
    entry = {"id": "r0", "category": "face_distortion", "description": "d", "severity": None}
    backend = ZeroMapBackend(field, [entry])
    for role in ("PERCEPTION", "REASONING", "INPAINT"):
        monkeypatch.setenv("RETOUCH_BACKEND_%s_URL" % role, backend.url)
    img = tmp_path / "in.pnm"
    trace_path = tmp_path / "trace.json"
    write_gray_image(img)
    try:
        rc = main(["run-loop", "--image", str(img), "--tau", "0.5", "--trace", str(trace_path)])
    finally:
        backend.close()
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


def test_evaluate_saliency(tmp_path, capsys):
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
