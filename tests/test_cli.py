"""CLI behavior: output shape, schema validity, determinism, exit codes."""

import json
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

from semident.cli import main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"


def _validator(name):
    docs = {
        p.name: json.loads(p.read_text()) for p in SCHEMA_DIR.glob("*.schema.json")
    }
    registry = Registry().with_resources(
        (doc["$id"], Resource.from_contents(doc)) for doc in docs.values()
    )
    return jsonschema.Draft202012Validator(docs[f"{name}.schema.json"], registry=registry)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def iv_file(tmp_path):
    path = tmp_path / "iv.graph"
    path.write_text("1 -> 2\n2 -> 3\n2 <-> 3\n")
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.graph"
    path.write_text("1 -> 2\n2 -> 3\n")
    return str(path)


def test_check_output(capsys, iv_file):
    code, out = _run(capsys, "check", iv_file)
    assert code == 0
    data = json.loads(out)
    assert data["identifiable"] is False
    assert data["violating_set"] == [2, 3]
    assert data["sink"] == 3
    _validator("check").validate(data)


def test_check_json_graph_input(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps({"nodes": ["1", "2"], "directed": [["1", "2"]], "bidirected": []})
    )
    code, out = _run(capsys, "check", str(path))
    assert code == 0
    assert json.loads(out)["identifiable"] is True


def test_byte_identical_output(capsys, iv_file):
    _, first = _run(capsys, "check", iv_file)
    _, second = _run(capsys, "check", iv_file)
    assert first == second


def test_sample_then_invert_roundtrip(capsys, chain_file, tmp_path):
    code, out = _run(capsys, "sample", chain_file, "--seed", "11")
    assert code == 0
    sample = json.loads(out)
    _validator("sample").validate(sample)
    sigma_path = tmp_path / "sigma.json"
    sigma_path.write_text(json.dumps(sample["sigma"]))
    code, out = _run(capsys, "invert", chain_file, str(sigma_path))
    assert code == 0
    data = json.loads(out)
    _validator("invert").validate(data)
    assert data["lambda"]["entries"][0][1] == pytest.approx(
        sample["lambda"]["entries"][0][1], abs=1e-9
    )


def test_sample_rational_backend(capsys, chain_file):
    code, out = _run(capsys, "sample", chain_file, "--seed", "3", "--backend", "rational")
    assert code == 0
    data = json.loads(out)
    _validator("sample").validate(data)
    assert isinstance(data["lambda"]["entries"][0][1], str)


def test_backend_env_default(capsys, chain_file, monkeypatch):
    monkeypatch.setenv("SEMIDENT_BACKEND", "rational")
    code, out = _run(capsys, "sample", chain_file, "--seed", "3")
    assert code == 0
    assert isinstance(json.loads(out)["lambda"]["entries"][0][1], str)


def test_witness_output(capsys, iv_file):
    code, out = _run(capsys, "witness", iv_file, "--backend", "rational")
    assert code == 0
    data = json.loads(out)
    _validator("witness").validate(data)
    assert data["residual"] == 0
    assert data["separation"] >= 1e-3


def test_invert_domain_error_exit_2(capsys, tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_text(
        "1 -> 2\n2 -> 3\n3 -> 4\n1 <-> 3\n1 <-> 4\n1 <-> 5\n2 <-> 4\n"
    )
    # forward image of a point whose final inversion step degenerates
    from semident.params import matrix_to_json, phi
    from semident import linalg
    from semident.graphs import MixedGraph
    from fractions import Fraction

    g = MixedGraph(
        m=5,
        directed={(1, 2), (2, 3), (3, 4)},
        bidirected={(1, 3), (1, 4), (1, 5), (2, 4)},
    )
    lam = linalg.zeros(5, 5, "rational")
    lam[0, 1] = lam[1, 2] = lam[2, 3] = Fraction(1)
    omega = linalg.to_array(
        [
            [2, 0, -1, -1, -1],
            [0, 1, 0, -1, 0],
            [-1, 0, 1, 0, 0],
            [-1, -1, 0, 3, 0],
            [-1, 0, 0, 0, 3],
        ],
        "rational",
    )
    sigma_path = tmp_path / "sigma.json"
    sigma_path.write_text(json.dumps(matrix_to_json(phi(g, lam, omega))))
    code, out = _run(
        capsys, "invert", str(graph), str(sigma_path), "--backend", "rational"
    )
    assert code == 2
    data = json.loads(out)
    _validator("invert").validate(data)
    assert data["error"]["type"] == "RankDeficientStepError"
    assert data["error"]["step"] == 3  # "inversion step 3 is rank deficient"
    assert "residual" not in data["error"]

    # the same sigma has a resolvable singleton fiber
    code, out = _run(
        capsys, "trace", str(graph), str(sigma_path), "--backend", "rational"
    )
    assert code == 0
    trace = json.loads(out)
    _validator("trace").validate(trace)
    assert trace["kind"] == "singleton"


@pytest.mark.parametrize(
    "backend, error",
    [
        (
            "float",
            {
                "type": "InconsistentSystemError",
                "message": "inversion step 2 is inconsistent (residual 1)",
                "step": 2,
                "residual": 1.0,
            },
        ),
        (
            # an exact inconsistency has no finite residual to report
            "rational",
            {
                "type": "InconsistentSystemError",
                "message": "inversion step 2 is inconsistent (residual inf)",
                "step": 2,
            },
        ),
    ],
)
def test_invert_off_image_sigma_reports_step_and_residual(capsys, tmp_path, backend, error):
    graph = tmp_path / "g.graph"
    graph.write_text("1 -> 2\n2 -> 3\n")
    sigma = tmp_path / "sigma.json"
    # step 2 asks sigma_13 = sigma_12 * lambda_23 with sigma_12 = 0
    sigma.write_text(json.dumps([[1, 0, 1], [0, 1, 0], [1, 0, 2]]))
    code, out = _run(capsys, "invert", str(graph), str(sigma), "--backend", backend)
    assert code == 2
    data = json.loads(out)
    assert data == {"error": error}
    _validator("invert").validate(data)


@pytest.mark.parametrize("backend", ["float", "rational"])
def test_trace_non_pd_omega_exit_2(capsys, tmp_path, backend):
    graph = tmp_path / "g.graph"
    graph.write_text("1 -> 2\n")
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps([[1, 2], [2, 1]]))  # recovers omega = diag(1, -3)
    code, out = _run(capsys, "trace", str(graph), str(sigma), "--backend", backend)
    assert code == 2
    assert json.loads(out) == {
        "error": {
            "type": "NotPositiveDefiniteError",
            "message": "recovered omega is not positive definite",
        }
    }


@pytest.mark.parametrize("backend", ["float", "rational"])
@pytest.mark.parametrize(
    "edges, sigma, error",
    [
        # step 2 asks sigma_13 = sigma_12 * lambda_23 with sigma_12 = 0
        ("1 -> 2\n2 -> 3\n", [[1, 0, 1], [0, 1, 0], [1, 0, 2]], "InconsistentSystemError"),
        ("1 -> 2\n", [[1, 2], [2, 1]], "NotPositiveDefiniteError"),
    ],
    ids=["inconsistent", "not-pd"],
)
def test_trace_domain_errors_match_trace_schema(capsys, tmp_path, backend, edges, sigma, error):
    graph = tmp_path / "g.graph"
    graph.write_text(edges)
    sigma_path = tmp_path / "sigma.json"
    sigma_path.write_text(json.dumps(sigma))
    code, out = _run(capsys, "trace", str(graph), str(sigma_path), "--backend", backend)
    assert code == 2
    data = json.loads(out)
    assert data["error"]["type"] == error
    _validator("trace").validate(data)


def test_invert_dimension_mismatch_exit_1(capsys, iv_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"labels": ["1", "2"], "entries": [[1, 0], [0, 1]]}))
    code = main(["invert", iv_file, str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "expected 3x3" in err


@pytest.mark.parametrize("backend", ["float", "rational"])
def test_malformed_matrix_exit_1(capsys, iv_file, tmp_path, backend):
    bad_entries = {
        "ragged": [[1, 0, 0], [0, 1], [0, 0, 1]],
        "word": [[1, 0, 0], [0, "x", 0], [0, 0, 1]],
        "vector": [1, 0, 0],
        "no-entries": {"labels": ["1", "2", "3"]},
    }
    for name, entries in bad_entries.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(entries))
        for command in ("invert", "trace"):
            code = main([command, iv_file, str(path), "--backend", backend])
            captured = capsys.readouterr()
            assert code == 1, (name, command)
            assert captured.out == ""
            assert captured.err.startswith("semident: error:")


@pytest.mark.parametrize("backend", ["float", "rational"])
@pytest.mark.parametrize("command", ["invert", "trace"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_matrix_entry_exit_1(capsys, chain_file, tmp_path, backend, command, value):
    # json writes NaN and Infinity, and json.loads reads them back as floats
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps([[2.0, 1.0, 0.5], [1.0, value, 1.0], [0.5, 1.0, 2.0]]))
    code = main([command, chain_file, str(path), "--backend", backend])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("semident: error: cannot parse matrix file")
    assert "not finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "GRAPH", "--scale", "nan"],
        ["sample", "GRAPH", "--scale", "inf"],
        ["sample", "GRAPH", "--scale=-inf", "--backend", "rational"],
        ["census", "--n", "2", "--trials", "-3"],
        ["census", "--n", "2", "--trials", "x"],
    ],
)
def test_unchecked_numeric_flags_exit_1(capsys, chain_file, argv):
    argv = [chain_file if a == "GRAPH" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert "expected a" in captured.err


def test_malformed_graph_json_exit_1(capsys, tmp_path):
    path = tmp_path / "g.json"
    for kind in ("directed", "bidirected"):
        for edges in ([["1", "2", "3"]], [["1"]], [1]):
            path.write_text(json.dumps({"nodes": ["1", "2", "3"], kind: edges}))
            code = main(["check", str(path)])
            captured = capsys.readouterr()
            assert code == 1, (kind, edges)
            assert captured.out == ""
            assert captured.err.startswith("semident: error: cannot parse graph file")


def test_trace_family_with_pole_at_a_probe(capsys, tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_text("1 -> 2\n2 -> 3\n1 <-> 2\n1 <-> 3\n3 <-> 4\n")
    code, out = _run(capsys, "sample", str(graph), "--seed", "17", "--backend", "rational")
    assert code == 0
    sigma_path = tmp_path / "sigma.json"
    sigma_path.write_text(json.dumps(json.loads(out)["sigma"]))
    code, out = _run(capsys, "trace", str(graph), str(sigma_path), "--backend", "rational")
    assert code == 0
    data = json.loads(out)
    _validator("trace").validate(data)
    assert data["kind"] == "family"
    assert data["deficient_step"] == 1
    assert data["family"]["interval"][1] is None


def test_unreadable_graph_exit_1(capsys, tmp_path):
    code = main(["check", str(tmp_path / "missing.graph")])
    assert code == 1
    binary = tmp_path / "binary.graph"
    binary.write_bytes(b"\xff\xfe1 -> 2\n")
    code = main(["check", str(binary)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("semident: error: cannot read graph file")


def test_usage_error_exit_1():
    for argv in (
        ["no-such-command"],
        ["census", "--n", "2", "--seed", "1"],
        ["census", "--n", "3", "--jobs", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_cycle_fiber_output(capsys):
    code, out = _run(
        capsys,
        "cycle-fiber",
        "--lam",
        "2,3,1/2",
        "--delta",
        "1,1,1",
        "--backend",
        "rational",
    )
    assert code == 0
    data = json.loads(out)
    _validator("cycle-fiber").validate(data)
    assert data["cardinality"] == 2
    assert data["points"][0]["lam"] == ["2", "3", "1/2"]


def test_cycle_fiber_bad_input_exit_2(capsys):
    code, out = _run(
        capsys, "cycle-fiber", "--lam", "1,1,1", "--delta", "1,1,1", "--backend", "rational"
    )
    assert code == 2
    assert "error" in json.loads(out)


def test_cycle_fiber_length_mismatch_exit_1(capsys):
    code = main(["cycle-fiber", "--lam", "1,2", "--delta", "1,1,1"])
    assert code == 1


def test_census_json(capsys):
    code, out = _run(capsys, "census", "--n", "3", "--trials", "3")
    assert code == 0
    data = json.loads(out)
    _validator("census").validate(data)
    assert data["disagreements"] == []


def test_census_csv(capsys):
    code, out = _run(capsys, "census", "--n", "2", "--format", "csv", "--trials", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("directed,")
    assert len(lines) == 5


def test_census_bad_n_exit_1(capsys):
    code = main(["census", "--n", "9"])
    assert code == 1


def test_trace_family_output(capsys, tmp_path):
    graph = tmp_path / "bow.graph"
    graph.write_text("1 -> 2\n1 <-> 2\n")
    from semident import linalg
    from semident.graphs import MixedGraph
    from semident.params import matrix_to_json, phi
    from fractions import Fraction

    g = MixedGraph(m=2, directed={(1, 2)}, bidirected={(1, 2)})
    lam = linalg.zeros(2, 2, "rational")
    lam[0, 1] = Fraction(1, 2)
    omega = linalg.to_array([[2, Fraction(1, 4)], [Fraction(1, 4), 2]], "rational")
    sigma_path = tmp_path / "sigma.json"
    sigma_path.write_text(json.dumps(matrix_to_json(phi(g, lam, omega))))
    code, out = _run(capsys, "trace", str(graph), str(sigma_path))
    assert code == 0
    data = json.loads(out)
    _validator("trace").validate(data)
    assert data["kind"] == "family"
    assert data["family"]["direction"]["step"] == 1
