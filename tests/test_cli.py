"""Command-line surface: exit codes, artifacts, determinism."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tangletree import cli
from tangletree.cli import main
from tangletree.errors import GraphFormatError
from tangletree.graph import Graph, load_graph
from tangletree.tangles import PreTangle, enumerate_tangles
from .conftest import clique_chain_graph, grid_graph, two_k4_bridge


@pytest.fixture()
def two_k4_file(tmp_path):
    path = tmp_path / "two_k4.json"
    path.write_text(two_k4_bridge().dumps())
    return str(path)


def run(args):
    return main(args)


def test_generate_and_reload(tmp_path):
    out = tmp_path / "pres.json"
    assert run(["generate", "--family", "ray", "--horizon", "3", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "presentation"
    assert doc["horizon"] == 3
    assert doc["tool_version"]
    assert doc["config_hash"]


def test_generate_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--family", "clique_chain", "--sizes", "8,12,20,36", "--horizon", "3"]
    assert run(args + ["--output", str(a)]) == 0
    assert run(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tangles_command(two_k4_file, tmp_path):
    out = tmp_path / "tangles.json"
    assert run(["tangles", "--input", two_k4_file, "--order", "3", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "tangle_list"
    assert len(doc["tangles"]) == 2


def test_tot_command(two_k4_file, tmp_path):
    out = tmp_path / "nested.json"
    assert run(["tot", "--input", two_k4_file, "--order", "3", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "nested_set"
    assert len(doc["members"]) == 1
    assert doc["report"]["ok"]


def test_decompose_command(two_k4_file, tmp_path):
    nested = tmp_path / "nested.json"
    run(["tot", "--input", two_k4_file, "--order", "3", "--output", str(nested)])
    td_out = tmp_path / "td.json"
    code = run(
        ["decompose", "--input", two_k4_file, "--input", str(nested), "--output", str(td_out)]
    )
    assert code == 0
    doc = json.loads(td_out.read_text())
    assert doc["kind"] == "tree_decomposition"
    assert len(doc["nodes"]) == 2
    dot_out = tmp_path / "td.dot"
    run(
        [
            "decompose",
            "--input",
            two_k4_file,
            "--input",
            str(nested),
            "--format",
            "dot",
            "--output",
            str(dot_out),
        ]
    )
    assert dot_out.read_text().startswith("graph")


def test_decompose_crossing_set_exits_two(tmp_path):
    graph = {
        "vertices": ["c0", "c1", "c2", "c3"],
        "edges": [["c0", "c1"], ["c1", "c2"], ["c2", "c3"], ["c0", "c3"]],
    }
    gpath = tmp_path / "c4.json"
    gpath.write_text(json.dumps(graph))
    nested = {
        "kind": "nested_set",
        "members": [
            {"a": ["c0", "c1", "c2"], "b": ["c0", "c2", "c3"]},
            {"a": ["c0", "c1", "c3"], "b": ["c1", "c2", "c3"]},
        ],
    }
    npath = tmp_path / "nested.json"
    npath.write_text(json.dumps(nested))
    out = tmp_path / "report.json"
    code = run(
        ["decompose", "--input", str(gpath), "--input", str(npath), "--output", str(out)]
    )
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["status"] == "fail"
    assert doc["check"] == "nestedness"


def test_limits_command_csv(tmp_path):
    out = tmp_path / "growth.csv"
    code = run(
        [
            "limits",
            "--family",
            "clique_chain",
            "--sizes",
            "8,12,20,36",
            "--horizon",
            "5",
            "--format",
            "csv",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "horizon,separator_size"
    assert lines[1:] == ["2,1", "3,2", "4,3", "5,4"]


def test_limits_command_exhaustive_family(tmp_path):
    out = tmp_path / "verdict.json"
    assert run(["limits", "--family", "ray", "--horizon", "5", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "exhaustive-evidence"
    assert doc["evidence_only"] is True


def test_ends_command_acceptance_invocation(tmp_path):
    out = tmp_path / "pipeline.json"
    code = run(
        [
            "ends",
            "--family",
            "clique_chain",
            "--sizes",
            "8,12,20,36",
            "--horizon",
            "5",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert doc["evidence_only"] is True
    assert [s["status"] for s in doc["stages"]] == ["pass"] * 5


def test_ends_command_grid_rejected(tmp_path):
    out = tmp_path / "pipeline.json"
    code = run(["ends", "--family", "grid", "--horizon", "5", "--output", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["rejected"] is True


@pytest.mark.parametrize(
    "family, code, rows",
    [("clique_chain", 0, ["3,2", "4,3", "5,4"]), ("ray", 2, [])],
    ids=["passing clique chain", "rejected ray"],
)
def test_ends_command_csv(tmp_path, family, code, rows):
    """CSV `ends` lists the packing size per horizon of the packing stage,
    and only its header when the pipeline rejects its input."""
    out = tmp_path / "ends.csv"
    args = ["ends", "--family", family, "--horizon", "5", "--format", "csv", "--output", str(out)]
    assert run(args + (["--sizes", "8,12,20,36"] if family == "clique_chain" else [])) == code
    assert out.read_text() == "\n".join(["horizon,packing", *rows]) + "\n"


def test_module_entry_point_prints_its_version_and_text_errors(tmp_path):
    """`python -m tangletree.cli` runs `main` and exits with its code; a
    failing command in a text format writes one `error:` line to stderr."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))

    def cli_run(*args):
        return subprocess.run([sys.executable, "-m", "tangletree.cli", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)

    done = cli_run("--version")
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{cli.__version__}\n", "")
    done = cli_run("tangles", "--format", "dot", "--input", "missing.json")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["limits", "ends"])
@pytest.mark.parametrize("horizon", [5, "3", True], ids=["beyond the layers", "string", "bool"])
def test_presentation_horizon_must_count_its_layers(tmp_path, capsys, command, horizon):
    """A presentation document whose horizon is no integer, or not the layer
    count less one, is a GraphFormatError, not a traceback."""
    pres = tmp_path / "pres.json"
    assert run(["generate", "--family", "ray", "--horizon", "3", "--output", str(pres)]) == 0
    doc = json.loads(pres.read_text())
    pres.write_text(json.dumps({**doc, "horizon": horizon}))
    capsys.readouterr()
    assert run([command, "--input", str(pres)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "error" and report["error"] == "GraphFormatError"
    assert "horizon" in report["message"]


def test_presentation_with_string_vertices_is_a_json_error(tmp_path, capsys):
    """Layer vertices written as the string "r:0:0" are not read as the
    vertices r, : and 0."""
    pres = tmp_path / "pres.json"
    assert run(["generate", "--family", "ray", "--horizon", "3", "--output", str(pres)]) == 0
    doc = json.loads(pres.read_text())
    doc["layers"][0]["vertices"] = "r:0:0"
    pres.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["limits", "--input", str(pres)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "GraphFormatError" and "must be a list" in report["message"]


def test_interlace_with_an_empty_sequence_is_a_json_error(tmp_path, capsys):
    with tempfile.TemporaryDirectory() as tmp_dir:
        docs = _valid_documents(tmp_dir)
    paths = []
    for index, doc in ((0, docs[0]), (2, docs[2]), (4, {"items": []}), (1, docs[1])):
        paths += ["--input", str(tmp_path / f"in{index}.json")]
        (tmp_path / f"in{index}.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["interlace", *paths]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "PreconditionError" and "empty" in report["message"]


def test_interlace_family_mode(tmp_path):
    out = tmp_path / "pair.json"
    code = run(
        [
            "interlace",
            "--family",
            "clique_chain",
            "--sizes",
            "8,12,20,36",
            "--horizon",
            "5",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["im_report"]["im1_ok"] and doc["im_report"]["im2_ok"]
    assert doc["im_report"]["thinned_im1_ok"] and doc["im_report"]["thinned_im2_ok"]


def test_verify_command(two_k4_file, tmp_path):
    nested = tmp_path / "nested.json"
    run(["tot", "--input", two_k4_file, "--order", "3", "--output", str(nested)])
    out = tmp_path / "verify.json"
    code = run(
        ["verify", "--input", two_k4_file, "--input", str(nested), "--output", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["ok"] is True


def test_verify_tangle_list(two_k4_file, tmp_path):
    tangles = tmp_path / "tangles.json"
    run(["tangles", "--input", two_k4_file, "--order", "3", "--output", str(tangles)])
    first, again = tmp_path / "verify.json", tmp_path / "verify2.json"
    for out in (first, again):
        args = ["verify", "--input", two_k4_file, "--input", str(tangles), "--output", str(out)]
        assert run(args) == 0
    doc = json.loads(first.read_text())
    assert doc["checks"] == [{"check": "tangles", "status": "pass", "failing": []}]
    assert first.read_bytes() == again.read_bytes()


def _path_abc(tmp_path):
    path = tmp_path / "abc.json"
    path.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}))
    return str(path)


def test_verify_rejects_string_lists_in_a_tree_decomposition(tmp_path, capsys):
    """On the path a-b-c-d, nodes "xy", edge "xy" and bags "ab" and "bcd"
    are not the lists of their characters."""
    graph = tmp_path / "abcd.json"
    graph.write_text(json.dumps({"vertices": list("abcd"), "edges": [list("ab"), list("bc"), list("cd")]}))
    td = tmp_path / "td.json"
    td.write_text(
        json.dumps({"kind": "tree_decomposition", "nodes": "xy", "edges": ["xy"], "bags": {"x": "ab", "y": "bcd"}})
    )
    assert run(["verify", "--input", str(graph), "--input", str(td)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "error" and doc["error"] == "GraphFormatError"


def test_verify_rejects_string_sides(tmp_path, capsys):
    """A side written as the string "ab" is not the vertex list ["a", "b"]."""
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"kind": "nested_set", "members": [{"a": "ab", "b": "bc"}]}))
    assert run(["verify", "--input", _path_abc(tmp_path), "--input", str(nested)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "error" and doc["error"] == "GraphFormatError"


@pytest.mark.parametrize("order_bound", [-5, 0, True])
def test_verify_rejects_tangle_order_below_one(tmp_path, capsys, order_bound):
    tangles = tmp_path / "tangles.json"
    tangles.write_text(
        json.dumps({"kind": "tangle_list", "tangles": [{"order_bound": order_bound, "orientation": []}]})
    )
    assert run(["verify", "--input", _path_abc(tmp_path), "--input", str(tangles)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "error" and doc["error"] == "GraphFormatError"
    assert "order_bound" in doc["message"]


def test_tangle_list_written_with_swapped_sides_reads_as_written(tmp_path, capsys):
    """Each entry written as (B, A), with its `toward` swapped, names the same
    orientation as the entry the library writes, so the list reads back as
    the tangles and passes `verify`."""
    g = Graph.from_data(["a", "b", "c"], [("a", "b"), ("b", "c")])
    tangles = enumerate_tangles(g, 2)
    docs = [t.to_json() for t in tangles]
    for entry in (e for doc in docs for e in doc["orientation"]):
        entry["sep"] = {"a": entry["sep"]["b"], "b": entry["sep"]["a"]}
        entry["toward"] = "a" if entry["toward"] == "b" else "b"
    assert [PreTangle.from_json(g, doc) for doc in docs] == tangles
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps({"kind": "tangle_list", "tangles": docs}))
    assert run(["verify", "--input", _path_abc(tmp_path), "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == [{"check": "tangles", "status": "pass", "failing": []}]


MALFORMED_GRAPHS = [
    ["a", "b"],
    {"edges": []},
    {"vertices": "ab", "edges": []},
    {"vertices": ["a", ""], "edges": []},
    {"vertices": ["a", "b", "a"], "edges": []},
    {"vertices": ["a", "b"], "edges": [["a"]]},
    {"vertices": ["a", "b"], "edges": [["a", 1]]},
    {"vertices": ["a", "b"], "edges": [["a", "a"]]},
    {"vertices": ["a", "b"], "edges": [["a", "z"]]},
    {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]},
]


@pytest.mark.parametrize("doc", MALFORMED_GRAPHS, ids=range(len(MALFORMED_GRAPHS)))
def test_malformed_graph_documents_report_as_load_graph_does(tmp_path, capsys, doc):
    """The CLI reads a graph document from its decoded JSON; each malformed
    one is the GraphFormatError, with the same message and context, that
    `load_graph` raises on its text."""
    with pytest.raises(GraphFormatError) as err:
        load_graph(json.dumps(doc))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphFormatError) as read:
        cli._load(str(path), cli._graph_of_document)
    assert (str(read.value), read.value.context) == (str(err.value), err.value.context)
    assert run(["tangles", "--input", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert (out["error"], out["message"]) == ("GraphFormatError", str(err.value))


def test_graph_document_is_decoded_once(two_k4_file):
    """A well-formed graph document is read from its decoded JSON, never
    encoded again, and gives the graph `load_graph` gives on its text."""
    with mock.patch.object(json, "dumps", side_effect=AssertionError("a graph document was encoded again")):
        g = cli._load(two_k4_file, cli._graph_of_document)
    assert g == load_graph(open(two_k4_file).read())


def test_verify_rejects_a_tangle_orienting_a_separation_twice(tmp_path, capsys):
    """On the path a-b-c, an order-2 tangle whose document repeats one
    entry with the opposite `toward` is a malformed document: exit 1 with a
    JSON error naming the separation, not a pass on the last entry's choice."""
    g = Graph.from_data(["a", "b", "c"], [("a", "b"), ("b", "c")])
    doc = enumerate_tangles(g, 2)[0].to_json()
    entry = doc["orientation"][0]
    doc["orientation"].append({"sep": entry["sep"], "toward": "a" if entry["toward"] == "b" else "b"})
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"kind": "tangle_list", "tangles": [doc]}))
    assert run(["verify", "--input", _path_abc(tmp_path), "--input", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "error" and out["error"] == "GraphFormatError"
    assert "oriented twice" in out["message"]


@pytest.mark.parametrize(
    "bags",
    [
        {"n0": ["a", "c"], "n1": ["b"]},  # no bag holds an edge: the tree edge crosses both
        {"n0": ["a", "b"], "n1": ["b"]},  # c is in no bag
        {"n0": ["a", "b", "z"], "n1": ["b", "c"]},  # z is no vertex of the graph
    ],
)
def test_verify_bad_tree_decomposition_is_a_fail(tmp_path, capsys, bags):
    """On the path a-b-c, a tree edge whose sides are no separation makes a
    computed `fail` with exit 2, not an error."""
    td = tmp_path / "td.json"
    td.write_text(
        json.dumps({"kind": "tree_decomposition", "nodes": ["n0", "n1"], "edges": [["n0", "n1"]], "bags": bags})
    )
    assert run(["verify", "--input", _path_abc(tmp_path), "--input", str(td)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["checks"] == [{"check": "tree_decomposition", "status": "fail"}]


def test_error_reports_are_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices":["a"],"edges":[["a","a"]]}')
    code = run(["tangles", "--input", str(bad), "--order", "2"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "error"
    assert doc["error"] == "GraphFormatError"


def test_unknown_artifact_kind_errors(two_k4_file, tmp_path, capsys):
    stray = tmp_path / "stray.json"
    stray.write_text('{"kind": "mystery"}')
    code = run(["verify", "--input", two_k4_file, "--input", str(stray)])
    assert code == 1
    capsys.readouterr()


def test_verify_crossing_set_reports_first_crossing_pair(tmp_path):
    cycle = [f"c{i}" for i in range(6)]
    graph = {"vertices": cycle, "edges": [[cycle[i], cycle[(i + 1) % 6]] for i in range(6)]}
    gpath = tmp_path / "c6.json"
    gpath.write_text(json.dumps(graph))
    # the first member is nested with both others, which cross; sorted by
    # sides, the crossing pair would come out the other way round
    members = [
        {"a": ["c0", "c1", "c2"], "b": ["c0", "c2", "c3", "c4", "c5"]},
        {"a": ["c0", "c1", "c2", "c3", "c5"], "b": ["c3", "c4", "c5"]},
        {"a": ["c0", "c1", "c2", "c3", "c4"], "b": ["c0", "c4", "c5"]},
    ]
    npath = tmp_path / "nested.json"
    npath.write_text(json.dumps({"kind": "nested_set", "members": members}))
    out = tmp_path / "report.json"
    code = run(["verify", "--input", str(gpath), "--input", str(npath), "--output", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["ok"] is False
    assert doc["checks"] == [{"check": "nestedness", "status": "fail", "witness": members[1:]}]


def _fault_case(tmp_path, two_k4_file, case):
    """The argument list of one input fault and the text its error names."""
    missing = str(tmp_path / "absent.json")
    broken = tmp_path / "broken.json"
    broken.write_text('{"vertices": ["a"], "edges": [')
    bare = tmp_path / "bare.json"
    bare.write_text('{"kind": "nested_set"}')
    sepless = tmp_path / "sepless.json"
    sepless.write_text('{"kind": "tangle_list", "tangles": [{"order_bound": 1, "orientation": [{"toward": "b"}]}]}')
    return {
        "nonexistent input": (["tangles", "--input", missing], missing),
        "invalid JSON": (["tot", "--input", str(broken)], str(broken)),
        "decompose without members": (
            ["decompose", "--input", two_k4_file, "--input", str(bare)], str(bare)
        ),
        "verify without members": (["verify", "--input", two_k4_file, "--input", str(bare)], str(bare)),
        "verify a tangle entry without sep": (["verify", "--input", two_k4_file, "--input", str(sepless)], str(sepless)),
        "tangles without input": (["tangles"], "--input"),
        "tot without input": (["tot"], "--input"),
        "decompose with one input": (["decompose", "--input", two_k4_file], "--input"),
        "verify without input": (["verify"], "--input"),
    }[case]


@pytest.mark.parametrize(
    "case",
    [
        "nonexistent input",
        "invalid JSON",
        "decompose without members",
        "verify without members",
        "verify a tangle entry without sep",
        "tangles without input",
        "tot without input",
        "decompose with one input",
        "verify without input",
    ],
)
def test_input_faults_are_json_errors(two_k4_file, tmp_path, capsys, case):
    args, named = _fault_case(tmp_path, two_k4_file, case)
    assert run(args) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "error"
    assert doc["error"] == "GraphFormatError"
    assert named in doc["message"]


def test_order_above_vertex_count_is_a_json_error(tmp_path, capsys):
    one = tmp_path / "one.json"
    one.write_text('{"vertices": ["a"], "edges": []}')
    assert run(["tangles", "--input", str(one), "--order", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "PreconditionError"


def test_config_hash_follows_input_contents(two_k4_file, tmp_path, capsys):
    copy = tmp_path / "copy.json"
    copy.write_text(open(two_k4_file).read())

    def config_hash(path):
        assert run(["tangles", "--input", str(path), "--order", "2"]) == 0
        return json.loads(capsys.readouterr().out)["config_hash"]

    assert config_hash(two_k4_file) == config_hash(copy)
    before = config_hash(copy)
    copy.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    assert config_hash(copy) != before


def test_config_hash_is_pinned(tmp_path, capsys):
    """The hash a fixed `tangles` command has always printed, with the
    options given after or before the command name."""
    path = tmp_path / "g4.json"
    path.write_text('{"vertices":["a","b","c","d"],"edges":[["a","b"],["b","c"],["c","d"],["a","c"]]}')
    for args in (["tangles", "--input", str(path), "--order", "2"], ["--order", "2", "tangles", "--input", str(path)]):
        assert run(args) == 0
        assert json.loads(capsys.readouterr().out)["config_hash"] == "6becd41318ae32f2"


def test_reused_parser_keeps_inputs_per_call(two_k4_file, monkeypatch):
    """The parser is built once; `--input` values of one call must not leak
    into the `append` default the next call starts from."""
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "tangles", lambda args: seen.append(list(args.input)) or 0)
    assert run(["tangles", "--input", two_k4_file, "--input", "second.json"]) == 0
    assert run(["tangles", "--input", two_k4_file]) == 0
    assert run(["tangles"]) == 0
    assert seen == [[two_k4_file, "second.json"], [two_k4_file], []]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "args, code", [([], 2), (["nope"], 2), (["--version"], 0), (["tangles", "--help"], 0)]
)
def test_parser_exit_codes(args, code):
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == code


# Valid documents on two triangles joined by an edge, which the property
# below breaks one at a time.
_TRIANGLES = {
    "vertices": ["a1", "a2", "a3", "b1", "b2", "b3"],
    "edges": [["a1", "a2"], ["a1", "a3"], ["a2", "a3"], ["a3", "b1"], ["b1", "b2"], ["b1", "b3"], ["b2", "b3"]],
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.sampled_from(["", "a", "a1", "b", "n0", "kind"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(
            [
                "kind", "members", "tangles", "nodes", "edges", "bags", "vertices", "a", "b",
                "items", "orientation", "sep", "toward", "order_bound", "rays", "layers", "horizon", "params",
            ]
        ),
        inner,
        max_size=3,
    ),
    max_leaves=6,
)


def _valid_documents(tmp_dir) -> list:
    """The graph, its tangle list, nested set and tree decomposition, a
    sequence of one nested-set member, and a clique-chain presentation."""
    gpath = os.path.join(tmp_dir, "g.json")
    with open(gpath, "w") as fh:
        json.dump(_TRIANGLES, fh)
    docs = [_TRIANGLES]
    for command, extra in (("tangles", []), ("tot", []), ("decompose", ["--input", gpath + ".tot"])):
        out = gpath + "." + command
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--input", gpath, "--order", "2", "--output", out] + extra) == 0
        with open(out) as fh:
            docs.append(json.load(fh))
    docs.append({"items": docs[2]["members"][:1]})
    out = gpath + ".generate"
    with contextlib.redirect_stdout(io.StringIO()):
        args = ["generate", "--family", "clique_chain", "--horizon", "2", "--sizes", "3,6,12", "--output", out]
        assert main(args) == 0
    with open(out) as fh:
        docs.append(json.load(fh))
    return docs


def _paths(doc, prefix=()):
    """Every path of keys and indices into doc, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _broken(draw, doc):
    """doc with one value replaced by arbitrary JSON, or one key or item removed."""
    path = draw(st.sampled_from(list(_paths(doc))))
    replacement = draw(_JSON)
    if not path:
        return replacement
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_documents_give_json_reports(data):
    command, inputs = data.draw(
        st.sampled_from(
            [
                ("tangles", [0]),
                ("tot", [0]),
                ("decompose", [0, 2]),
                ("verify", [0, 1, 2, 3]),
                ("interlace", [0, 2, 4, 1]),
                ("limits", [5]),
                ("ends", [5]),
            ]
        )
    )
    with tempfile.TemporaryDirectory() as tmp_dir:
        docs = _valid_documents(tmp_dir)
        spoiled = data.draw(st.sampled_from(inputs))
        args = [command, "--order", "2"]
        for index in inputs:
            doc = data.draw(_broken(docs[index])) if index == spoiled else docs[index]
            path = os.path.join(tmp_dir, f"in{index}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            args += ["--input", path]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(args)
    assert code in (0, 1, 2)
    json.loads(out.getvalue())


def test_order_below_one_is_a_json_error(two_k4_file, capsys):
    assert run(["tangles", "--input", two_k4_file, "--order", "0"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "PreconditionError"
    assert "order" in doc["message"]


def test_sizes_that_are_not_integers_are_a_json_error(capsys):
    assert run(["generate", "--family", "clique_chain", "--sizes", "3,x"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "FamilyParameterError"
    assert "--sizes" in doc["message"]


def test_output_into_missing_directory_is_a_json_error(tmp_path, capsys):
    target = tmp_path / "absent" / "pres.json"
    assert run(["generate", "--family", "ray", "--output", str(target)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "OutputError"
    assert str(target) in doc["message"]
    assert not target.parent.exists()


def test_failed_command_leaves_existing_output_untouched(two_k4_file, tmp_path, capsys):
    out = tmp_path / "tangles.json"
    assert run(["tangles", "--input", two_k4_file, "--output", str(out)]) == 0
    before = out.read_bytes()
    assert run(["tangles", "--input", two_k4_file, "--order", "0", "--output", str(out)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "PreconditionError"
    assert out.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["tangles.json", "two_k4.json"]  # no temporary file


def _int_text(low, high):
    return st.integers(low, high).map(str)


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_argument_values_give_json_reports(data):
    """Values that pass argparse's type checks but not the commands' own."""
    with tempfile.TemporaryDirectory() as tmp_dir:
        gpath = os.path.join(tmp_dir, "g.json")
        with open(gpath, "w") as fh:
            json.dump(_TRIANGLES, fh)
        command = data.draw(st.sampled_from(["tangles", "tot", "generate", "limits", "interlace", "ends"]))
        if command in ("tangles", "tot"):
            args = [command, "--input", gpath, "--order", data.draw(_int_text(-2, 8))]
        else:
            family = data.draw(st.sampled_from(["clique_chain", "ray", "double_ray", "grid", "binary_tree"]))
            args = [command, "--family", family, "--horizon", data.draw(_int_text(-2, 3))]
            args += ["--width", data.draw(_int_text(-1, 3))]
            sizes = st.lists(_int_text(-3, 40) | st.sampled_from(["", "x", " 9", "1.5"]), min_size=1, max_size=5)
            if data.draw(st.booleans()):
                args += ["--sizes=" + ",".join(data.draw(sizes))]  # one token, even with a leading "-"
        args += ["--budget", data.draw(_int_text(-1, 10) | st.just("2000000"))]
        if data.draw(st.booleans()):
            args += ["--output", os.path.join(tmp_dir, "absent", "out.json")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(args)
    assert code in (0, 1, 2)
    json.loads(out.getvalue())


_HASH_SEED_RUN = """
import sys
from tangletree.cli import main
for name in ("two_k4", "grid", "chain"):
    graph = name + ".json"
    runs = [
        ["tangles", "--input", graph, "--order", "3", "--output", name + "_tangles.json"],
        ["tot", "--input", graph, "--order", "3", "--output", name + "_tot.json"],
        ["decompose", "--input", graph, "--input", name + "_tot.json", "--output", name + "_td.json"],
        ["decompose", "--input", graph, "--input", name + "_tot.json", "--format", "dot",
         "--output", name + "_td.dot"],
        ["verify", "--input", graph, "--input", name + "_tangles.json", "--input", name + "_tot.json",
         "--input", name + "_td.json", "--output", name + "_verify.json"],
    ]
    for args in runs:
        if main(args) != 0:
            sys.exit(f"exit != 0: {args}")
"""


def test_artifacts_are_identical_across_hash_seeds(tmp_path):
    """`tangles`, `tot`, `decompose` and `verify` write the same bytes in
    two processes whose string hashes differ (PYTHONHASHSEED 0 and 1), on
    the two-K4 graph, the 3x4 grid and a chain of three K4s."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = []
    for seed in ("0", "1"):
        work = tmp_path / seed
        work.mkdir()
        (work / "two_k4.json").write_text(two_k4_bridge().dumps())
        (work / "grid.json").write_text(grid_graph(3, 4).dumps())
        (work / "chain.json").write_text(clique_chain_graph(3, 4).dumps())
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.join(root, "src"))
        done = subprocess.run([sys.executable, "-c", _HASH_SEED_RUN], cwd=work, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(work.iterdir())})
    assert len(outputs[0]) == 18
    assert outputs[0] == outputs[1]
