import hashlib
import json
import time

import pytest

from sepfacets import cli
from sepfacets.canon import generate_connected
from sepfacets.cli import main
from sepfacets.formats import emit_graph6, parse_graph6
from sepfacets.formulas import BoundPair, n_complete_multipartite
from sepfacets.graphs import (
    complete_bipartite,
    complete_graph,
    join,
    one_sum,
    path_graph,
    suspension,
)

EXAMPLE_SPEC = "5 7;0 1;1 2;2 3;3 4;4 0;1 3;2 4"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_edges_example(capsys):
    code, out, _ = run(capsys, "count", "--edges", EXAMPLE_SPEC)
    assert code == 0 and out == "22\n"


def test_count_graph6(capsys):
    code, out, _ = run(capsys, "count", "--graph6", "C~")
    assert code == 0 and out == "14\n"


@pytest.mark.parametrize("method", ["oracle", "decomposition", "domination", "formula"])
def test_count_methods_agree_on_k4(capsys, method):
    code, out, _ = run(capsys, "count", "--graph6", "C~", "--method", method)
    assert code == 0 and out == "14\n"


def test_count_from_files(capsys, tmp_path):
    edge_file = tmp_path / "g.txt"
    edge_file.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "count", "--file", str(edge_file))
    assert code == 0 and out == "6\n"
    # any whitespace separates the header's two fields
    edge_file.write_text("3\t3\n0\t1\n1\t2\n0\t2\n")
    code, out, _ = run(capsys, "count", "--file", str(edge_file))
    assert code == 0 and out == "6\n"
    g6_file = tmp_path / "g.g6"
    g6_file.write_text("C~\n")
    code, out, _ = run(capsys, "count", "--file", str(g6_file))
    assert code == 0 and out == "14\n"
    # count takes one graph; a graph6 file of many is for verify
    g6_file.write_text("C~\nCq\n")
    code, out, err = run(capsys, "count", "--file", str(g6_file))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "verify --graph6-file" in err
    # a first field that is an integer means an edge list, whatever follows
    for text, head in (("3 3 x\n0 1\n1 2\n0 2\n", "3 3 x"), ("3\n", "3")):
        edge_file.write_text(text)
        code, out, err = run(capsys, "count", "--file", str(edge_file))
        assert code == 1 and out == ""
        assert err == f"error: expected 'n m' header, got {head!r}\n"


def test_count_method_preconditions(capsys):
    # 4-cycle has no vertex adjacent to all others
    code, _, err = run(capsys, "count", "--edges", "4 4;0 1;1 2;2 3;3 0",
                       "--method", "domination")
    assert code == 1 and "domination" in err
    # 5-cycle is not complete multipartite
    code, _, err = run(capsys, "count", "--edges", "5 5;0 1;1 2;2 3;3 4;4 0",
                       "--method", "formula")
    assert code == 1 and "formula" in err


def test_count_rejects_disconnected(capsys):
    code, _, err = run(capsys, "count", "--edges", "4 2;0 1;2 3")
    assert code == 1 and "connected" in err


def _spec(n, edge_list):
    return f"{n} {len(edge_list)};" + ";".join(f"{i} {j}" for i, j in edge_list)


@pytest.mark.parametrize("n, edge_list, expected", [
    # chain of 20 triangles, each glued to the last at one vertex
    (41, [e for k in range(0, 40, 2) for e in ((k, k + 1), (k + 1, k + 2), (k, k + 2))],
     6 ** 20),
    (40, [(i, i + 1) for i in range(39)], 2 ** 39),
    (40, [(i, j) for i in range(40) for j in range(i + 1, 40)], 2 ** 40 - 2),
    (24, [(i, j) for i in range(24) for j in range(i + 1, 24) if i // 8 != j // 8],
     n_complete_multipartite([8, 8, 8])),
])
def test_count_multiplies_over_blocks(capsys, n, edge_list, expected):
    # one scan of the whole graph would visit 2^(n-1) cuts; per block it is 1
    # or 3, and the joins K40 and K_{8,8,8} split into sides scanned alone
    start = time.monotonic()
    code, out, _ = run(capsys, "count", "--edges", _spec(n, edge_list))
    elapsed = time.monotonic() - start
    assert code == 0 and out == f"{expected}\n"
    assert elapsed < 1.0


def test_count_refuses_large_scan(capsys):
    cycle = [(i, (i + 1) % 40) for i in range(40)]
    code, out, err = run(capsys, "count", "--edges", _spec(40, cycle))
    assert code == 1 and out == ""
    assert "40-vertex block is too large to scan" in err
    cycle = [(i, (i + 1) % 30) for i in range(30)]
    code, out, err = run(capsys, "count", "--edges", _spec(30, cycle),
                         "--method", "oracle")
    assert code == 1 and out == ""
    assert "30-vertex graph is too large for the labeling oracle" in err


def test_facets_output(capsys):
    code, out, _ = run(capsys, "facets", "--graph6", "A_")
    assert code == 0
    assert out.splitlines() == ["0 -1", "0 1"]


def test_facets_subgraph_table(capsys):
    code, out, _ = run(capsys, "facets", "--edges", EXAMPLE_SPEC, "--subgraphs")
    assert code == 0
    lines = out.splitlines()
    assert len([ln for ln in lines if not ln.startswith(("subgraphs", "H", "total"))]) == 22
    assert "subgraphs 7" in lines
    assert lines[-1] == "total 22"
    mus = sorted(int(ln.rsplit("mu=", 1)[1]) for ln in lines if ln.startswith("H"))
    assert mus == [2, 2, 2, 2, 4, 4, 6]


def test_facets_subgraph_tables_are_pinned(capsys):
    # Every table line of every connected class on 3..6 vertices (141
    # graphs), byte for byte: V1, V2, the removed edges and mu of each cut.
    out = []
    for n in range(3, 7):
        for g in generate_connected(n):
            code, text, _ = run(capsys, "facets", "--graph6", emit_graph6(g), "--subgraphs")
            assert code == 0
            out.append(text)
    assert len(out) == 141
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "89ec340325221343b1180a70e188592e6bba70b2d78169f6cc376d7f9e2a9f6e"


def test_build_commands(capsys):
    code, out, _ = run(capsys, "build", "--suspension", "A_")
    assert code == 0 and out == "Bw\n"
    code, out, _ = run(capsys, "build", "--join", "A?", "A?")
    assert code == 0
    assert parse_graph6(out.strip()) == complete_bipartite(2, 2)
    code, out, _ = run(capsys, "build", "--one-sum", "A_", "1", "A_", "0")
    assert code == 0
    from sepfacets.canon import canonical_form

    assert canonical_form(parse_graph6(out.strip())) == canonical_form(path_graph(3))


P30, P35, P36, P64 = (emit_graph6(path_graph(n)) for n in (30, 35, 36, 64))


@pytest.mark.parametrize("argv, build", [
    (["--suspension", P64], lambda: suspension(path_graph(64))),
    (["--join", P30, P35], lambda: join(path_graph(30), path_graph(35))),
    (["--one-sum", P30, "0", P36, "0"], lambda: one_sum(path_graph(30), 0, path_graph(36), 0)),
], ids=["suspension", "join", "one_sum"])
def test_build_refuses_results_over_the_cap(monkeypatch, capsys, argv, build):
    monkeypatch.delenv("SEP_MAX_N", raising=False)
    code, out, err = run(capsys, "build", *argv)
    assert (code, out, err) == (1, "", "error: vertex count 65 outside [1, 64]\n")
    monkeypatch.setenv("SEP_MAX_N", "65")
    code, out, _ = run(capsys, "build", *argv)
    assert code == 0 and out == emit_graph6(build()) + "\n"


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "5")
    assert code == 0 and out == "n=5 parity=odd lower=10 upper=36\n"


def test_verify_small(capsys):
    code, out, err = run(capsys, "verify", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "conjecture n=4 graphs_checked=6 violations=0 extremal_hits=2"
    assert any(ln.startswith("hit ") for ln in lines)
    assert "runtime" in err and "runtime" not in out


def test_verify_stdout_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--n", "4")
    _, second, _ = run(capsys, "verify", "--n", "4")
    assert first == second


def test_verify_writes_reports(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "verify", "--n", "3",
                     "--json", str(json_path), "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(json_path.read_text())
    assert payload["graphs_checked"] == 2 and payload["violations"] == []
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "graph6,n,facet_count,lower,upper,class"
    assert len(lines) == 3


def test_verify_graph6_file(capsys, tmp_path):
    # surrounding whitespace and the >>graph6<< header are not part of the string
    path = tmp_path / "graphs.g6"
    csv_path = tmp_path / "rows.csv"
    path.write_text(" Bw \n>>graph6<<Bo\n")
    code, out, _ = run(capsys, "verify", "--graph6-file", str(path),
                       "--csv", str(csv_path))
    assert code == 0
    assert out.splitlines() == [
        "conjecture n=3 graphs_checked=2 violations=0 extremal_hits=2",
        "hit Bw one_sum_of_triangles", "hit Bo star"]
    cells = [ln.split(",")[0] for ln in csv_path.read_text().splitlines()[1:]]
    assert cells == ["Bw", "Bo"]


def test_verify_input_error_exit_code(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("C~\nC?\n")  # second graph disconnected (no edges)
    code, out, err = run(capsys, "verify", "--graph6-file", str(path))
    assert code == 1
    assert "graphs_checked=1" in out
    assert "input error" in err


@pytest.mark.parametrize("text", ["Bx\nBw\n", "Bw\nBx\n"], ids=["bad_first", "bad_last"])
def test_verify_malformed_line_in_any_position(capsys, tmp_path, text):
    # n comes from the first line that parses; a malformed line is one
    # input error wherever it sits (Bx is K3 with a nonzero padding bit)
    path = tmp_path / "graphs.g6"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--graph6-file", str(path))
    assert code == 1
    assert out.splitlines() == [
        "conjecture n=3 graphs_checked=1 violations=0 extremal_hits=1",
        "hit Bw one_sum_of_triangles"]
    assert err.splitlines()[0] == "input error: Bx: nonzero padding bits in the last graph6 byte"


def test_verify_file_with_no_parsing_line(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("Bx\nB\n")
    code, out, err = run(capsys, "verify", "--graph6-file", str(path))
    assert code == 1 and out == ""
    assert err == "error: nonzero padding bits in the last graph6 byte\n"
    path.write_text("\n  \n")
    code, out, err = run(capsys, "verify", "--graph6-file", str(path))
    assert code == 1 and out == ""
    assert err == "error: graph6 file is empty\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "verify", "--n", "4", "--jobs", jobs)
    assert code == 1 and out == ""
    assert err == f"error: jobs must be at least 1, got {jobs}\n"


def test_verify_refuses_n_above_the_generator_cap(capsys, monkeypatch):
    monkeypatch.delenv("SEP_MAX_N", raising=False)
    code, out, err = run(capsys, "verify", "--n", "8")
    assert code == 1 and out == ""
    assert err == ("error: internal generator limited to n <= 7; "
                   "ingest graph6 for larger n\n")


@pytest.mark.parametrize("n", ["2", "1", "0", "-3"])
def test_verify_refuses_n_below_three_by_the_bounds(capsys, n):
    code, out, err = run(capsys, "verify", "--n", n)
    assert code == 1 and out == ""
    assert err == "error: bounds are stated for n >= 3\n"


def test_verify_violation_exit_code(capsys, monkeypatch):
    # a bracket above every count, so every graph violates; exercises the exit path
    monkeypatch.setattr("sepfacets.harness.conjecture_bounds",
                        lambda n: BoundPair(10**9, 10**9, "odd", n))
    code, out, _ = run(capsys, "verify", "--n", "3")
    assert code == 2
    assert "violations=2" in out.splitlines()[0]
    assert any(ln.startswith("violation ") for ln in out.splitlines())
    # a bracket below every count: each graph breaks the upper bound
    monkeypatch.setattr("sepfacets.harness.conjecture_bounds",
                        lambda n: BoundPair(1, 1, "odd", n))
    code, out, _ = run(capsys, "verify", "--n", "3")
    assert code == 2
    assert out.splitlines() == [
        "conjecture n=3 graphs_checked=2 violations=2 extremal_hits=0",
        "violation Bo upper 4", "violation Bw upper 6"]


def test_verify_identities_cli(capsys, monkeypatch, tmp_path):
    code, out, _ = run(capsys, "verify", "--n", "3", "--identities")
    assert code == 0
    assert out.startswith("identities n_max=3")
    monkeypatch.delenv("SEP_MAX_N", raising=False)
    code, out, err = run(capsys, "verify", "--n", "8", "--identities")
    assert code == 1 and out == "" and "n_max <= 7" in err
    for n_max in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--n", n_max, "--identities")
        assert code == 1 and out == ""
        assert err == f"error: identity sweep needs n_max >= 1, got {n_max}\n"
    # the identity suites have no per-graph rows for a CSV
    csv_path = tmp_path / "rows.csv"
    code, out, err = run(capsys, "verify", "--n", "3", "--identities",
                         "--csv", str(csv_path))
    assert code == 1 and out == "" and err.startswith("error: ")
    assert "--csv" in err and not csv_path.exists()
    # the identity suites run on generated families, not on a file
    path = tmp_path / "graphs.g6"
    path.write_text("Bw\n")
    code, out, err = run(capsys, "verify", "--identities", "--graph6-file", str(path))
    assert code == 1 and out == ""
    assert err == "error: --identities runs on generated families; use --n\n"
    # the identity suites run in one process
    for jobs in ("4", "0"):
        code, out, err = run(capsys, "verify", "--n", "3", "--identities", "--jobs", jobs)
        assert code == 1 and out == "" and err.startswith("error: ") and "--jobs" in err


def test_generate(capsys):
    code, out, _ = run(capsys, "generate", "--n", "4")
    assert code == 0 and len(out.splitlines()) == 6
    assert all(";" in ln for ln in out.splitlines())
    code, out, _ = run(capsys, "generate", "--n", "4", "--graph6")
    graphs = [parse_graph6(ln) for ln in out.splitlines()]
    assert len(graphs) == 6 and all(g.n == 4 for g in graphs)


def test_generate_too_large(capsys, monkeypatch):
    monkeypatch.delenv("SEP_MAX_N", raising=False)
    code, _, err = run(capsys, "generate", "--n", "9")
    assert code == 1 and "graph6" in err
    for n in ("0", "-3"):
        code, out, err = run(capsys, "generate", "--n", n)
        assert code == 1 and out == ""
        assert err == f"error: internal generator needs n >= 1, got {n}\n"


def test_unknown_flags_are_input_errors(capsys):
    code, _, err = run(capsys, "count", "--nope")
    assert code == 1 and err.startswith("error:")
    code, _, _ = run(capsys, "count")
    assert code == 1


def test_reused_parser_parses_as_a_fresh_one(capsys):
    # main builds its parser once per process; an error part way through a
    # parse must leave nothing behind for the next call
    calls = [
        ("count", "--graph6", "C~", "--method", "nope"),
        ("count", "--graph6", "C~"),
        ("bounds", "--n", "7"),
        ("count", "--edges", EXAMPLE_SPEC, "--method", "oracle"),
        ("bounds",),
        ("bounds", "--n", "8"),
    ]
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [1, 0, 0, 0, 1, 0]
    assert fresh[1][1] == "14\n" and fresh[2][1].startswith("n=7 ")


def test_k1_join_build(capsys):
    # joining with a single vertex equals suspension
    code, out, _ = run(capsys, "build", "--join", "@", emit_graph6(complete_graph(2)))
    assert code == 0
    assert parse_graph6(out.strip()).n == 3
