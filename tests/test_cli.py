import json
import time

import pytest

from sepfacets.cli import main
from sepfacets.formats import emit_graph6, parse_graph6
from sepfacets.formulas import BoundPair, n_complete_multipartite
from sepfacets.graphs import complete_bipartite, complete_graph, path_graph

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
    g6_file = tmp_path / "g.g6"
    g6_file.write_text("C~\n")
    code, out, _ = run(capsys, "count", "--file", str(g6_file))
    assert code == 0 and out == "14\n"


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
    path = tmp_path / "graphs.g6"
    path.write_text("Bw\nBo\n")
    code, out, _ = run(capsys, "verify", "--graph6-file", str(path))
    assert code == 0
    assert "graphs_checked=2" in out


def test_verify_input_error_exit_code(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("C~\nC?\n")  # second graph disconnected (no edges)
    code, out, err = run(capsys, "verify", "--graph6-file", str(path))
    assert code == 1
    assert "graphs_checked=1" in out
    assert "input error" in err


def test_verify_violation_exit_code(capsys, monkeypatch):
    # impossible bracket, so every graph violates; exercises the exit path
    monkeypatch.setattr("sepfacets.harness.conjecture_bounds",
                        lambda n: BoundPair(10**9, 10**9, "odd", n))
    code, out, _ = run(capsys, "verify", "--n", "3")
    assert code == 2
    assert "violations=2" in out.splitlines()[0]
    assert any(ln.startswith("violation ") for ln in out.splitlines())


def test_verify_identities_cli(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--identities")
    assert code == 0
    assert out.startswith("identities n_max=3")


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


def test_unknown_flags_are_input_errors(capsys):
    code, _, err = run(capsys, "count", "--nope")
    assert code == 1 and err.startswith("error:")
    code, _, _ = run(capsys, "count")
    assert code == 1


def test_k1_join_build(capsys):
    # joining with a single vertex equals suspension
    code, out, _ = run(capsys, "build", "--join", "@", emit_graph6(complete_graph(2)))
    assert code == 0
    assert parse_graph6(out.strip()).n == 3
