"""Text formats: graph6, edge-list files, and the inline edge spec.

graph6 packs the upper triangle of the adjacency matrix column-major
(x(0,1), x(0,2), x(1,2), x(0,3), ...), six bits per byte, each byte offset
by 63. Sizes below 63 are a single leading byte n+63; larger sizes use the
standard '~' three-byte header. The last byte is padded with zero bits. A
string with a nonzero padding bit, or with the '~' header for a size below
63, is refused, so each graph has one graph6 string. An optional
">>graph6<<" prefix is accepted.

The edge-list file format is "n m" on the first line and one "i j" pair per
following line, 0-based. The inline spec is the same data on one line,
semicolon separated: "n m;i j;i j;...".
"""

from __future__ import annotations

from .graphs import Graph, GraphError, _bare_graph, edge_count, edges, from_edges
from .limits import max_vertices

GRAPH6_HEADER = ">>graph6<<"


class FormatError(ValueError):
    """Malformed textual graph input."""


def parse_graph6(line: str) -> Graph:
    s = line.strip().removeprefix(GRAPH6_HEADER)
    if not s:
        raise FormatError("empty graph6 string")
    data = [ord(ch) for ch in s]
    for b in data:
        if not 63 <= b <= 126:
            raise FormatError(f"graph6 byte {b} outside [63, 126]")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise FormatError("graph6 sizes above 258047 are not supported")
        if len(data) < 4:
            raise FormatError("truncated graph6 size block")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n < 63:
            raise FormatError(f"graph6 size {n} below 63 takes the one-byte form")
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n < 1:
        raise FormatError("graph6 string encodes an empty vertex set")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise FormatError("graph6 body too short")
    if len(body) > need:
        raise FormatError("trailing garbage after graph6 body")
    if body and (body[-1] - 63) & ((1 << (6 * need - nbits)) - 1):
        raise FormatError("nonzero padding bits in the last graph6 byte")
    cap = max_vertices()
    if n > cap:
        raise FormatError(f"vertex count {n} outside [1, {cap}]")
    # the decoded rows are symmetric and loop-free by construction
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (body[k // 6] - 63) >> (5 - k % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return _bare_graph(n, tuple(rows))


def emit_graph6(g: Graph) -> str:
    n = g.n
    if n < 63:
        head = [chr(n + 63)]
    else:
        head = ["~", chr((n >> 12) + 63), chr((n >> 6 & 63) + 63), chr((n & 63) + 63)]
    out = list(head)
    acc = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (g.adj[i] >> j & 1)
            filled += 1
            if filled == 6:
                out.append(chr(acc + 63))
                acc = 0
                filled = 0
    if filled:
        out.append(chr((acc << (6 - filled)) + 63))
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"non-integer header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise FormatError(f"header declares {m} edges, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'i j' edge line, got {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(f"non-integer edge line {ln!r}") from None
    try:
        return from_edges(n, pairs)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def parse_edge_spec(spec: str) -> Graph:
    """One-line form 'n m;i j;i j;...' used by the CLI."""
    fields = [f.strip() for f in spec.strip().split(";")]
    return parse_edge_list("\n".join(fields))


def emit_edge_spec(g: Graph) -> str:
    parts = [f"{g.n} {edge_count(g)}"]
    parts += [f"{i} {j}" for i, j in edges(g)]
    return ";".join(parts)
