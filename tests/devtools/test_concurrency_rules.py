"""Trigger / clean / noqa tests for the resource-lifecycle rule RPR012.

RPR012 runs over the same per-function facts the other interprocedural
rules use, so each fixture is a miniature package tree: the interesting
part is which call chains the analysis walks, not the syntax at any one
line.
"""

from __future__ import annotations

from repro.devtools.cli import main
from repro.devtools.driver import run_lint


def rules_of(result) -> set[str]:
    return {d.rule for d in result.diagnostics}


def messages(result) -> str:
    return "\n".join(d.message for d in result.diagnostics)


# ---------------------------------------------------------------- RPR012

def test_rpr012_flags_socket_open_across_raising_call(make_tree):
    # The configure call can raise, and the socket then never reaches
    # the wrapper that would own closing it (the transport.connect bug
    # shape).
    tree = make_tree({"pkg/net.py": """\
import socket

def wrap(sock):
    return ("wrapped", sock)

def ping(addr):
    sock = socket.create_connection(addr)
    sock.settimeout(5.0)
    return wrap(sock)
"""})
    result = run_lint([tree], rules=["RPR012"])
    assert rules_of(result) == {"RPR012"}
    assert "socket" in messages(result)
    assert "can raise before it is closed" in messages(result)


def test_rpr012_clean_under_with_block(make_tree):
    tree = make_tree({"pkg/net.py": """\
import socket

def ping(addr):
    with socket.create_connection(addr) as sock:
        sock.sendall(b"ping")
        return sock.recv(4)
"""})
    assert run_lint([tree], rules=["RPR012"]).diagnostics == []


def test_rpr012_clean_under_try_finally(make_tree):
    tree = make_tree({"pkg/net.py": """\
import socket

def ping(addr):
    sock = socket.create_connection(addr)
    try:
        sock.sendall(b"ping")
        return sock.recv(4)
    finally:
        sock.close()
"""})
    assert run_lint([tree], rules=["RPR012"]).diagnostics == []


def test_rpr012_clean_when_ownership_is_returned(make_tree):
    tree = make_tree({"pkg/net.py": """\
import socket

def dial(addr):
    sock = socket.create_connection(addr)
    return sock
"""})
    assert run_lint([tree], rules=["RPR012"]).diagnostics == []


def test_rpr012_interprocedural_chain_through_returner(make_tree):
    tree = make_tree({"pkg/net.py": """\
import socket

def dial(addr):
    sock = socket.create_connection(addr)
    return sock

def ping(addr):
    sock = dial(addr)
    sock.sendall(b"ping")
"""})
    result = run_lint([tree], rules=["RPR012"])
    assert rules_of(result) == {"RPR012"}
    # The obligation originates in the callee; the witness says so.
    assert "pkg.net.dial" in messages(result)
    assert "->" in messages(result)
    # ...and anchors the finding at the call site in the caller.
    assert all("pkg.net.ping" in d.message for d in result.diagnostics)


def test_rpr012_clean_when_field_transfer_has_a_closer(make_tree):
    tree = make_tree({"pkg/net.py": """\
import socket

class Conn:
    def __init__(self, addr):
        self._sock = socket.create_connection(addr)

    def close(self):
        self._sock.close()
"""})
    assert run_lint([tree], rules=["RPR012"]).diagnostics == []


def test_rpr012_flags_field_transfer_without_closer(make_tree):
    tree = make_tree({"pkg/net.py": """\
import socket

class Conn:
    def __init__(self, addr):
        self._sock = socket.create_connection(addr)

    def fileno(self):
        return self._sock.fileno()
"""})
    result = run_lint([tree], rules=["RPR012"])
    assert rules_of(result) == {"RPR012"}


def test_rpr012_noqa_with_justification_suppresses(make_tree):
    tree = make_tree({"pkg/net.py": """\
import socket

def ping(addr):
    sock = socket.create_connection(addr)  # repro: noqa[RPR012] -- closed by the harness
    sock.sendall(b"ping")
"""})
    assert run_lint([tree], rules=["RPR012"]).diagnostics == []


# ------------------------------------------------------- cache round-trip

LEAKY_AND_CLOSED_CONNS = """\
import socket

class Closed:
    def __init__(self, addr):
        self._sock = socket.create_connection(addr)

    def close(self):
        self._sock.close()

class Leaky:
    def __init__(self, addr):
        self._sock = socket.create_connection(addr)
"""


def test_concurrency_rules_fire_from_cached_summaries(make_tree, tmp_path):
    """Warm runs rebuild the findings from serialized facts, the
    class-level close facts included."""
    tree = make_tree({
        "pkg/server.py": LEAKY_AND_CLOSED_CONNS,
        "pkg/net.py": """\
import socket

def ping(addr):
    sock = socket.create_connection(addr)
    sock.sendall(b"ping")
""",
    })
    cache = tmp_path / "cache.json"
    cold = run_lint([tree], cache_path=cache)
    assert cold.files_analyzed > 0
    warm = run_lint([tree], cache_path=cache)
    assert warm.files_analyzed == 0
    assert warm.files_skipped == cold.files_analyzed
    assert [d.to_dict() for d in warm.diagnostics] \
        == [d.to_dict() for d in cold.diagnostics]
    assert rules_of(warm) == {"RPR012"}
    # ``Closed`` is cleared by its ``close`` method; ``Leaky`` is not.
    assert [d.message.split(" stored on ")[1].split(" ")[0]
            for d in warm.diagnostics if " stored on " in d.message] \
        == ["Leaky._sock"]


# ----------------------------------------------------------------- sarif

def test_sarif_carries_metadata_for_concurrency_rules():
    from repro.devtools.sarif import to_sarif

    rules = to_sarif([])["runs"][0]["tool"]["driver"]["rules"]
    by_id = {rule["id"]: rule for rule in rules}
    for rule_id in ("RPR012",):
        assert by_id[rule_id]["shortDescription"]["text"]


# ---------------------------------------------------------------- explain

def test_explain_prints_rule_documentation(capsys):
    assert main(["--explain", "RPR012"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("RPR012")
    assert "finally" in out.lower()
    assert main(["--explain", "rpr012"]) == 0
    assert "RPR012" in capsys.readouterr().out


def test_explain_covers_every_registered_rule(capsys):
    from repro.devtools import all_checkers

    for checker in all_checkers():
        assert main(["--explain", checker.rule]) == 0
        out = capsys.readouterr().out
        # Every rule ships real documentation, not just its summary line.
        assert out.startswith(checker.rule)
        assert len(out.strip().splitlines()) > 1


def test_explain_unknown_rule_exits_2(capsys):
    assert main(["--explain", "RPR999"]) == 2
    assert "unknown rule" in capsys.readouterr().err
