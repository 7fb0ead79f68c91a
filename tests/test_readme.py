"""The README's CLI session runs as written, in an empty directory, and loads no
scipy; its library example runs and gives what its comments say."""

import ast
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from odofock import beurling, cli

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def cli_session() -> list[str]:
    """Lines of the README's `sh` block that runs `odofock` commands."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    session = [b for b in blocks if re.search(r"^odofock ", b, re.M)]
    assert len(session) == 1
    return session[0].splitlines()


def run_session() -> int:
    """Runs the session in the working directory, each `odofock` line through
    `cli.main` with its stated exit code; returns how many such lines ran.

    Every report passes exactly when all its checks do and its exit code is 0,
    and no check on an empty (negative) window passes."""
    lines = iter(cli_session())
    commands = 0
    for line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        if line == "python - <<'EOF'":
            script = "\n".join(iter(lines.__next__, "EOF"))
            exec(compile(script, "README.md", "exec"), {})
            continue
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "odofock", f"README line is neither odofock nor python: {line!r}"
        stated = re.match(r"\s*exit (\d)", comment)
        expected = int(stated.group(1)) if stated else 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv[1:]) == expected, line
        if out.getvalue():
            report = json.loads(out.getvalue())
            checks = report["checks"]
            assert report["passed"] == all(c["passed"] for c in checks) == (expected == 0), line
            assert not [c for c in checks if c.get("window", 0) < 0 and c["passed"]], line
        commands += 1
    return commands


def test_readme_session_runs_with_the_stated_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_session() >= 15


def test_readme_factor_writes_the_same_bytes_on_both_beurling_paths(tmp_path, monkeypatch):
    # the README subspace is graded; reporting no grading forces the mixed-level
    # path, and the canonical wandering gauge makes the induced symbol the same
    written = []
    for path in ("graded", "mixed"):
        work = tmp_path / path
        work.mkdir()
        monkeypatch.chdir(work)
        if path == "mixed":
            monkeypatch.setattr(beurling, "_column_levels", lambda space, columns: None)
        run_session()
        written.append((work / "induced.json").read_bytes())
    assert written[0] == written[1]


def library_example() -> tuple[dict, dict]:
    """Runs the README's library example, line by line; returns its namespace and
    the value of each bare expression line under the text of its comment."""
    source = re.search(r"^## Library example\n+```python\n(.*?)^```", README.read_text(),
                       re.S | re.M).group(1)
    lines, namespace, values = source.splitlines(), {}, {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            comment = lines[node.lineno - 1].partition("#")[2].strip()
            values[comment] = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                                   namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, values


def test_readme_library_example_gives_what_its_comments_say():
    namespace, values = library_example()
    report = values["isometric, not Nica, not unitary"]
    assert (report.is_isometric, report.is_nica, report.is_unitary) == (True, False, False)
    representation = values["recovers the symbol"]
    assert representation.is_representation
    recovered, symbol = representation.symbol.matrix, namespace["symbol"].matrix
    assert (recovered != symbol).nnz == 0
    assert values["lift it back to the dilation space"].passed
    assert values["its subrepresentation symbol"].passed


def fresh_python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300, stdin=subprocess.DEVNULL)


def test_readme_session_loads_no_scipy(tmp_path):
    script = (
        "import sys\n"
        "import odofock.cli\n"
        "import test_readme\n"
        "assert test_readme.run_session() >= 15\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    proc = fresh_python("-c", script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_importing_the_cli_loads_no_scipy(tmp_path):
    proc = fresh_python("-X", "importtime", "-c", "import odofock.cli", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-3000:]
    modules = [line.rsplit("|", 1)[-1].strip()
               for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "odofock.cli" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
