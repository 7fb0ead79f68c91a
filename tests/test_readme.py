"""The README's CLI session runs as written, in an empty directory."""

import re
import shlex
from pathlib import Path

from odofock import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_session() -> list[str]:
    """Lines of the README's `sh` block that runs `odofock` commands."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    session = [b for b in blocks if re.search(r"^odofock ", b, re.M)]
    assert len(session) == 1
    return session[0].splitlines()


def test_readme_session_runs_with_the_stated_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
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
        assert cli.main(argv[1:]) == expected, line
        commands += 1
    assert commands >= 15
