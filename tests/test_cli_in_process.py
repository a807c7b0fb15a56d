"""`cli.main` called many times in one interpreter: one shared parser, and each call as if in a fresh process."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from unruhpd import cli
from unruhpd.payoff import PROFILE_ORDER

ROOT = Path(__file__).resolve().parents[1]
# The commands whose stdout and exit code `tools/contract.py` lists, to compare two source trees.
COMMANDS = [line.split() for line in (ROOT / "tools" / "cli_commands.txt").read_text().splitlines() if line.strip()]


def run_in_process(argv):
    """stdout bytes and exit code of `cli.main(argv)`; an argparse error exits through SystemExit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue().encode(), code


def run_fresh(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "unruhpd", *argv], capture_output=True, env=env, stdin=subprocess.DEVNULL, timeout=120
    )
    return result.stdout, result.returncode


def test_command_list_is_read():
    assert len(COMMANDS) >= 28
    assert {argv[0] for argv in COMMANDS} == {"play", "sweep", "fig2", "verify", "equilibria"}


def test_every_command_in_one_interpreter_matches_a_fresh_process():
    fresh = [run_fresh(argv) for argv in COMMANDS]
    for order in (range(len(COMMANDS)), reversed(range(len(COMMANDS)))):
        for k in order:
            assert run_in_process(COMMANDS[k]) == fresh[k], " ".join(COMMANDS[k])


def test_main_runs_the_cmd_function_bound_when_it_is_called(monkeypatch):
    assert run_in_process(["verify", "--suite", "commutators"])[1] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.suite) or 7)
    assert cli.main(["verify", "--suite", "eq8"]) == 7
    assert seen == ["eq8"]


def test_a_call_that_mutates_its_profiles_leaves_the_next_default_alone(monkeypatch):
    seen = []

    def cmd_sweep(args):
        seen.append(list(args.profiles))
        if hasattr(args.profiles, "append"):  # a mutable default would be the shared parser's own object
            args.profiles.append("QQ")
        return 0

    monkeypatch.setattr(cli, "cmd_sweep", cmd_sweep)
    for _ in range(2):
        assert cli.main(["sweep", "--gamma", "0", "--steps", "2"]) == 0
    assert seen == [list(PROFILE_ORDER)] * 2


def test_main_builds_no_parser_after_its_first_call(monkeypatch):
    run_in_process(["verify", "--suite", "commutators"])
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main built a second parser"))
    assert run_in_process(["verify", "--suite", "commutators"])[1] == 0


def test_build_parser_returns_a_new_parser_on_every_call():
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_matches_a_fresh_process(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal's width, read when it is printed
    assert run_in_process(argv) == run_fresh(argv)


# One file per message of `cli.load_config_table`: its text, the line it names and the message after `path:line: `.
CONFIG_ERRORS = {
    "no =": ("cc 3, 3\n", 1, "expected key=value, got 'cc 3, 3'"),
    "unknown key": ("# a comment\nZZ = 1, 2\n", 2, "unknown key 'zz' (use cc, cd, dc, dd)"),
    "not alice,bob": ("cc = 4, 4\n\ndd = 1\n", 3, "value must be 'alice,bob', got '1'"),
    "non-numeric": ("cd = 0, five  # Bob's temptation\n", 1, "non-numeric payoff in '0, five'"),
}


@pytest.mark.parametrize("name", CONFIG_ERRORS)
def test_each_config_error_names_its_line_and_is_a_usage_error(name, tmp_path):
    text, lineno, message = CONFIG_ERRORS[name]
    config = tmp_path / "table.cfg"
    config.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["play", "--gamma", "0", "--r", "0", "--alice", "C", "--bob", "C", "--config", str(config)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().splitlines()[0] == f"error: {config}:{lineno}: {message}"
    assert err.getvalue().splitlines()[1].startswith("usage: ")
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("name,angles", [("Q", "pi/2,0"), ("D", "0,pi"), ("C", "0,0"), ("M", "pi/2,pi/2")])
def test_a_named_move_written_as_angles_prints_as_that_move(name, angles):
    for extra in ([], ["--json"]):
        for seat in ("--alice", "--bob"):
            base = ["play", "--gamma", "pi/3", "--r", "0.4", "--alice", "1,2", "--bob", "1,2", *extra]
            i = base.index(seat) + 1
            named, written = base[:i] + [name] + base[i + 1:], base[:i] + [angles] + base[i + 1:]
            out, code = run_in_process(written)
            assert code == 0 and (out, code) == run_in_process(named)
