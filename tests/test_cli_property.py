"""The CLI's input contract: hostile argv into `cli.main`, in process, exits 0-3, with no traceback and no NaN."""

import contextlib
import io
import json
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruhpd import cli
from unruhpd.verify import MAX_GRID

NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

# Each flag's values, as a shell passes them: valid ones first, then hostile ones. The hostile ones hold the domains'
# edges, non-finite and out-of-range numbers, pi fractions, empty and odd tokens, and Unicode digits, which float()
# and int() read.
ANGLES = (
    ["0", "-0", "0.3", "pi/4", "pi/8", "3pi/16", "-5e-7", "0.7853981633974483", "5e-324", "١e-1", "pi/1e400"],
    ["pi", "2pi", "-pi/2", "pi/0", "pi/0.0", "1e400pi", "nan", "inf", "-inf", "1e-400", "1.7976931348623157e308",
     "1e309", "", " ", "x", "1,2", "١", "٣pi/٤", "0.78539866", "1.5707968", "-0.0"],
)
STRATEGIES = (["C", "D", "Q", "M", "0,0", "pi,pi", "1,2", "١,٠"], ["X", "", "c", "nan,0", "0,inf", "pi/0,0", "1,2,3"])
# Valid counts stay small: any count from 2 to MAX_GRID is valid, and sweep and fig2 stream that many rows.
STEPS = (["2", "3", "17", "64", "٣"], ["1", "0", "-1", str(-(2**64)), "", "nan", "1e3", "2.5", "0x10", "9" * 400])
# Grids above the cap are refused before numpy sees them; valid ones stay small.
GRIDS = (["3", "5", "64", "٥"], ["2", "0", "-1", "", "x", "3.0", str(MAX_GRID + 1), str(sys.maxsize), "9" * 40])
TOLS = (["1e-12", "1e-300", "1e308", "0.5"], ["0", "-1", "nan", "inf", "1e-400", "", "x"])
PAYOFFS = (
    ["3,0,5,1", "0,0,0,0", "4e307,-4e307,0,0", "-1,2,-3,4"],
    ["nan,0,5,1", "inf,0,5,1", "1e308,0,5,1", "3,0,5", "a,b,c,d", ""],
)
PROFILES = (["CC", "CD", "DC", "DD", "QM"], ["cc", "XY", "C", ""])
SETS = (["C,D", "C,D,Q,M", "Q", "C,,D"], ["", ",", "X", "C,C"])
SUITES = (["all", "table2", "eq8", "eq11", "eq13", "commutators"], ["bogus", ""])

# --config files, by name: what each holds; a None is a directory.
CONFIGS = {
    "ok.cfg": b"cc = 3,3\n# a comment\ndd = 1, 1\n",
    "non_utf8.cfg": b"cc = 3,3\n\xff\xfe = 1,1\n",
    "no_equals.cfg": b"cc 3,3\n",
    "unknown_key.cfg": b"qq = 1,1\n",
    "one_value.cfg": b"cc = 3\n",
    "nan.cfg": b"cc = nan,1\n",
    "huge.cfg": b"cd = 1e308,0\n",
    "empty.cfg": b"",
    "a_directory": None,
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Every --config and --out path the property may name, under one temporary directory."""
    root = tmp_path_factory.mktemp("cli_property")
    for name, content in CONFIGS.items():
        if content is None:
            (root / name).mkdir()
        else:
            (root / name).write_bytes(content)
    hostile_configs = [str(root / name) for name in CONFIGS] + [str(root / "missing"), str(root / "\0"), ""]
    hostile_outs = [str(root / "a_directory"), str(root / "missing" / "out.csv"), str(root / "\0")]
    return root, ([str(root / "ok.cfg")], hostile_configs), (["-", str(root / "out.csv")], hostile_outs)


def value(pools):
    """A valid value four times in five, so that most commands run."""
    valid, hostile = pools
    return st.sampled_from(valid * (4 * len(hostile)) + hostile * len(valid))


def flag(name, pools, required=False):
    """`[name, value]`, or nothing: a required flag is missing once in twenty draws, any other flag half the time."""
    present = st.tuples(st.just(name), value(pools)).map(list)
    return st.sampled_from([present] * (19 if required else 1) + [st.just([])]).flatmap(lambda drawn: drawn)


def commands(paths):
    """argv lists: each subcommand with any of its flags, a stray token now and then, or no subcommand at all."""
    _, configs, outs = paths
    table = [flag("--payoffs", PAYOFFS), flag("--config", configs)]
    angle = lambda name, required=False: flag(name, ANGLES, required)  # noqa: E731
    profiles = st.lists(value(PROFILES), max_size=3).map(lambda p: ["--profiles", *p] if p else [])
    grammar = {
        "play": [angle("--gamma", True), angle("--r", True), flag("--alice", STRATEGIES, True),
                 flag("--bob", STRATEGIES, True), st.sampled_from([[], ["--json"]]), *table],
        "sweep": [angle("--gamma", True), angle("--r-start"), angle("--r-end"), flag("--steps", STEPS, True),
                  profiles, flag("--out", outs), *table],
        "fig2": [flag("--steps", STEPS, True), flag("--out", outs), *table],
        "verify": [flag("--suite", SUITES), flag("--grid", GRIDS), flag("--tol", TOLS)],
        "equilibria": [angle("--gamma", True), angle("--r", True), flag("--set", SETS), *table],
    }
    stray = st.sampled_from([[]] * 12 + [["--bogus"], ["0.3"], ["--json"], ["--"], ["-x"]])
    whole = [st.tuples(st.just([name]), *parts, stray) for name, parts in grammar.items()]
    odd = st.sampled_from([[], ["bogus"], ["--help"], ["play", "--help"]]).map(lambda argv: (argv,))
    return st.one_of(*whole, odd).map(lambda parts: [token for part in parts for token in part])


def run(argv):
    """Exit code, stdout and stderr of `cli.main(argv)`; argparse exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_every_argv_exits_0_to_3_without_a_traceback_or_a_non_finite_number(paths):
    """A usage error exits 2 and an I/O error 3; a command that succeeds prints only finite numbers and strict JSON."""
    @settings(max_examples=600, derandomize=True, deadline=None, database=None)
    @given(commands(paths))
    def check(argv):
        out_file = paths[0] / "out.csv"
        out_file.unlink(missing_ok=True)
        code, stdout, stderr = run(argv)
        assert code in (0, 1, 2, 3), (argv, code, stderr)
        assert "Traceback" not in stderr, (argv, stderr)
        if code == 0:
            written = out_file.read_text() if out_file.exists() else ""
            assert not NON_FINITE.search(stdout + written), (argv, stdout)
            if "--json" in argv and argv[0] == "play":
                json.loads(stdout, parse_constant=reject_constant)

    check()
