"""End-to-end command line behavior via subprocess."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from unruhpd.cli import GRID_BLOCK, _grid_payoffs, build_parser
from unruhpd.game import NAMED_STRATEGIES, move_entries
from unruhpd.payoff import PayoffTable, play_entries
from unruhpd.unruh import R_MAX


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "unruhpd", *args],
        capture_output=True,
        text=True,
        timeout=120,
        **kwargs,
    )


def parse_kv(stdout):
    record = {}
    for line in stdout.strip().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            record[key] = value
    return record


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_play_classical_game():
    result = run_cli("play", "--gamma", "0", "--r", "0", "--alice", "C", "--bob", "C")
    assert result.returncode == 0
    record = parse_kv(result.stdout)
    assert record["alice_strategy"] == "C"
    assert record["bob_strategy"] == "C"
    assert float(record["alice_payoff"]) == 3.0
    assert float(record["bob_payoff"]) == 3.0


def test_play_accepts_decimal_angles_near_domain_edges():
    result = run_cli("play", "--gamma", "1.5707963", "--r", "0.7853982", "--alice", "C", "--bob", "C")
    assert result.returncode == 0
    record = parse_kv(result.stdout)
    assert abs(float(record["alice_payoff"]) - 2.832107) <= 1e-5
    assert abs(float(record["bob_payoff"]) - 2.832107) <= 1e-5


def test_play_accepts_pi_tokens_and_json():
    result = run_cli("play", "--gamma", "pi/2", "--r", "pi/4", "--alice", "C", "--bob", "C", "--json")
    assert result.returncode == 0
    record = json.loads(result.stdout)
    want = 1.0 + math.sqrt(2.0) / 2.0 + 0.5 + 5.0 / 8.0
    assert abs(record["alice_payoff"] - want) <= 1e-12
    assert record["gamma"] == pytest.approx(math.pi / 2)
    assert set(record) == {"gamma", "r", "alice_strategy", "bob_strategy", "alice_payoff", "bob_payoff"}


def test_play_custom_strategy_and_payoffs_flag():
    result = run_cli(
        "play", "--gamma", "0", "--r", "0", "--alice", "0,pi", "--bob", "C", "--payoffs", "3,0,8,1"
    )
    assert result.returncode == 0
    record = parse_kv(result.stdout)
    assert float(record["alice_payoff"]) == 8.0


def test_play_rejects_unknown_strategy():
    result = run_cli("play", "--gamma", "0", "--r", "0", "--alice", "X", "--bob", "C")
    assert result.returncode == 2


def test_play_rejects_out_of_domain_r():
    result = run_cli("play", "--gamma", "0", "--r", "0.79", "--alice", "C", "--bob", "C")
    assert result.returncode == 2


def test_missing_subcommand_is_usage_error():
    result = run_cli()
    assert result.returncode == 2


def test_sweep_rejects_single_step():
    result = run_cli("sweep", "--gamma", "0", "--steps", "1")
    assert result.returncode == 2


def test_sweep_header_and_defect_column():
    result = run_cli("sweep", "--gamma", "0", "--steps", "5", "--profiles", "DC")
    assert result.returncode == 0
    header, rows = parse_csv(result.stdout)
    assert header == ["gamma", "r", "alice_strategy", "bob_strategy", "alice_payoff", "bob_payoff"]
    assert len(rows) == 5
    for row in rows:
        r = float(row[1])
        assert row[2] == "D" and row[3] == "C"
        assert abs(float(row[4]) - (3.0 + 2.0 * math.cos(2.0 * r))) <= 1e-12


def test_sweep_two_step_endpoints_at_max_entanglement():
    result = run_cli("sweep", "--gamma", "pi/2", "--steps", "2", "--profiles", "CC")
    assert result.returncode == 0
    _, rows = parse_csv(result.stdout)
    assert abs(float(rows[0][4]) - 3.0) <= 1e-12
    assert abs(float(rows[1][4]) - 2.832107) <= 1e-5


def test_sweep_row_order_is_r_major_with_given_profiles():
    result = run_cli("sweep", "--gamma", "0", "--steps", "2", "--profiles", "DD", "CC")
    assert result.returncode == 0
    _, rows = parse_csv(result.stdout)
    assert [(row[2] + row[3]) for row in rows] == ["DD", "CC", "DD", "CC"]
    assert float(rows[0][1]) == float(rows[1][1]) == 0.0


def test_sweep_writes_byte_identical_files(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ("sweep", "--gamma", "pi/4", "--steps", "7")
    assert run_cli(*args, "--out", str(out_a)).returncode == 0
    assert run_cli(*args, "--out", str(out_b)).returncode == 0
    raw = out_a.read_bytes()
    assert raw == out_b.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_sweep_rejects_reversed_range():
    result = run_cli("sweep", "--gamma", "0", "--r-start", "pi/4", "--r-end", "0", "--steps", "3")
    assert result.returncode == 2


def test_sweep_unwritable_path_is_io_error(tmp_path):
    result = run_cli("sweep", "--gamma", "0", "--steps", "2", "--out", str(tmp_path / "missing" / "out.csv"))
    assert result.returncode == 3


def test_fig2_first_and_last_rows(tmp_path):
    out = tmp_path / "fig2.csv"
    result = run_cli("fig2", "--steps", "9", "--out", str(out))
    assert result.returncode == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["r", "P_CC", "P_DD", "P_A_CD", "P_A_DC"]
    first = [float(x) for x in rows[0]]
    assert first[0] == 0.0
    assert abs(first[1] - 3.0) <= 1e-12
    assert abs(first[2] - 1.0) <= 1e-12
    assert abs(first[3] - 5.0) <= 1e-12
    assert abs(first[4] - 0.0) <= 1e-12
    last = [float(x) for x in rows[-1]]
    assert abs(last[1] - 2.832107) <= 1e-5
    assert abs(last[2] - 1.417893) <= 1e-5
    assert abs(last[3] - 4.142767) <= 1e-5
    assert abs(last[4] - 0.607233) <= 1e-5
    cooperation = [float(row[1]) for row in rows]
    assert all(later < earlier for earlier, later in zip(cooperation, cooperation[1:]))


def test_fig2_rerun_is_byte_identical(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli("fig2", "--steps", "5", "--out", str(out_a)).returncode == 0
    assert run_cli("fig2", "--steps", "5", "--out", str(out_b)).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_fig2_rejects_single_step():
    assert run_cli("fig2", "--steps", "1").returncode == 2


def test_verify_all_passes():
    result = run_cli("verify", "--suite", "all")
    assert result.returncode == 0
    assert "overall=pass" in result.stdout


def test_verify_rejects_unknown_suite():
    assert run_cli("verify", "--suite", "bogus").returncode == 2


def test_verify_rejects_small_grid_and_bad_tol():
    assert run_cli("verify", "--suite", "table2", "--grid", "2").returncode == 2
    assert run_cli("verify", "--suite", "table2", "--tol", "0").returncode == 2


def test_verify_unachievable_tolerance_exits_one():
    result = run_cli("verify", "--suite", "table2", "--tol", "1e-17")
    assert result.returncode == 1
    assert "overall=fail" in result.stdout


def test_verify_grid_too_large_for_memory_is_an_error_not_a_traceback():
    # 1e17 grid points need 8e17 bytes, more than the virtual address space of
    # any 64-bit host, so the allocation fails at once and touches no memory.
    result = run_cli("verify", "--grid", "100000000000000000")
    assert result.returncode == 2
    assert result.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_equilibria_classical_report():
    result = run_cli("equilibria", "--gamma", "0", "--r", "0", "--set", "C,D")
    assert result.returncode == 0
    out = result.stdout
    record = parse_kv(out)
    assert record["payoff[C,C]"] == "3,3"
    dc = [float(x) for x in record["payoff[D,C]"].split(",")]
    assert abs(dc[0] - 5.0) <= 1e-12 and abs(dc[1]) <= 1e-12
    assert "nash=(D,D)" in out
    assert "dominant_alice=D:strict" in out
    assert "dominant_bob=D:strict" in out
    assert "pareto=(C,C),(C,D),(D,C)" in out
    assert "best_response_alice[C]=D" in out


def test_equilibria_max_entanglement_report():
    result = run_cli("equilibria", "--gamma", "pi/2", "--r", "0.3", "--set", "C,D")
    assert result.returncode == 0
    out = result.stdout
    assert "nash=(C,C)" in out
    assert "dominant_alice=C:strict" in out
    assert "dominant_bob=C:strict" in out


def test_equilibria_full_named_set_runs():
    result = run_cli("equilibria", "--gamma", "pi/2", "--r", "0", "--set", "C,D,Q,M")
    assert result.returncode == 0
    assert "payoff[Q,M]=" in result.stdout
    assert "nash=" in result.stdout


def test_equilibria_rejects_empty_or_unknown_set():
    assert run_cli("equilibria", "--gamma", "0", "--r", "0", "--set", "").returncode == 2
    assert run_cli("equilibria", "--gamma", "0", "--r", "0", "--set", "C,X").returncode == 2
    assert run_cli("equilibria", "--gamma", "0", "--r", "0", "--set", "C,C").returncode == 2


def test_config_file_overrides_table(tmp_path):
    config = tmp_path / "table.cfg"
    config.write_text("# reward override\ncc = 4, 4\n")
    result = run_cli("play", "--gamma", "0", "--r", "0", "--alice", "C", "--bob", "C", "--config", str(config))
    assert result.returncode == 0
    assert float(parse_kv(result.stdout)["alice_payoff"]) == 4.0


def test_config_file_bad_key_is_usage_error(tmp_path):
    config = tmp_path / "table.cfg"
    config.write_text("zz = 1, 2\n")
    result = run_cli("play", "--gamma", "0", "--r", "0", "--alice", "C", "--bob", "C", "--config", str(config))
    assert result.returncode == 2


def test_config_file_missing_is_io_error(tmp_path):
    result = run_cli(
        "play", "--gamma", "0", "--r", "0", "--alice", "C", "--bob", "C", "--config", str(tmp_path / "nope.cfg")
    )
    assert result.returncode == 3


def test_play_output_is_stable_across_runs():
    args = ("play", "--gamma", "pi/3", "--r", "pi/5", "--alice", "M", "--bob", "Q")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_sweep_rejects_out_of_domain_endpoint_before_writing():
    result = run_cli("sweep", "--gamma", "0", "--r-end", "1.0", "--steps", "3")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr


def test_sweep_and_fig2_stdout_matches_file_bytes(tmp_path):
    for args in (("sweep", "--gamma", "pi/3", "--steps", "5"), ("fig2", "--steps", "5")):
        out = tmp_path / f"{args[0]}.csv"
        to_stdout = subprocess.run(
            [sys.executable, "-m", "unruhpd", *args, "--out", "-"], capture_output=True, timeout=120
        )
        assert to_stdout.returncode == 0
        assert run_cli(*args, "--out", str(out)).returncode == 0
        assert to_stdout.stdout == out.read_bytes()


FLOAT_MAX_TABLE = ",".join([repr(sys.float_info.max)] * 4)
# A game whose expected payoffs overflowed to inf when every entry was the float maximum.
OVERFLOW_GAME = (
    "--gamma", "0.442485415707535", "--r", "0.5895272792426347",
    "--alice", "3.8833572991210827,0.7865899118780634", "--bob", "5.713206487480548,3.085946394758231",
)


@pytest.mark.parametrize(
    "args",
    [
        ("play", "--gamma", "0", "--r", "0", "--alice", "C", "--bob", "C", "--payoffs", "nan,0,inf,1"),
        ("equilibria", "--gamma", "0", "--r", "0", "--payoffs", "3,0,5,nan"),
        ("sweep", "--gamma", "0", "--steps", "2", "--payoffs", "3,-inf,5,1"),
        # Finite entries whose expected payoff would overflow to inf.
        ("play", *OVERFLOW_GAME, "--json", "--payoffs", FLOAT_MAX_TABLE),
        ("sweep", "--gamma", "0", "--steps", "2", "--payoffs", FLOAT_MAX_TABLE),
        ("fig2", "--steps", "2", "--payoffs", FLOAT_MAX_TABLE),
        ("equilibria", "--gamma", "0", "--r", "0", "--payoffs", FLOAT_MAX_TABLE),
        # Malformed lists take the same exit and name the flag once too.
        ("play", "--gamma", "0", "--r", "0", "--alice", "C", "--bob", "C", "--payoffs", "3,0,5"),
        ("play", "--gamma", "0", "--r", "0", "--alice", "C", "--bob", "C", "--payoffs", "3,0,five,1"),
    ],
)
def test_non_finite_payoffs_are_usage_errors(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    # argparse names the flag; the message it prefixes does not name it again.
    assert result.stderr.count("argument --payoffs: ") == 1
    assert "--payoffs: --payoffs" not in result.stderr


def test_config_file_non_finite_payoff_is_usage_error(tmp_path):
    config = tmp_path / "table.cfg"
    for line in ("cd = nan, 5\n", f"dd = {sys.float_info.max!r}, 1\n"):
        config.write_text(line)
        result = run_cli("play", *OVERFLOW_GAME, "--config", str(config))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "pairs of finite numbers" in result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf"])
def test_verify_rejects_non_finite_tol(tol):
    result = run_cli("verify", "--suite", "table2", "--tol", tol)
    assert result.returncode == 2
    assert "overall=" not in result.stdout


def test_negative_exponent_value_reads_like_the_equals_form():
    base = ("sweep", "--gamma", "0", "--steps", "3")
    spaced = run_cli(*base, "--r-start", "-5e-7")
    joined = run_cli(*base, "--r-start=-5e-7")
    assert spaced.returncode == joined.returncode == 0
    assert spaced.stdout == joined.stdout
    assert spaced.stdout.splitlines()[1].startswith("0,-4.9999999999999998e-07,")


def test_negative_payoff_list_reads_like_the_equals_form():
    base = ("play", "--gamma", "0", "--r", "0", "--alice", "C", "--bob", "C")
    spaced = run_cli(*base, "--payoffs", "-1,0,5,1")
    joined = run_cli(*base, "--payoffs=-1,0,5,1")
    assert spaced.returncode == joined.returncode == 0
    assert "alice_payoff=-1\n" in spaced.stdout
    assert spaced.stdout == joined.stdout


def test_negative_values_parse_in_every_number_form():
    argv = ["sweep", "--gamma", "-.5", "--steps", "3", "--r-start", "-5E-7", "--payoffs", "-1,-2,-3,-4"]
    args = build_parser().parse_args(argv)
    assert (args.gamma, args.r_start) == (-0.5, -5e-7)
    assert args.payoffs == PayoffTable.from_scalars(-1.0, -2.0, -3.0, -4.0)


@pytest.mark.parametrize(
    "args",
    [
        ("--gamma", "pi/0", "--r", "0", "--alice", "C", "--bob", "C"),
        ("--gamma", "0", "--r", "0", "--alice", "pi/0,0", "--bob", "C"),
    ],
)
def test_zero_pi_denominator_is_a_usage_error(args):
    result = run_cli("play", *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "zero denominator" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--alice", "99,0", "strategy alpha must lie in [0, 2*pi], got 99.0"),
        ("--bob", "0,nan", "strategy theta must lie in [0, pi], got nan"),
    ],
)
def test_out_of_domain_custom_move_keeps_its_message(flag, value, message):
    moves = {"--alice": "C", "--bob": "C", flag: value}
    result = run_cli("play", "--gamma", "0", "--r", "0", *(x for item in moves.items() for x in item))
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"argument {flag}: {message}" in result.stderr
    assert "Traceback" not in result.stderr


def test_negative_out_of_domain_value_is_still_a_usage_error():
    result = run_cli("sweep", "--gamma", "0", "--steps", "3", "--r-start", "-1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "must lie in" in result.stderr
    assert "Traceback" not in result.stderr


def test_equilibria_pareto_front_keeps_profiles_tied_up_to_roundoff():
    result = run_cli("equilibria", "--gamma", "pi/2", "--r", "0.3", "--set", "C,D,Q,M")
    assert result.returncode == 0
    # (C,D) ties (D,Q) and (D,C) ties (Q,D) in exact arithmetic; all four stay.
    assert "pareto=(C,C),(C,D),(D,C),(D,Q),(Q,D),(Q,Q),(Q,M),(M,Q)" in result.stdout


def reference_rows(gamma, r_start, r_end, steps, profiles, table):
    """Per-field '.17g' rows, r-major, from play_entries over the clamped r grid."""
    rs = np.linspace(r_start, r_end, steps)
    scores = [
        play_entries(gamma, np.clip(rs, 0.0, R_MAX), *(move_entries(NAMED_STRATEGIES[m]) for m in profile), table)
        for profile in profiles
    ]
    return rs.tolist(), [np.stack(score, axis=-1).tolist() for score in scores]


CLASSICAL = ["CC", "CD", "DC", "DD"]
CUSTOM_FLAGS = ("--payoffs", "2.5,-1,7.25,0.5")
CUSTOM_TABLE = PayoffTable.from_scalars(2.5, -1.0, 7.25, 0.5)

# (extra flags, gamma, r_start, r_end, steps, profiles, table)
SWEEP_CASES = [
    ((), math.pi / 2, 0.0, R_MAX, 7, CLASSICAL, PayoffTable()),
    # Endpoints just outside [0, pi/4], within EDGE_SLACK: printed raw, scored clamped.
    (("--r-start=-5e-7", "--r-end", "0.78539866"), math.pi / 2, -5e-7, 0.78539866, 9, CLASSICAL, PayoffTable()),
    (("--r-start", "0.1", "--r-end", "0.6"), math.pi / 3, 0.1, 0.6, 11, CLASSICAL, PayoffTable()),
    (("--profiles", "QM", "CD"), math.pi / 3, 0.0, R_MAX, 13, ["QM", "CD"], PayoffTable()),
    (CUSTOM_FLAGS, 0.7, 0.0, R_MAX, 6, CLASSICAL, CUSTOM_TABLE),
    ((), math.pi / 2, 0.0, R_MAX, GRID_BLOCK + 3, CLASSICAL, PayoffTable()),
]


@pytest.mark.parametrize("flags,gamma,r_start,r_end,steps,profiles,table", SWEEP_CASES)
def test_sweep_bytes_match_per_field_formatting(flags, gamma, r_start, r_end, steps, profiles, table):
    rs, scores = reference_rows(gamma, r_start, r_end, steps, profiles, table)
    lines = ["gamma,r,alice_strategy,bob_strategy,alice_payoff,bob_payoff"]
    for i, r in enumerate(rs):
        for profile, score in zip(profiles, scores):
            alice, bob = score[i]
            lines.append(",".join([f"{gamma:.17g}", f"{r:.17g}", profile[0], profile[1], f"{alice:.17g}", f"{bob:.17g}"]))
    result = subprocess.run(
        [sys.executable, "-m", "unruhpd", "sweep", "--gamma", repr(gamma), "--steps", str(steps), *flags],
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout == ("\n".join(lines) + "\n").encode()


FIG2_CASES = [((), 7, PayoffTable()), (CUSTOM_FLAGS, 6, CUSTOM_TABLE), ((), GRID_BLOCK + 3, PayoffTable())]


@pytest.mark.parametrize("flags,steps,table", FIG2_CASES)
def test_fig2_bytes_match_per_field_formatting(flags, steps, table):
    rs, scores = reference_rows(math.pi / 2, 0.0, R_MAX, steps, ["CC", "DD", "CD", "DC"], table)
    lines = ["r,P_CC,P_DD,P_A_CD,P_A_DC"]
    for i, r in enumerate(rs):
        lines.append(",".join([f"{r:.17g}", *(f"{score[i][0]:.17g}" for score in scores)]))
    result = subprocess.run(
        [sys.executable, "-m", "unruhpd", "fig2", "--steps", str(steps), *flags], capture_output=True, timeout=120
    )
    assert result.returncode == 0
    assert result.stdout == ("\n".join(lines) + "\n").encode()


GRID_CASES = [
    (0.0, R_MAX, 2),
    (0.0, R_MAX, GRID_BLOCK),
    (-5e-7, 0.78539866, 2 * GRID_BLOCK + 1),
    (0.1, 0.6, 11),
    (0.3, 0.3, 5),
    (0.0, 1e-320, 7),
    # The step underflows to 0, so np.linspace scales i / (steps - 1) by the range instead.
    (0.0, 5e-324, GRID_BLOCK + 3),
]


@pytest.mark.parametrize("r_start,r_end,steps", GRID_CASES)
def test_grid_blocks_are_the_linspace_points(r_start, r_end, steps):
    blocks = [rs for rs, _ in _grid_payoffs(math.pi / 2, r_start, r_end, steps, ["CC"], PayoffTable())]
    assert [len(rs) for rs in blocks[:-1]] == [GRID_BLOCK] * (len(blocks) - 1)
    got = np.array([r for rs in blocks for r in rs])
    assert got.tobytes() == np.linspace(r_start, r_end, steps).tobytes()


def test_first_block_of_a_huge_grid_needs_no_whole_grid():
    # 10^13 points would take 80 TB as one array; the first block comes back on its own.
    steps = 10**13
    rs, [(alice, bob)] = next(_grid_payoffs(0.0, 0.0, R_MAX, steps, ["DD"], PayoffTable()))
    assert rs == (np.arange(GRID_BLOCK, dtype=float) * (R_MAX / (steps - 1))).tolist()
    assert len(alice) == len(bob) == GRID_BLOCK
