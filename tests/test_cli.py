"""End-to-end runs of the command-line entry point.

Everything goes through ``main(argv)`` so the exit-code contract is
exercised exactly as a shell would see it: 0 success, 1 failed
verification or internal error, 2 rejected input.
"""

import argparse
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from splitsamp import check_csyg, cli
from splitsamp.cli import CSYG_TOL, main


@pytest.fixture()
def pop_file(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text(
        "id,x,y\n"
        "u1,1.0,2.0\n"
        "u2,2.0,1.5\n"
        "u3,3.0,4.0\n"
        "u4,4.0,3.5\n"
        "u5,5.0,6.0\n"
        "u6,6.0,5.5\n"
    )
    return str(path)


class TestSample:
    def test_writes_ids_to_stdout(self, pop_file, capsys):
        rc = main(
            ["sample", pop_file, "--design", "brewer", "--n", "3", "--seed", "5"]
        )
        assert rc == 0
        ids = capsys.readouterr().out.split()
        assert len(ids) == 3
        assert set(ids) <= {"u1", "u2", "u3", "u4", "u5", "u6"}

    def test_deterministic(self, pop_file, capsys):
        main(["sample", pop_file, "--design", "chao", "--n", "3", "--seed", "9"])
        first = capsys.readouterr().out
        main(["sample", pop_file, "--design", "chao", "--n", "3", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_out_file_with_sidecar(self, pop_file, tmp_path, capsys):
        out = str(tmp_path / "sel.txt")
        rc = main(
            ["sample", pop_file, "--design", "tille", "--n", "3",
             "--seed", "2", "--out", out]
        )
        assert rc == 0
        ids = open(out).read().split()
        meta = json.load(open(out + ".json"))
        assert meta["design"] == "tille"
        assert meta["N"] == 6 and meta["n"] == 3
        assert meta["selected_ids"] == ids
        # Sidecar is self-consistent: the estimate is the expanded sum
        # over the selected ids.
        y = {"u1": 2.0, "u2": 1.5, "u3": 4.0, "u4": 3.5, "u5": 6.0, "u6": 5.5}
        expanded = sum(y[i] / meta["pi"][i] for i in ids)
        assert meta["ht_estimate"] == pytest.approx(expanded, rel=1e-12)
        assert meta["t_y"] == pytest.approx(sum(y.values()), rel=1e-12)

    def test_srswor_needs_no_x(self, pop_file, capsys):
        rc = main(
            ["sample", pop_file, "--design", "srswor", "--n", "2", "--seed", "1"]
        )
        assert rc == 0
        assert len(capsys.readouterr().out.split()) == 2

    def test_oversized_n_is_rejected(self, pop_file, capsys):
        rc = main(
            ["sample", pop_file, "--design", "brewer", "--n", "99", "--seed", "0"]
        )
        assert rc == 2
        assert "invalid size" in capsys.readouterr().err

    @pytest.mark.parametrize("design", ["srswor", "chao", "brewer"])
    def test_seed_domain(self, pop_file, capsys, design):
        argv = ["sample", pop_file, "--design", design, "--n", "3", "--seed"]
        assert main(argv + [str(2**128 - 1)]) == 0
        assert len(capsys.readouterr().out.split()) == 3
        for seed in ("-1", str(2**128)):
            assert main(argv + [seed]) == 2
            assert "seed must be an integer in [0, 2**128)" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(
            ["sample", str(tmp_path / "nope.csv"), "--design", "brewer",
             "--n", "2"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_srswor_rejects_a_pi_other_than_n_over_N(self, tmp_path, capsys):
        # SRSWOR would draw at 2/3 and write that pi into the sidecar.
        path = tmp_path / "pi.csv"
        path.write_text("id,pi,y\nu1,0.2,1.0\nu2,0.8,2.0\nu3,1.0,3.0\n")
        out = tmp_path / "sel.txt"
        rc = main(["sample", str(path), "--design", "srswor", "--out", str(out)])
        assert rc == 2
        assert "pi = n/N" in capsys.readouterr().err
        assert not out.exists()

    def test_srswor_takes_n_from_an_equal_pi_file(self, pop_file, tmp_path, capsys):
        assert main(["sample", pop_file, "--design", "srswor"]) == 2
        assert "pass --n" in capsys.readouterr().err
        path = tmp_path / "pi.csv"
        path.write_text("id,pi,y\nu1,0.5,1.0\nu2,0.5,2.0\nu3,0.5,3.0\nu4,0.5,4.0\n")
        out = tmp_path / "sel.txt"
        rc = main(["sample", str(path), "--design", "srswor", "--out", str(out)])
        assert rc == 0
        meta = json.load(open(str(out) + ".json"))
        assert meta["n"] == 2 and len(meta["selected_ids"]) == 2
        assert set(meta["pi"].values()) == {0.5}


RAW_STATS = [
    "--N", "100", "--n", "20", "--sup-ycheck", "5",
    "--sum-sq-ycheck", "2500", "--sup-y2-over-pi", "5",
]


class TestBounds:
    def test_evaluation_json(self, capsys):
        rc = main(["bounds", *RAW_STATS, "--eps", "0.5"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cna"] == pytest.approx(0.5352614285189903, rel=1e-12)
        assert data["bernstein"] == pytest.approx(0.9857031947173965, rel=1e-12)
        assert data["lipschitz"] == pytest.approx(0.9937694906233947, rel=1e-12)
        assert data["eps"] == 0.5
        assert data["two_sided_factor_applied"] is False

    def test_population_file_route(self, pop_file, capsys):
        rc = main(
            ["bounds", "--population", pop_file, "--n", "3", "--eps", "0.4"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert 0.0 < data["cna"] <= 1.0
        assert data["cna"] <= data["lipschitz"] + 1e-12

    def test_solve_n(self, capsys):
        rc = main(
            ["bounds", "--solve-n", "--M", "1", "--c", "1",
             "--eps", "0.1", "--eta", "0.05"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2397

    def test_solve_n_two_sided(self, capsys):
        rc = main(
            ["bounds", "--solve-n", "--M", "1", "--c", "1",
             "--eps", "0.1", "--eta", "0.05", "--two-sided"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2952

    def test_solve_eps(self, capsys):
        rc = main(["bounds", *RAW_STATS, "--solve-eps", "--eta", "0.05"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["eps"] == pytest.approx(1.0946656610223946, rel=1e-12)

    def test_inconsistent_stats(self, capsys):
        rc = main(
            ["bounds", "--N", "100", "--n", "20", "--sup-ycheck", "51",
             "--sum-sq-ycheck", "2500", "--eps", "0.5"]
        )
        assert rc == 2
        assert "inconsistent" in capsys.readouterr().err

    def test_missing_eps(self, capsys):
        rc = main(["bounds", *RAW_STATS])
        assert rc == 2
        assert "--eps" in capsys.readouterr().err

    def test_solve_n_missing_pieces(self, capsys):
        rc = main(["bounds", "--solve-n", "--M", "1", "--eps", "0.1"])
        assert rc == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--N", "99", "--sup-ycheck", "5", "--sum-sq-ycheck", "1"],
            ["--sup-y", "1"],
            ["--sup-y2-over-pi", "1"],
            ["--equal-probability"],
        ],
    )
    def test_population_rejects_raw_statistics(self, pop_file, flags, capsys):
        rc = main(
            ["bounds", "--population", pop_file, "--n", "2", "--eps", "0.1", *flags]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags if flag.startswith("--"))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--eps", "0.5", "--M", "1e200", "--c", "1"], "M is too large"),
            (["--eps", "nan"], "eps must be finite"),
            (["--eps", "0.5", "--M", "nan", "--c", "1"], "M must be finite"),
            (["--solve-eps", "--eta", "nan"], "eta must be finite"),
        ],
    )
    def test_non_finite_or_overflowing_inputs_exit_2(self, argv, message, capsys):
        base = ["bounds", "--N", "10", "--n", "2", "--sup-ycheck", "1",
                "--sum-sq-ycheck", "1"]
        assert main([*base, *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_overflowing_bernstein_terms_give_a_finite_bound(self, capsys):
        # e^2 N and Bernstein's denominator both overflow; it printed NaN.
        rc = main(["bounds", "--N", "10", "--n", "2", "--sup-ycheck", "1",
                   "--sum-sq-ycheck", "1", "--sup-y2-over-pi", "1e308",
                   "--eps", "1e200"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bernstein"] == report["bernstein_raw"] == 0.0

    def test_overflowing_eps_limit_exits_2(self, capsys):
        # (3 - sqrt 2)(n/N) sup_y overflows; it printed Infinity.
        rc = main(["bounds", "--N", "10", "--n", "9", "--sup-ycheck", "1e150",
                   "--sum-sq-ycheck", "1e300", "--sup-y", "1.7e308", "--eps", "1",
                   "--equal-probability"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and "eps limit" in err

    def test_overflowing_statistic_exits_2(self, capsys):
        rc = main(["bounds", "--N", "10", "--n", "2", "--sup-ycheck", "1e200",
                   "--sum-sq-ycheck", "1e300", "--eps", "0.5"])
        assert rc == 2
        assert "sup_ycheck is too large" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "M, c, message",
        [
            ("nan", "1", "must be finite"),
            ("1e200", "1", "sample size overflows"),
            ("1", "1e-200", "sample size overflows"),
        ],
    )
    def test_solve_n_out_of_float_range_exits_2(self, M, c, message, capsys):
        rc = main(["bounds", "--solve-n", "--M", M, "--c", c,
                   "--eps", "0.1", "--eta", "0.05"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err


DESIGNS = ("chao", "tille", "midzuno", "brewer", "srswor")


def verify_lines(design: str, capsys) -> tuple[int, list[str]]:
    """Exit code and output lines of ``verify`` on x = 1..6 at n = 3."""
    if design == "srswor":
        args = ["--N", "6", "--n", "3"]
    else:
        args = ["--x", "1,2,3,4,5,6", "--n", "3"]
    rc = main(["verify", "--design", design, *args])
    return rc, capsys.readouterr().out.splitlines()


class TestVerify:
    def test_tille_passes(self, capsys):
        # And the other four designs: every line passes but Brewer's two
        # dependence lines, for which the paper makes no claim.
        for design in DESIGNS:
            rc, lines = verify_lines(design, capsys)
            assert rc == 0, design
            assert not any(line.startswith("FAIL") for line in lines), design
            dependence = "INFO" if design == "brewer" else "PASS"
            assert [line.split(":")[0].split(" (")[0] for line in lines[1:6]] == [
                "PASS fixed-size",
                "PASS inclusion-probabilities",
                f"{dependence} conditional-syg",
                f"{dependence} pairwise-covariance",
                "PASS ht-unbiasedness",
            ], design

    @pytest.mark.parametrize("field", ["max_violation", "max_covariance"])
    @pytest.mark.parametrize("design", DESIGNS)
    def test_dependence_above_tolerance(self, design, field, monkeypatch, capsys):
        # Either dependence value just above CSYG_TOL fails every design
        # but Brewer.
        def report(dist):
            return dataclasses.replace(check_csyg(dist), **{field: 2 * CSYG_TOL})

        monkeypatch.setattr(cli, "check_csyg", report)
        rc, lines = verify_lines(design, capsys)
        failed = [line for line in lines if line.startswith("FAIL")]
        assert rc == len(failed) == (0 if design == "brewer" else 1)

    def test_midzuno_includes_complement_check(self, capsys):
        rc = main(
            ["verify", "--design", "midzuno", "--x", "1,2,3,4,5", "--n", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "complement-elimination-tv" in out

    def test_brewer_syg_is_informational(self, capsys):
        # A correct Brewer law with a positive pairwise covariance: the
        # paper claims no negative dependence for Brewer, so verify
        # reports both dependence lines and passes.
        rc = main(
            ["verify", "--design", "brewer", "--n", "4",
             "--x", "1.027,0.249,0.52,0.326,1.016,0.472,0.549,0.063"]
        )
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert not any(line.startswith("FAIL") for line in lines)
        assert lines[3].startswith("INFO conditional-syg")
        assert lines[4] == (
            "INFO pairwise-covariance: max violation 2.728e-04 "
            "(not part of the pass/fail contract)"
        )

    def test_srswor_by_N(self, capsys):
        rc = main(["verify", "--design", "srswor", "--N", "5", "--n", "2"])
        assert rc == 0
        assert "support=10" in capsys.readouterr().out

    def test_srswor_rejects_x(self, capsys):
        rc = main(
            ["verify", "--design", "srswor", "--N", "4", "--n", "2",
             "--x", "1,2,3,4"]
        )
        assert rc == 2
        assert "--x" in capsys.readouterr().err

    def test_N_must_match_x(self, capsys):
        argv = ["verify", "--design", "chao", "--x", "1,2,3,4", "--n", "2"]
        assert main(argv + ["--N", "99"]) == 2
        assert "N=99" in capsys.readouterr().err
        assert main(argv + ["--N", "4"]) == 0

    def test_dump_file(self, tmp_path, capsys):
        dump = str(tmp_path / "dist.csv")
        rc = main(
            ["verify", "--design", "chao", "--x", "1,2,3,4", "--n", "2",
             "--dump", dump]
        )
        assert rc == 0
        capsys.readouterr()
        lines = open(dump).read().strip().splitlines()
        assert lines[0] == "sample;probability"
        total = 0.0
        for line in lines[1:]:
            key, prob = line.split(";")
            assert all(tok.isdigit() for tok in key.split("-"))
            total += float(prob)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_budget_exceeded(self, capsys):
        rc = main(
            ["verify", "--design", "tille", "--x", "1,2,3,4,5,6,7,8,9",
             "--n", "3", "--max-branches", "100"]
        )
        assert rc == 2
        assert "--max-branches" in capsys.readouterr().err

    def test_population_too_large(self, capsys):
        xs = ",".join(["1"] * 11)
        rc = main(["verify", "--design", "chao", "--x", xs, "--n", "2"])
        assert rc == 2

    def test_huge_srswor_N_is_refused_before_any_allocation(self, capsys):
        # pi = n/N for a million units would take 8 MB; the cap comes first.
        tracemalloc.start()
        try:
            rc = main(["verify", "--design", "srswor", "--N", "1000000", "--n", "2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "N <= 10" in capsys.readouterr().err
        assert peak < 1_000_000

    def test_unknown_design_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--design", "poisson", "--x", "1,2", "--n", "1"])
        assert exc.value.code == 2


# A command that runs in each mode of cli.MODES, with POP standing for a
# population file, and a value for every checked flag.
MODE_ARGV = {
    "bounds": ["bounds", *RAW_STATS, "--eps", "0.5"],
    "bounds --solve-eps": ["bounds", *RAW_STATS, "--solve-eps", "--eta", "0.05"],
    "bounds --population": ["bounds", "--population", "POP", "--n", "3", "--eps", "0.4"],
    "bounds --solve-eps --population": [
        "bounds", "--population", "POP", "--n", "3", "--solve-eps", "--eta", "0.05",
    ],
    "bounds --solve-n": [
        "bounds", "--solve-n", "--M", "1", "--c", "1", "--eps", "0.1", "--eta", "0.05",
    ],
    "verify --design srswor": ["verify", "--design", "srswor", "--N", "5", "--n", "2"],
    cli._VERIFY_BY_X: ["verify", "--design", "chao", "--x", "1,2,3,4", "--n", "2"],
}
FLAG_VALUES = {
    "population": ["POP"], "N": ["5"], "n": ["2"], "sup_ycheck": ["5"],
    "sum_sq_ycheck": ["2500"], "sup_y": ["1"], "sup_y2_over_pi": ["5"],
    "M": ["1"], "c": ["1"], "eps": ["0.1"], "eta": ["0.05"], "two_sided": [],
    "equal_probability": [], "solve_n": [], "solve_eps": [], "x": ["1,2,3,4,5"],
    "max_branches": ["100000"], "dump": ["DUMP"],
}
# Flags that choose the mode: without one a command runs another mode,
# whose error names that mode's flags.
MODE_FLAGS = ("population", "solve_eps", "solve_n")


def flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def subparser_dests(command: str) -> set[str]:
    sub = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {a.dest for a in sub.choices[command]._actions} - {"help"}


def run_mode(argv, pop_file, tmp_path, capsys) -> tuple[int, str]:
    subs = {"POP": pop_file, "DUMP": str(tmp_path / "dist.csv")}
    rc = main([subs.get(a, a) for a in argv])
    return rc, capsys.readouterr().err


class TestFlagContract:
    def test_table_agrees_with_parser(self):
        assert set(MODE_ARGV) == set(cli.MODES)
        for command in ("bounds", "verify"):
            dests = subparser_dests(command)
            listed = {
                d
                for mode, sets in cli.MODES.items()
                if mode.split()[0] == command
                for d in (*sets[0], *sets[1])
            }
            assert listed <= dests, command
            assert dests - listed <= {"command", "func", "design", "out"}, command

    @pytest.mark.parametrize("mode", list(MODE_ARGV))
    def test_every_flag_outside_the_mode(self, mode, pop_file, tmp_path, capsys):
        assert run_mode(MODE_ARGV[mode], pop_file, tmp_path, capsys)[0] == 0
        needs, takes = cli.MODES[mode]
        outside = subparser_dests(mode.split()[0]) - {
            *needs, *takes, "command", "func", "design", "out",
        }
        for dest in sorted(outside):
            argv = MODE_ARGV[mode] + [flag(dest), *FLAG_VALUES[dest]]
            rc, err = run_mode(argv, pop_file, tmp_path, capsys)
            assert rc == 2, dest
            assert flag(dest) in err, dest

    @pytest.mark.parametrize("mode", list(MODE_ARGV))
    def test_every_needed_flag_dropped(self, mode, pop_file, tmp_path, capsys):
        for dest in cli.MODES[mode][0]:
            argv = list(MODE_ARGV[mode])
            at = argv.index(flag(dest))
            del argv[at : at + 1 + len(FLAG_VALUES[dest])]
            rc, err = run_mode(argv, pop_file, tmp_path, capsys)
            assert rc == 2, dest
            if dest not in MODE_FLAGS:
                assert flag(dest) in err.split("needs ")[1].strip().split(", "), dest

    @pytest.mark.parametrize("mode", ["bounds", "bounds --population"])
    @pytest.mark.parametrize("given, missing", [("--M", "--c"), ("--c", "--M")])
    def test_M_and_c_come_as_a_pair(self, mode, given, missing, pop_file, tmp_path, capsys):
        argv = MODE_ARGV[mode] + [given, "1"]
        rc, err = run_mode(argv, pop_file, tmp_path, capsys)
        assert rc == 2
        assert err.strip().endswith(f"needs {missing}")
        rc, _ = run_mode(MODE_ARGV[mode] + ["--M", "1", "--c", "1"], pop_file, tmp_path, capsys)
        assert rc == 0


class TestExperiment:
    def test_tiny_grid(self, tmp_path):
        out = str(tmp_path / "curves.csv")
        rc = main(
            ["experiment", "--N", "400", "--sigmas", "0,1",
             "--ns", "10,40", "--eps-count", "5", "--seed", "11",
             "--out", out]
        )
        assert rc == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "sigma,n,eps,diff,pop_mean"
        assert len(lines) == 1 + 2 * 2 * 5

    def test_stdout_default(self, capsys):
        rc = main(
            ["experiment", "--N", "200", "--sigmas", "0",
             "--ns", "10", "--eps-count", "3"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4

    def test_warns_of_pi_above_one(self, tmp_path, capsys):
        # The default population: at n = 10^3.5, 59 units get
        # pi = n x / sum(x) > 1; at n = 1000 none does.
        rc = main(
            ["experiment", "--sigmas", "0", "--ns", "1000,3162.2776601683795",
             "--eps-count", "1", "--out", str(tmp_path / "curves.csv")]
        )
        assert rc == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: n=3162.28: 59 units have pi = n x / sum(x) > 1 (max 1.77); "
            "the experiment uses them uncapped"
        ]

    def test_bad_sigma_list(self, capsys):
        rc = main(
            ["experiment", "--N", "200", "--sigmas", "0,abc",
             "--ns", "10", "--eps-count", "3"]
        )
        assert rc == 2
