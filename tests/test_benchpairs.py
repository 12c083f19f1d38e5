"""tools/benchpairs.py: its aggregation of canned result lines, the
order in which it runs the two checkouts, and the JSON record it
writes."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
_SPEC = importlib.util.spec_from_file_location("benchpairs", _PATH)
benchpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpairs)


def line(rate: float, setup: float, note: float) -> str:
    """One result line as ``bench/run.py`` prints it last."""
    return json.dumps({
        "correct": True,
        "attempted": 100,
        "failed": 0,
        "metrics": {
            "samples_per_s.midzuno": {"value": rate, "unit": "samples/s"},
            "setup_s": {"value": setup, "unit": "s"},
            "note": {"value": note, "unit": ""},
        },
    })


# Five pairs.  BASE's rates 100..104 have quartiles 101 and 103; NEW's
# are higher in four pairs and tie in one.  NEW's set-up is lower in
# two pairs.
BASE = [line(r, s, 1.0) for r, s in zip([102, 100, 104, 101, 103], [5, 5, 5, 5, 5])]
NEW = [line(r, s, 2.0) for r, s in zip([110, 100, 112, 109, 111], [4, 6, 5, 4, 6])]
BETTER = {"samples_per_s.midzuno": "higher", "setup_s": "lower"}


def test_aggregate_canned_lines():
    rows = benchpairs.aggregate(
        [json.loads(s) for s in BASE], [json.loads(s) for s in NEW], BETTER
    )
    by_name = {row["metric"]: row for row in rows}
    assert [row["metric"] for row in rows] == ["samples_per_s.midzuno", "setup_s", "note"]
    rate = by_name["samples_per_s.midzuno"]
    assert (rate["base_q1"], rate["base_median"], rate["base_q3"]) == (101, 102, 103)
    assert rate["new_median"] == 110 and rate["unit"] == "samples/s"
    assert rate["change_pct"] == pytest.approx(100.0 * 8 / 102)
    # The tie in pair 2 counts for neither side.
    assert (rate["wins"], rate["pairs"]) == (4, 5)
    setup = by_name["setup_s"]
    assert (setup["base_median"], setup["new_median"], setup["wins"]) == (5, 5, 2)
    assert setup["change_pct"] == 0.0
    # No direction, no count.
    assert by_name["note"]["wins"] is None
    assert "NEW better in 4/5" in benchpairs.format_row(rate)
    assert "better" not in benchpairs.format_row(by_name["note"])


def test_aggregate_needs_matching_pairs():
    with pytest.raises(ValueError):
        benchpairs.aggregate([json.loads(BASE[0])], [], BETTER)


def test_one_run_per_side_is_its_own_quartiles():
    assert benchpairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_pairs_alternate_which_side_runs_first(tmp_path, capsys):
    base, new = tmp_path / "base", tmp_path / "new"
    for root in (base, new):
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text("")
    (new / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [
            {"name": "samples_per_s.midzuno", "better": "higher"},
            {"name": "setup_s", "better": "lower"},
        ],
    }))
    calls = []

    def runner(checkout, workload, seed, seconds):
        calls.append((Path(checkout).name, seed))
        i = seed - 11
        return json.loads((BASE if Path(checkout) == base else NEW)[i])

    argv = [str(base), str(new), "--pairs", "4", "--seed", "11", "--seconds", "1"]
    assert benchpairs.main(argv, runner=runner) == 0
    assert calls == [
        ("base", 11), ("new", 11), ("new", 12), ("base", 12),
        ("base", 13), ("new", 13), ("new", 14), ("base", 14),
    ]
    out = capsys.readouterr().out
    assert "samples_per_s.midzuno" in out and "NEW better in 3/4" in out
    assert "every run correct: True" in out


def test_missing_checkout_exits_2(tmp_path, capsys):
    assert benchpairs.main([str(tmp_path), str(tmp_path / "nowhere")]) == 2
    assert "no bench/run.py" in capsys.readouterr().err


def test_worse_beyond_bound_is_marked():
    # NEW's rate median 76.5 is 25% below BASE's 102: beyond a bound of
    # 0.2, within one of 0.3.  Its set-up median 6 is 20% above BASE's
    # 5: beyond 0.1.  A metric without a bound gets no mark.
    base = [json.loads(s) for s in BASE]
    new = [json.loads(line(0.75 * r, 6, 2.0)) for r in [102, 100, 104, 101, 103]]
    bound = {"samples_per_s.midzuno": 0.2, "setup_s": 0.1}
    rows = benchpairs.aggregate(base, new, BETTER, bound)
    by_name = {row["metric"]: row for row in rows}
    assert by_name["samples_per_s.midzuno"]["worse"] is True
    assert by_name["setup_s"]["worse"] is True
    assert by_name["note"]["worse"] is None
    assert "WORSE BEYOND BOUND" in benchpairs.format_row(by_name["setup_s"])
    assert "WORSE" not in benchpairs.format_row(by_name["note"])
    rows = benchpairs.aggregate(base, new, BETTER, {"samples_per_s.midzuno": 0.3})
    by_name = {row["metric"]: row for row in rows}
    assert by_name["samples_per_s.midzuno"]["worse"] is False
    assert by_name["setup_s"]["worse"] is None
    # Better by any margin is never worse.
    faster = [json.loads(s) for s in NEW]
    rows = benchpairs.aggregate(base, faster, BETTER, {"samples_per_s.midzuno": 0.0})
    assert rows[0]["worse"] is False


def test_unresolved_is_marked(tmp_path, capsys):
    # BASE's rates 60..140 have quartiles 80 and 120: 40 apart, beyond
    # a bound of 0.25 times the median 100, so NEW's 105..109 are
    # unresolved, and so are 139..145, whose 139 falls below BASE's best
    # run, 140.  150..154 beat every BASE run.
    # BASE's set-ups all read 5: no spread, never unresolved.
    base = [json.loads(line(r, 5, 1.0)) for r in [100, 60, 140, 80, 120]]
    bound = {"samples_per_s.midzuno": 0.25, "setup_s": 0.25}
    for rates, unresolved in (
        ([105, 106, 107, 108, 109], True),
        ([141, 139, 145, 142, 143], True),
        ([150, 151, 152, 153, 154], False),
    ):
        new = [json.loads(line(r, 5, 1.0)) for r in rates]
        rows = {row["metric"]: row for row in benchpairs.aggregate(base, new, BETTER, bound)}
        rate = rows["samples_per_s.midzuno"]
        assert rate["unresolved"] is unresolved
        assert ("UNRESOLVED" in benchpairs.format_row(rate)) is unresolved
        assert rows["setup_s"]["unresolved"] is False
        assert rows["note"]["unresolved"] is None
    # Without a bound there is no mark.
    rows = benchpairs.aggregate(base, new, BETTER)
    assert rows[0]["unresolved"] is None
    # The printed rows and the JSON record carry it too: here NEW's runs
    # are BASE's.
    rate = {"name": "samples_per_s.midzuno", "better": "higher", "bound": 0.25}
    root_base, root_new = checkouts(tmp_path, {"run_seconds": 20, "end_to_end": [rate]})
    canned = [line(r, 5, 1.0) for r in [100, 60, 140, 80, 120]]
    out = tmp_path / "BENCH.json"

    def runner(checkout, workload, seed, s):
        return json.loads(canned[seed - 1])

    argv = [str(root_base), str(root_new), "--pairs", "5", "--json", str(out)]
    assert benchpairs.main(argv, runner=runner) == 0
    assert "UNRESOLVED" in capsys.readouterr().out
    record = json.loads(out.read_text())
    assert record["workloads"]["mc-certify"]["metrics"][0]["unresolved"] is True


def checkouts(tmp_path, benchmark):
    """BASE and NEW roots with an empty bench/run.py each, and NEW's
    BENCHMARK.json when ``benchmark`` is not None."""
    base, new = tmp_path / "base", tmp_path / "new"
    for root in (base, new):
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text("")
    if benchmark is not None:
        (new / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return base, new


def run_canned(base, new, argv, slow=False):
    """``main`` over the canned lines, NEW's rates cut by a third when
    ``slow``: the seconds each run was given, and the printed report."""
    seconds = []

    def runner(checkout, workload, seed, s):
        seconds.append(s)
        rows = BASE if Path(checkout) == base else NEW
        result = json.loads(rows[seed - 1])
        if slow and Path(checkout) == new:
            result["metrics"]["samples_per_s.midzuno"]["value"] *= 2 / 3
        return result

    assert benchpairs.main([str(base), str(new), *argv], runner=runner) == 0
    return seconds


def test_seconds_and_bounds_come_from_the_benchmark(tmp_path, capsys):
    rate = {"name": "samples_per_s.midzuno", "better": "higher", "bound": 0.25}
    base, new = checkouts(tmp_path, {"run_seconds": 20, "end_to_end": [rate]})
    assert run_canned(base, new, ["--pairs", "2"], slow=True) == [20] * 4
    out = capsys.readouterr().out
    assert "WORSE BEYOND BOUND" in out
    assert "worse beyond bound: samples_per_s.midzuno" in out
    # A given --seconds wins over the benchmark's.
    assert run_canned(base, new, ["--pairs", "1", "--seconds", "3"]) == [3.0] * 2
    assert "worse beyond bound: none" in capsys.readouterr().out


def test_missing_benchmark_json(tmp_path, capsys):
    base, new = checkouts(tmp_path, None)
    seconds = run_canned(base, new, ["--pairs", "2"], slow=True)
    assert seconds == [benchpairs.DEFAULT_SECONDS] * 4
    out = capsys.readouterr().out
    assert "better in" not in out and "WORSE" not in out
    assert "worse beyond bound: none" in out


def test_json_record_of_every_workload(tmp_path, capsys):
    # Two workloads of two pairs each, written as printed, with the run
    # settings and the machine; neither checkout is a git work tree.
    rate = {"name": "samples_per_s.midzuno", "better": "higher", "bound": 0.25}
    base, new = checkouts(tmp_path, {"run_seconds": 20, "end_to_end": [rate]})
    out = tmp_path / "BENCH.json"
    workloads = []

    def runner(checkout, workload, seed, s):
        workloads.append(workload)
        rows = BASE if Path(checkout) == base else NEW
        return json.loads(rows[seed - 1])

    # One --workload flag with both names, or one flag per name.
    both = ["mc-certify", "large-frame"]
    for names in (both, ["mc-certify", "--workload", "large-frame"]):
        workloads.clear()
        argv = [str(base), str(new), "--pairs", "2", "--workload", *names,
                "--json", str(out)]
        assert benchpairs.main(argv, runner=runner) == 0
        assert workloads == ["mc-certify"] * 4 + ["large-frame"] * 4
    printed = capsys.readouterr().out
    assert "workload large-frame: 2 pairs of 20 s runs" in printed
    record = json.loads(out.read_text())
    assert record["base"] == {"commit": None, "dirty": None}
    assert record["new"]["commit"] is None
    assert (record["seeds"], record["pairs"], record["seconds_per_run"]) == ([1, 2], 2, 20)
    assert set(record["machine"]) == {"cores", "python", "numpy"}
    assert list(record["workloads"]) == ["mc-certify", "large-frame"]
    for summary in record["workloads"].values():
        rows = {row["metric"]: row for row in summary["metrics"]}
        # BASE's rates 102 and 100, NEW's 110 and 100: one win, one tie.
        m = rows["samples_per_s.midzuno"]
        assert (m["base_q1"], m["base_median"], m["base_q3"]) == (100.5, 101, 101.5)
        assert (m["new_q1"], m["new_median"], m["new_q3"]) == (102.5, 105, 107.5)
        assert (m["wins"], m["pairs"], m["worse"]) == (1, 2, False)
        assert benchpairs.format_row(m) in printed
        assert summary["worse_beyond_bound"] == []
        assert summary["base"] == {"failed": [0, 0], "correct": True}


def test_commit_of_a_git_checkout(tmp_path):
    if shutil.which("git") is None:
        pytest.skip("git is not installed")

    def git(*args):
        subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
             *args], check=True, capture_output=True,
        )

    (tmp_path / "f.txt").write_text("a\n")
    git("init", "-q")
    git("add", "f.txt")
    git("commit", "-q", "-m", "one")
    clean = benchpairs.commit(str(tmp_path))
    assert len(clean["commit"]) == 40 and clean["dirty"] is False
    (tmp_path / "f.txt").write_text("b\n")
    assert benchpairs.commit(str(tmp_path)) == {"commit": clean["commit"], "dirty": True}
