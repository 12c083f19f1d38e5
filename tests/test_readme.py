"""README examples: the samples they show are the samples the code draws,
so a change to a seed's sample cannot leave the README stale."""

import re
import shlex
from pathlib import Path

from splitsamp.cli import MODES, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else None]


def blocks(text: str, lang: str = "") -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


def test_drawing_samples_block():
    code = blocks(section("Drawing samples"), "python")[0]
    shown = re.search(r"^s = draw\(42\)\s+# (.+)$", code, flags=re.M).group(1)
    namespace: dict = {}
    exec(code, namespace)
    assert repr(namespace["s"]) == shown


def test_command_line_sample(tmp_path, monkeypatch, capsys):
    # pop.csv: units u1..u6 with sizes 1..6.
    block = next(b for b in blocks(section("Command line")) if "splitsamp sample" in b)
    command, *shown = block.strip().splitlines()
    args = shlex.split(command.removeprefix("$ splitsamp "))
    rows = [f"u{k},{float(k)},{float(k)}" for k in range(1, 7)]
    (tmp_path / "pop.csv").write_text("id,x,y\n" + "\n".join(rows) + "\n")
    monkeypatch.chdir(tmp_path)
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == shown


def test_command_line_verify(capsys):
    # The block shows float noise, such as the unbiasedness gap, as
    # Python 3.11 with numpy 2.4 prints it.
    block = next(b for b in blocks(section("Command line")) if "splitsamp verify" in b)
    command, *shown = block.strip().splitlines()
    assert main(shlex.split(command.removeprefix("$ splitsamp "))) == 0
    assert capsys.readouterr().out.splitlines() == shown


def test_command_line_flag_table():
    # One row per mode of cli.MODES: the flags it needs, then those it
    # may take, each as a code span.
    rows = re.findall(r"^\| `([^`]+)` \|(.*)\|(.*)\|$", section("Command line"), flags=re.M)
    shown = {
        mode: (re.findall(r"`(--[\w-]+)`", needs), re.findall(r"`(--[\w-]+)`", takes))
        for mode, needs, takes in rows
    }

    def flags(dests):
        return ["--" + d.replace("_", "-") for d in dests]

    assert shown == {mode: (flags(n), flags(t)) for mode, (n, t) in MODES.items()}


def test_monte_carlo_certification_block():
    # The block certifies Chao on x, y and pi from the "Drawing samples"
    # blocks; its last line shows the value that line evaluates to.
    namespace: dict = {}
    for code in blocks(section("Drawing samples"), "python")[:2]:
        exec(code, namespace)
    *body, last = blocks(section("Monte Carlo certification"), "python")[0].splitlines()
    expr, shown = last.split("#")
    exec("\n".join(body), namespace)
    assert repr(eval(expr, namespace)) == shown.strip()


def test_exact_verification_block():
    # The block checks Tille on x and pi from the "Drawing samples"
    # blocks; each line with a comment shows the value it evaluates to,
    # as print shows it.
    namespace: dict = {}
    for code in blocks(section("Drawing samples"), "python")[:2]:
        exec(code, namespace)
    for line in blocks(section("Exact verification"), "python")[0].splitlines():
        code, _, shown = line.partition("  # ")
        if shown:
            assert str(eval(code, namespace)) == shown.strip(), line
        else:
            exec(code, namespace)
