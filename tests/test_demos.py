"""The demo scripts, and the README's library example and small CLI run,
run to completion against the package in ``src``."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

from risopt.cli import build_parser, main

REPO = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_radiation_patterns_demo_steers_the_beam():
    lines = run_demo("radiation_patterns.py").splitlines()
    steered = [line for line in lines if line.startswith("steered: peak")]
    assert len(steered) == 1
    assert steered[0].endswith("at elevation +25, azimuth 120")


def test_optimizer_comparison_demo_reports_step_budgets():
    out = run_demo("optimizer_comparison.py")
    assert "IM matched the exhaustive optimum in" in out
    budget = [line.split() for line in out.splitlines() if line.lstrip().startswith("40x40")]
    assert budget == [["40x40", "IM", "3200", "steps", "stripes", "160", "steps", "(20.0x", "fewer)"]]


def test_readme_library_example_runs(capsys):
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 2 and all(v > 0 for v in values)


def test_readme_small_run_runs(tmp_path, monkeypatch, capsys):
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Reproducing the paper\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["risopt", "generate"], ["risopt", "train"], ["risopt", "eval"]]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "samples=247 train=149 val=49 test=49"
    assert [line.split(" ")[0] for line in out if line.startswith(("gim:", "cnn:"))] == [
        "gim:", "cnn:"]
    # exactly the files the README lists below the block
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                     if p.is_file())
    assert written == sorted(f"small/{name}" for name in (
        "data/inputs.rist", "data/targets.rist", "data/samples.json", "data/splits.json",
        "data/manifest.json", "net.rist", "net_history.csv", "net_run.json", "report.csv",
        "report_summary.json"))


def test_every_readme_command_line_parses():
    # parsed, not run: a renamed or removed flag would leave the README stale
    text = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in text.split("```sh\n")[1:]]
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("risopt ")]
    commands = [shlex.split(line)[1:] for line in lines]
    assert {argv[0] for argv in commands} == {"generate", "train", "eval", "optimize", "pattern"}
    for line, argv in zip(lines, commands):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README line does not parse: {line}") from None
