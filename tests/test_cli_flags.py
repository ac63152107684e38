"""Property test of the command line's flags.

For each subcommand, the flags that carry a value check come from
``build_parser()``'s own actions, and each draw sets up to three of them
to boundary or invalid values on a 5x5 surface (the smallest the
default network takes) with a few angles.  Every
run must end one of three ways: exit 0; exit 2 with the name of a flag it
set in stderr; or exit 1 with an ``error:`` line for a runtime condition
listed in ``RUNTIME_ERRORS``.  Never a traceback, never a warning outside
those runtime failures, and a failing run prints no stage progress and
writes no file first.
"""

import argparse
import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risopt.cli import build_parser, main

BAD = ["0", "-1", "nan", "inf", "-inf", "1e-320", "1e308", "-1e308", "abc"]

SURFACE = {"--ris-m": "5", "--ris-n": "5", "--freq-ghz": "10", "--spacing": "0.015",
           "--tx-dist": "0.6", "--rx-dist": "4"}

# one valid value for every checked flag; --max-epochs stays <= 2 so that a
# run that passes its checks ends in milliseconds
VALID = {
    "generate": {**SURFACE, "--grid-az": "0,20", "--grid-el": "0,0", "--grid-step": "20",
                 "--split": "0.5,0.25,0.25", "--seed": "1"},
    "train": {**SURFACE, "--lr": "1e-3", "--batch": "2", "--max-epochs": "2",
              "--patience": "1", "--seed": "1"},
    "eval": {**SURFACE, "--split": "test", "--snr-db": "10", "--seed": "1"},
    "optimize": {**SURFACE, "--method": "gim", "--el": "20", "--az": "40"},
    "pattern": {**SURFACE, "--step": "30"},
}

# exit 1 is a pass only for these runtime conditions
RUNTIME_ERRORS = {
    "train": ["loss is not finite"],  # a finite --lr too large for the data
}

PROGRESS = re.compile(r"^(generated \d+/\d+ samples|epoch \d+/\d+ )", re.MULTILINE)


def _flags(command):
    """Option -> action for every flag with a checked value, and every switch."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[0]: a for a in sub.choices[command]._actions
            if a.type is not None or a.choices is not None
            or isinstance(a, argparse._StoreTrueAction)}


def _values(action, valid):
    """The values to draw for one flag: None (given bare) for a switch, its
    choices, or the boundary and invalid values (repeated for each number
    of a comma-separated flag) plus the valid one."""
    if isinstance(action, argparse._StoreTrueAction):
        return [None]
    if action.choices is not None:
        return [*action.choices, "abc"]
    arity = valid.count(",") + 1
    return list(dict.fromkeys([",".join([v] * arity) for v in BAD] + ["abc", valid]))


@st.composite
def _flag_values(draw, command):
    flags = _flags(command)
    names = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=3))
    return {name: draw(st.sampled_from(_values(flags[name], VALID[command].get(name))))
            for name in names}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 4-sample dataset of the VALID surface, weights and a config for it."""
    root = tmp_path_factory.mktemp("flags")
    surface = [f"{flag}={value}" for flag, value in SURFACE.items()]
    ds, net, cfg = root / "ds", root / "net.rist", root / "cfg.rist"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["generate", *surface, "--grid-az", "0,20", "--grid-el", "0,20",
                     "--grid-step", "20", "--split", "0.5,0.25,0.25", "--out", str(ds)]) == 0
        assert main(["train", "--data", str(ds), "--max-epochs", "1",
                     "--weights-out", str(net)]) == 0
        assert main(["optimize", *surface, "--method", "gim", "--el", "20", "--az", "40",
                     "--config-out", str(cfg)]) == 0
    return {"ds": str(ds), "net": str(net), "cfg": str(cfg)}


def _paths(command, inputs, out):
    return {
        "generate": ["--out", str(out / "ds")],
        "train": ["--data", inputs["ds"], "--weights-out", str(out / "net.rist")],
        "eval": ["--data", inputs["ds"], "--weights", inputs["net"],
                 "--report-out", str(out / "report.csv")],
        "optimize": ["--weights", inputs["net"], "--config-out", str(out / "cfg.rist")],
        "pattern": ["--config", inputs["cfg"], "--out", str(out / "pattern.csv")],
    }[command]


def _run(argv):
    """main(argv) in process: (exit code, stdout, stderr, warnings raised)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), caught


@pytest.mark.parametrize("command", sorted(VALID))
def test_every_checked_flag_has_values_to_draw(command):
    checked = [name for name, action in _flags(command).items()
               if not isinstance(action, argparse._StoreTrueAction)]
    assert sorted(checked) == sorted(VALID[command])


@pytest.mark.parametrize("command", sorted(VALID))
def test_any_flag_values_run_or_fail_naming_a_flag(inputs, command):
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_flag_values(command))
    def check(changed):
        values = {**VALID[command], **changed}
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            argv = [command, *_paths(command, inputs, out),
                    *(flag if value is None else f"{flag}={value}"
                      for flag, value in values.items())]
            code, stdout, stderr, caught = _run(argv)
            if code == 0:
                assert not caught, [str(w.message) for w in caught]
                return
            assert not PROGRESS.search(stderr), stderr
            assert list(out.iterdir()) == []
            if code == 2:
                assert stdout == "" and not caught, stderr
                assert any(flag in stderr for flag in changed), stderr
            else:
                assert code == 1, (code, stderr)
                last = stderr.splitlines()[-1]
                assert last.startswith("error: ")
                assert any(e in last for e in RUNTIME_ERRORS.get(command, [])), stderr

    check()
