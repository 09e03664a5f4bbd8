"""tools/replay_outputs.py: recording requests and reporting the ones whose outputs differ."""

import importlib.util
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("replay_outputs", _ROOT / "tools" / "replay_outputs.py")
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)


def test_record_keeps_exit_code_stdout_and_stderr():
    ok, bad = replay.record([
        ["dist", "--f", "monomial:0.5", "--set", '{"exponents":[{"re":0}]}'],
        ["dist", "--f", "monomial:0.5", "--set", '{"exponents":[{"re":-1}]}'],
    ])
    assert ok[0] == 0 and '"distance"' in ok[1] and ok[2] == ""
    assert bad[0] == 3 and bad[1] == "" and "half-plane" in bad[2]


def test_report_lists_only_the_requests_that_changed(monkeypatch, capsys):
    sent = []

    def side(root, argvs):
        sent.append(argvs)
        out = [[0, "same\n", ""] for _ in argvs]
        if root == str(_ROOT):  # the head side: the first accept request fails
            out[next(i for i, argv in enumerate(argvs) if argv[0] == "accept")] = [3, "", "mono: error\n"]
        return out

    monkeypatch.setattr(replay, "_side", side)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts perfbench on the path
    assert replay.main(["base", str(_ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("accept seed 1 #0 accept: mono accept --suite primary --seed ")
    assert lines[1:-1] == ["  exit code: 0", "    -> 3", "  stdout: 'same\\n'", "    -> ''",
                           "  stderr: ''", "    -> 'mono: error\\n'"]
    assert lines[-1].startswith("1 of ") and lines[-1].endswith(" requests changed output")
    # both sides replay the same list, and it holds every workload's known defects
    import workloads

    defects = [req["argv"] for name in workloads.WORKLOADS for req in workloads.known_defects_for(name)]
    assert sent[0] == sent[1] and defects and all(argv in sent[0] for argv in defects)
