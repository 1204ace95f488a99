import json
import os
import subprocess
import sys

import pytest

from arglue import cli, replab
from arglue.cli import run
from arglue.core import KupischSeries, kupisch_of, linear_a, parse_algebra
from conftest import branched_ten, chain_four, two_presentations_of_a_sum


@pytest.fixture
def chain_file(tmp_path):
    p = tmp_path / "chain.json"
    p.write_text(json.dumps(chain_four().to_json()))
    return str(p)


@pytest.fixture
def branched_file(tmp_path):
    p = tmp_path / "branched.json"
    p.write_text(json.dumps(branched_ten().to_json()))
    return str(p)


def test_algebra_validate_and_indec(chain_file):
    assert run(["algebra", "validate", chain_file])[0] == 0
    code, report = run(["algebra", "indec", chain_file])
    assert code == 0
    assert report.data["verdicts"]["count"] == 9


def test_algebra_ar_writes_dot(chain_file, tmp_path):
    dot = tmp_path / "ar.dot"
    code, report = run(["algebra", "ar", chain_file, "--dot", str(dot)])
    assert code == 0
    assert dot.read_text().startswith("digraph")
    assert str(dot) in report.data["artifacts"]


def test_nakayama_check_nct_passes():
    code, report = run(["nakayama", "--kupisch", "2,2,3,3,3,3,2,1",
                        "check-nct", "-n", "3"])
    assert code == 0


def test_nakayama_emit_round_trip(tmp_path):
    out = tmp_path / "report.json"
    code, _ = run(["nakayama", "--kupisch", "2,2,3,3,3,3,2",
                   "--cyclic", "emit", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    A = parse_algebra(doc["algebra"])
    assert kupisch_of(A) == KupischSeries([2, 2, 3, 3, 3, 3, 2], cyclic=True)


def test_nakayama_selfglue():
    code, report = run(["nakayama", "--kupisch", "2,2,3,3,3,3,2,1",
                        "selfglue"])
    assert code == 0
    assert report.data["verdicts"]["kupisch-tilde"] == [2, 2, 2, 3, 3, 3, 3]


def test_starlike_classify_reports_global_dimension(capsys):
    code, report = run(["starlike", "--arms", "5:out,5:out,4:in",
                        "classify", "-n", "4"])
    assert code == 0
    assert report.data["verdicts"]["passes"] is True
    assert "gldim 7" in capsys.readouterr().out


def test_check_nct_failure_exits_two(tmp_path, chain_file):
    # candidate missing a projective: dumped module list with one class
    doc = json.loads(open(chain_file).read())
    doc["modules"] = [{"dims": {"0": 1}, "mats": {}}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, report = run(["check", "nct", str(bad), "-n", "2"])
    assert code == 2


def test_check_nct_alias_spelling(chain_file):
    code, _ = run(["check-nct", chain_file, "-n", "2"])
    assert code in (0, 2)  # alias resolves; verdict decided by the check


def test_missing_file_is_input_error():
    code, report = run(["algebra", "validate", "/nonexistent/algebra.json"])
    assert code == 3


def test_unwritable_report_is_input_error(capsys):
    code, _ = run(["nakayama", "--kupisch", "2,1", "emit",
                   "--json", "/nonexistent/dir/report.json"])
    err = capsys.readouterr().err
    assert code == 3
    assert "input error" in err and "Traceback" not in err


def test_bad_arguments_are_input_errors():
    assert run(["nakayama", "--kupisch", "two,one", "emit"])[0] == 3
    assert run(["starlike", "--arms", "5:sideways", "classify",
                "-n", "2"])[0] == 3


def test_check_nct_modules_with_unknown_names_is_input_error(tmp_path,
                                                            capsys):
    alg = tmp_path / "a3.json"
    alg.write_text(json.dumps(linear_a(3).to_json()))
    mods = tmp_path / "modules.json"
    mods.write_text(json.dumps(
        [{"dims": {"zz": 2, "1": 1}, "mats": {"nope": [["1"]]}}]))
    code, _ = run(["check", "nct", str(alg), "--modules", str(mods),
                   "-n", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "input error" in err and "unknown vertices ['zz']" in err
    assert "Traceback" not in err


def test_check_fractured_decomposable_member_is_input_error(tmp_path,
                                                           capsys):
    from arglue import fracture as fx
    from arglue.core import nakayama
    from arglue.verifier import tau_orbit_candidate
    A = nakayama(KupischSeries([3, 3, 3, 2, 1]))
    fr = fx.trivial_fracturing(A)
    members = tau_orbit_candidate(A, 2).modules
    total = replab.direct_sum(A, members[-2:])
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(A.to_json()))
    mods = tmp_path / "modules.json"
    mods.write_text(json.dumps(
        [replab.rep_to_json(M) for M in members + [total]]))
    frac = tmp_path / "fracturing.json"
    frac.write_text(json.dumps(
        {side: {anchor: T.intervals for anchor, T in fractures.items()}
         for side, fractures in (("left", fr.left), ("right", fr.right))}))
    argv = ["check", "fractured", str(alg), "--fracturing", str(frac),
            "-n", "2", "--modules"]
    # the members alone give a verdict (this candidate fails at n = 2)
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps([replab.rep_to_json(M) for M in members]))
    assert run(argv + [str(ok)])[0] == 2
    capsys.readouterr()
    code, _ = run(argv + [str(mods)])
    err = capsys.readouterr().err
    assert code == 3
    assert "input error" in err and "not indecomposable" in err
    assert str(list(total.dim_vector())) in err and "Traceback" not in err


def test_check_nct_decomposable_module_is_input_error(tmp_path, capsys):
    M, _ = two_presentations_of_a_sum()
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(M.algebra.to_json()))
    mods = tmp_path / "modules.json"
    mods.write_text(json.dumps([replab.rep_to_json(M)]))
    code, _ = run(["check", "nct", str(alg), "--modules", str(mods),
                   "-n", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "input error: module 0 with dimension vector [1, 1, 2]" in err
    assert "not indecomposable" in err and "Traceback" not in err


def test_resolution_past_its_cap_is_a_verification_error(capsys):
    code, _ = run(["nakayama", "--cyclic", "--kupisch", "3,3", "check-nct",
                   "-n", "40"])
    err = capsys.readouterr().err
    assert code == 2
    assert (f"verification error: projective resolution exceeds cap "
            f"{replab.RESOLUTION_CAP}") in err
    assert "Traceback" not in err


def test_kronecker_indecomposables_are_a_verification_error(tmp_path,
                                                            capsys):
    alg = tmp_path / "kronecker.json"
    alg.write_text(json.dumps(
        {"vertices": ["0", "1"],
         "arrows": [{"id": "x", "from": "0", "to": "1"},
                    {"id": "y", "from": "0", "to": "1"}],
         "relations": []}))
    code, _ = run(["algebra", "indec", str(alg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "verification error" in err and "above the bound 6" in err


def test_glue_pair(chain_file, branched_file, tmp_path):
    out = tmp_path / "glued.json"
    code, report = run(["glue", "pair", chain_file, branched_file,
                        "--p", "1", "--i", "3", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    L = parse_algebra(doc["algebra"])
    assert len(L.quiver.vertices) == 11
    # the emitted algebra file loads back through the same front door
    again = tmp_path / "again.json"
    again.write_text(json.dumps(doc["algebra"]))
    assert run(["algebra", "validate", str(again)])[0] == 0


def test_glue_system(tmp_path):
    spec = {"tree": {"vertices": ["x", "y"],
                     "arrows": [{"from": "x", "to": "y",
                                 "I": "2", "P": "2"}]},
            "algebras": {"x": {"kupisch": [2, 2, 1]},
                         "y": {"kupisch": [2, 2, 1]}}}
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(spec))
    code, report = run(["glue", "system", str(f)])
    assert code == 0
    assert report.data["verdicts"]["vertices"] == 4


def test_glue_system_with_fracturings(tmp_path):
    spec = {"tree": {"vertices": ["x", "y"],
                     "arrows": [{"from": "x", "to": "y",
                                 "I": "1", "P": "3"}]},
            "algebras": {"x": {"kupisch": [2, 2, 1]},
                         "y": {"kupisch": [2, 2, 1]}},
            "fracturings": {"x": {"left": {"2": [[1, 2], [2, 2]]},
                                  "right": {"2": [[1, 1], [1, 2]]}},
                            "y": {"left": {"2": [[1, 2], [2, 2]]},
                                  "right": {"2": [[1, 1], [1, 2]]}}}}
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(spec))
    code, report = run(["glue", "system", str(f), "-n", "2"])
    assert code == 0
    assert report.data["verdicts"] == {"complete": True, "vertices": 5,
                                       "verdict": True}


def test_glue_system_bad_anchor(tmp_path):
    spec = {"tree": {"vertices": ["x", "y"],
                     "arrows": [{"from": "x", "to": "y",
                                 "I": "3", "P": "1"}]},
            "algebras": {"x": {"kupisch": [2, 2, 1]},
                         "y": {"kupisch": [2, 2, 1]}}}
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(spec))
    assert run(["glue", "system", str(f)])[0] == 3


def test_glue_simultaneous(chain_file, branched_file):
    code, report = run(["glue", "simultaneous", chain_file, branched_file,
                        "--pairs", "1:3"])
    assert code == 0
    assert report.data["verdicts"]["vertices"] == 11


def test_selfglue_command(tmp_path):
    f = tmp_path / "alg.json"
    f.write_text(json.dumps({"kupisch": [2, 2, 3, 3, 3, 3, 2, 1]}))
    code, report = run(["selfglue", str(f), "-n", "3"])
    assert code == 0


def test_generate_command():
    code, report = run(["generate", "-s", "2", "-t", "2", "-n", "2"])
    assert code == 0


def test_paper_suite_green():
    code, report = run(["paper-suite"])
    assert code == 0
    assert all(report.data["verdicts"].values())


def test_console_entry_point():
    # the package's own location, also when only the test run's sys.path
    # holds it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "arglue.cli", "nakayama",
         "--kupisch", "2,2,1", "indec"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    assert "count: 5" in proc.stdout


@pytest.mark.parametrize("doc, extra", [
    ("{not json", []),
    ([1, 2], []),
    ({"vertices": ["1"], "arrows": [{"id": "a"}]}, []),
    ({"starlike": [{"m": "x", "dir": "in"}]}, []),
    ({"kupisch": [2, 1], "modules": [{"dims": {"1": "one"}}]}, []),
    ({"kupisch": [2, 1], "modules": 5}, []),
    ({"kupisch": [2, 2, 1], "fracturing": {"left": {"2": [[9, 9]]}}},
     ["fractured"]),
    ({"kupisch": [2, 2, 1], "fracturing": {"left": 3}}, ["fractured"]),
])
def test_malformed_documents_are_input_errors(tmp_path, capsys, doc, extra):
    f = tmp_path / "doc.json"
    f.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    action = extra or ["nct"]
    code, _ = run(["check", *action, str(f), "-n", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "input error" in err and "Traceback" not in err


def test_malformed_gluing_system_is_input_error(tmp_path):
    f = tmp_path / "sys.json"
    for spec in ({"tree": {"vertices": ["x"]}, "algebras": {}},
                 {"tree": {"vertices": ["x"], "arrows": []},
                  "algebras": {"x": {"kupisch": [2, 1]}},
                  "fracturings": {"y": {}}}):
        f.write_text(json.dumps(spec))
        assert run(["glue", "system", str(f), "-n", "2"])[0] == 3


def test_missing_levels_are_input_errors(chain_file):
    assert run(["check", "nct", chain_file])[0] == 3
    assert run(["check", "fractured", chain_file, "-n", "1"])[0] == 3
    assert run(["generate", "-s", "0", "-t", "1", "-n", "2"])[0] == 3
    assert run(["generate", "-s", "1", "-t", "1"])[0] == 3
    assert run(["starlike", "--arms", "3:in", "classify", "-n", "1"])[0] == 3


def test_internal_errors_are_not_input_errors(monkeypatch, chain_file):
    from arglue import arquiver

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(arquiver, "indecomposables", broken)
    with pytest.raises(KeyError, match="internal"):
        run(["algebra", "indec", chain_file])
    monkeypatch.setattr(arquiver, "ar_quiver", broken)
    with pytest.raises(KeyError, match="internal"):
        run(["algebra", "ar", chain_file])


def test_two_loops_without_relations_are_an_input_error(tmp_path, capsys):
    f = tmp_path / "loops.json"
    f.write_text(json.dumps({
        "vertices": ["0"],
        "arrows": [{"id": "x", "from": "0", "to": "0"},
                   {"id": "y", "from": "0", "to": "0"}]}))
    assert run(["algebra", "validate", str(f)])[0] == 3
    assert "non-admissible" in capsys.readouterr().err


def test_long_linear_chain_is_valid(tmp_path):
    f = tmp_path / "a65.json"
    f.write_text(json.dumps(linear_a(65).to_json()))
    assert run(["algebra", "validate", str(f)])[0] == 0
