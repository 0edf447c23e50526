import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import fusion_chain_hypotheses

from gordian import cli, prove_consequence
from gordian.cli import main
from gordian.check import Countermodel, combination_formula, countermodel_refutes
from gordian.normalize import Goal
from gordian.oracles import N_MAX_CAP, decide
from gordian.syntax import parse

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_prove_proved_exit_zero(tmp_path, capsys):
    problem = write(
        tmp_path, "p.txt", "logic A\nassume p -> q\nassume q -> r\nprove p -> r\n"
    )
    code, out, _ = run(capsys, "prove", problem)
    assert code == 0
    assert out.startswith("proved")
    assert "lambdas: 1" in out


def test_prove_json_certificate_reverifies(tmp_path, capsys):
    problem = write(
        tmp_path, "p.txt", "logic A\nassume p -> q\nassume q -> r\nprove p -> r\n"
    )
    code, out, _ = run(capsys, "prove", problem, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "proved"
    for goal_payload in payload["goals"]:
        goal = Goal.of(
            [parse(t) for t in goal_payload["hypotheses"]],
            [parse(t) for t in goal_payload["disjuncts"]],
        )
        combo = combination_formula(
            tuple(goal_payload["lambdas"]), goal.clause.disjuncts
        )
        assert decide("A", goal.hypotheses, combo).status == "proved"


def test_prove_refuted_countermodel_reverifies(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", "prove 1 -> 0\n")
    code, out, _ = run(capsys, "prove", problem, "--logic", "RMt", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    cm = payload["goals"][0]["countermodel"]
    rebuilt = Countermodel.of(cm["chain"], cm["valuation"])
    assert countermodel_refutes(rebuilt, [], [parse("1 -> 0")])


def test_prove_unknown_exit_two(tmp_path, capsys):
    # a knotted preset the Hilbert oracle cannot settle within budget
    problem = write(tmp_path, "p.txt", "prove p | ~p\n")
    code, out, _ = run(
        capsys, "prove", problem,
        "--logic", "knotted(2,1,4:5:6:7)", "--budget", "2",
    )
    assert code in (0, 2)  # proved if the search gets lucky, else unknown


def test_biul_refuted_in_z_and_prelinearity_unknown(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", "logic BIULm\nprove p * q -> p\n")
    code, out, _ = run(capsys, "prove", problem, "--format", "json")
    assert code == 1
    cm = json.loads(out)["goals"][0]["countermodel"]
    assert cm["chain"] == "Z"
    rebuilt = Countermodel.of(cm["chain"], cm["valuation"])
    assert countermodel_refutes(rebuilt, [], [parse("p * q -> p")])
    # prelinearity, a theorem of MLL with mix: proved by that search
    problem = write(tmp_path, "q.txt", "logic BIULm\nprove (p -> q) | (q -> p)\n")
    code, out, _ = run(capsys, "prove", problem, "--budget", "2")
    assert code == 0 and out.startswith("proved (BIULm)")
    # valid in Z and on odd Sugihara chains, and past both searches
    problem = write(tmp_path, "r.txt", "logic BIULm\nprove (p -> q) + (p -> q) -> (p + p -> q + q)\n")
    code, out, _ = run(capsys, "prove", problem, "--budget", "2")
    assert code == 2 and out.startswith("unknown")


def test_biul_goal_with_a_hypothesis_proved_at_the_proposed_weights(tmp_path, capsys):
    # the Z LP's weights (2, 1) lie past the weight-sum cap of --budget 2,
    # and the search in MLL with mix proves their sum with q taken off by
    # modus ponens; the deepening and the saturation ended unknown here
    problem = write(tmp_path, "p.txt", "logic BIULm\nassume q\nprove (p*q)*(1->p) | (p -> 0)\n")
    code, out, _ = run(capsys, "prove", problem, "--budget", "2")
    assert code == 0 and out.startswith("proved (BIULm)")
    assert "lambdas: 2 1" in out
    # the weight 90,000 on p, which no formula holds, is not proposed: the
    # deepening ends unknown, where building the sum raised an error
    problem = write(tmp_path, "w.txt", "logic BIULm\nassume (p^300)^300\nprove p\n")
    code, out, err = run(capsys, "prove", problem, "--budget", "1")
    assert (code, err) == (2, "") and out.startswith("unknown (BIULm)")


def test_prove_flag_overrides_directive(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", "logic RMt\nprove 1 -> 0\n")
    code, _, _ = run(capsys, "prove", problem, "--logic", "IUMLm")
    assert code == 0


def test_gordan_kernel(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", "1 -1\n")
    code, out, _ = run(capsys, "gordan", matrix)
    assert code == 0
    assert out.splitlines() == ["kernel", "1 1"]


def test_gordan_strict_dual(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", "1 0\n0 1\n")
    code, out, _ = run(capsys, "gordan", matrix, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["branch"] == "strict_dual"


def test_interpolate(tmp_path, capsys):
    problem = write(tmp_path, "i.txt", "assume p -> q\nassume q -> r\n")
    code, out, _ = run(
        capsys, "interpolate", problem, "--logic", "A", "--vars", "p,r",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["interpolant"] == ["p -> r"]
    # interpolation runs no bounded search, so it takes no --budget
    code, out, _ = run(
        capsys, "interpolate", problem, "--logic", "A", "--vars", "p,r", "--budget", "4",
    )
    assert (code, out) == (3, "")


def test_density_command(capsys):
    code, out, _ = run(
        capsys, "density", "--logic", "A", "--phi", "q", "--psi", "q",
        "--fresh", "p", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["output"]["disjuncts"] == ["q -> q"]
    assert payload["output"]["lambdas"] == [1]


def test_density_refuses_rmt(capsys):
    code, _, err = run(
        capsys, "density", "--logic", "RMt", "--phi", "q", "--psi", "q"
    )
    assert code == 3
    assert "1 -> 0" in err


def test_check_toa(capsys):
    code, out, _ = run(capsys, "check-toa", "--logic", "A", "--n-max", "3")
    assert code == 0
    assert out.count("proved") == 3
    for n_max in ("0", "-1"):  # no entries must not read as all proved
        code, out, err = run(capsys, "check-toa", "--logic", "BIULm", "--n-max", n_max)
        assert code == 3 and out == "" and "n_max" in err
    for witness in ("5:0:1", "0:1:1"):  # a witness no entry would check
        code, out, err = run(
            capsys, "check-toa", "--logic", "BIULm", "--n-max", "2", "--witness", witness
        )
        assert code == 3 and out == "" and "outside 1..2" in err, err
    # a refuted entry shows its countermodel, in text and in JSON
    args = ("check-toa", "--logic", "A", "--n-max", "2", "--witness", "2:0:1")
    code, out, _ = run(capsys, *args)
    assert code == 1 and "n=2 (k=0, m=1): refuted\n  countermodel: chain Z, valuation p=-1" in out
    code, out, _ = run(capsys, *args, "--format", "json")
    entries = json.loads(out)["entries"]
    assert [e["countermodel"] for e in entries] == [None, {"chain": "Z", "valuation": {"p": -1}}]


def test_check_toa_refuses_bad_arguments_before_any_entry(capsys):
    cases = {
        "2:1": "n:k:m",  # two fields
        "1:x:2": "n:k:m",  # not an integer
        "1:2:3:4": "n:k:m",  # four fields
        "2:-1:1": "k in 0..",
        "2:1:0": "m in 1..",
        "2:1:70000": "m in 1..65536",
        "2:70000:1": "k in 0..65536",
    }
    for witness, message in cases.items():
        code, out, err = run(capsys, "check-toa", "--logic", "A", "--witness", witness)
        assert (code, out) == (3, "") and message in err, (witness, err)
    # a repeated n kept only its last witness
    code, out, err = run(
        capsys, "check-toa", "--logic", "A", "--witness", "2:1:1", "--witness", "2:0:1"
    )
    assert (code, out) == (3, "") and "n=2 twice" in err, err
    # an entry past the largest repetition could only end in an error, and
    # one past the cap on n_max would run for long
    for n_max in ("70000", str(N_MAX_CAP + 1)):
        code, out, err = run(capsys, "check-toa", "--logic", "A", "--n-max", n_max)
        assert (code, out) == (3, "") and f"n_max must lie in 1..{N_MAX_CAP}" in err, err


def test_logic_without_alternatives(tmp_path, capsys):
    # MLL decides no consequence, but its one-target questions, by derivation
    problem = write(tmp_path, "mll.txt", "logic MLL\nprove p -> p\n")
    code, out, err = run(capsys, "prove", problem)
    assert code == 3 and out == "" and "MLL has no theorem of alternatives" in err
    code, out, _ = run(capsys, "check-toa", "--logic", "MLL", "--n-max", "2")
    assert code == 2
    assert out.splitlines() == ["n=1 (k=1, m=1): proved", "n=2 (k=1, m=1): unknown"]


def test_check_toa_raises_the_family_bound_under_any_budget(capsys):
    # the targets for n = 9 and 10 are the members balance_up_9 and _10,
    # past the instance stream's family bound 8: the axiom matcher reads a
    # member's n off the target, under the default budget and any other
    for extra in ((), ("--budget", "2")):
        code, out, _ = run(capsys, "check-toa", "--logic", "BIULm", "--n-max", "10", *extra)
        assert code == 0, out
        assert out.count(": proved") == 10


def test_prove_past_the_level_search_variable_cap_exits_3(tmp_path, capsys):
    # 14 variables: the level search would take minutes, so it refuses
    goal = " | ".join([f"(p -> q{i})" for i in range(12)] + ["r", "~r"])
    problem = write(tmp_path, "wide.txt", f"logic RMt\nprove {goal}\n")
    code, out, err = run(capsys, "prove", problem)
    assert (code, out) == (3, "") and "14 variables" in err, err


def test_density_refuses_a_fresh_name_that_is_not_a_variable(capsys):
    for fresh in ("", "1", "P", "x y"):
        code, out, err = run(
            capsys, "density", "--logic", "A", "--phi", "q", "--psi", "q", "--fresh", fresh
        )
        assert (code, out) == (3, ""), fresh
        assert "is not a variable name" in err, err


def test_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "prove", "/definitely/not/a/file")
    assert code == 3 and "error:" in err
    problem = write(tmp_path, "bad.txt", "prove p\nprove q\n")
    code, _, err = run(capsys, "prove", problem, "--logic", "A")
    assert code == 3
    problem = write(tmp_path, "nologic.txt", "prove p\n")
    code, _, err = run(capsys, "prove", problem)
    assert code == 3
    code, _, _ = run(capsys, "nonsense")
    assert code == 3


def test_unknown_logic_is_input_error(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", "prove p\n")
    code, _, err = run(capsys, "prove", problem, "--logic", "nosuch")
    assert code == 3 and "unknown logic" in err


def test_output_deterministic(tmp_path, capsys):
    problem = write(
        tmp_path, "p.txt",
        "logic A\nassume (p -> q) | (q -> r)\nprove (p -> r) | (r -> p) | (q -> q)\n",
    )
    first = run(capsys, "prove", problem, "--format", "json")
    second = run(capsys, "prove", problem, "--format", "json")
    assert first == second


def test_chain_bound_flag(tmp_path, capsys):
    # the decision chains are complete at their one width, so there is no
    # option to widen them: the flag is a usage error, never a verdict
    problem = write(tmp_path, "p.txt", "logic IUMLm\nassume p * r\nprove p\n")
    code, out, _ = run(capsys, "prove", problem)
    assert code == 1 and "sugihara_odd_3" in out  # half-width k+1 at k=2
    code, out, err = run(capsys, "prove", problem, "--chain-bound", "1")
    assert (code, out) == (3, "")
    assert "unrecognized arguments: --chain-bound 1" in err, err


def test_negative_chain_bound_is_an_error_not_a_verdict(tmp_path, capsys):
    # narrower chains lose completeness: a negative bound once turned this
    # refutable consequence into "proved"; any bound is now a usage error
    problem = write(tmp_path, "p.txt", "logic IUMLm\nassume p * r\nprove p\n")
    code, out, _ = run(capsys, "prove", problem)
    assert code == 1
    for bound in ("-1", "-2", "-3"):
        code, out, err = run(capsys, "prove", problem, "--chain-bound", bound)
        assert (code, out) == (3, ""), bound
        assert "unrecognized arguments: --chain-bound" in err, err


def test_derivation_serialization_format(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", "logic BIULm\nprove (p + p) -> p^2\n")
    code, out, _ = run(capsys, "prove", problem)
    assert code == 0
    assert "1 | p + p -> p * p | axiom balance_up_2" in out


def test_problem_file_comments(tmp_path, capsys):
    problem = write(
        tmp_path, "p.txt",
        "# a commented problem\nlogic A  # with trailing comments\nprove p -> p\n",
    )
    code, _, _ = run(capsys, "prove", problem)
    assert code == 0


def test_bad_directive_logic_is_input_error(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", "logic bogus\nprove p -> p\n")
    code, _, err = run(capsys, "prove", problem)
    assert code == 3 and "unknown logic" in err


def test_interpolate_lists_a_repeated_variable_once(tmp_path, capsys):
    problem = write(tmp_path, "i.txt", "assume p -> q\nassume q -> r\n")
    code, out, _ = run(capsys, "interpolate", problem, "--logic", "A", "--vars", "p,p")
    assert code == 0 and out.splitlines()[0] == "interpolant over {p}:", out
    args = ("interpolate", problem, "--logic", "A", "--vars", "r,p,r", "--format", "json")
    code, out, _ = run(capsys, *args)
    assert code == 0 and json.loads(out)["vars"] == ["p", "r"], out


def test_interpolate_bad_vars_is_input_error(tmp_path, capsys):
    problem = write(tmp_path, "i.txt", "assume p -> q\n")
    code, _, err = run(capsys, "interpolate", problem, "--logic", "A", "--vars", "z")
    assert code == 3


def test_density_rejects_lattice_input(capsys):
    code, _, err = run(
        capsys, "density", "--logic", "A", "--phi", "q | q", "--psi", "q"
    )
    assert code == 3


def run_child(tmp_path, problem_text, *argv, hash_seed="0"):
    """The CLI in a fresh interpreter, as a user runs it, at the default
    recursion limit."""
    problem = write(tmp_path, "problem.txt", problem_text)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "gordian.cli", "prove", problem, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_deep_formula_verdicts_and_errors(tmp_path):
    # 800 to 10,000 levels deep, decided at the default recursion limit:
    # p = 1 refutes them in Z, and the mingle logics prove them
    verdicts = {"A": (1, "refuted"), "BIULm": (1, "refuted"), "RMt": (0, "proved"), "IUMLm": (0, "proved")}
    cases = [("A", c) for c in ("400*p -> p", "p^600 -> p", "2000*p -> p", "p^4000 -> p")]
    cases += [(logic, c) for logic in verdicts for c in ("p^5000 -> p", "2500*p -> p")]
    for logic, conclusion in cases:
        expected, status = verdicts[logic]
        problem = f"logic {logic}\nprove {conclusion}\n"
        code, out, err = run_child(tmp_path, problem, "--format", "json")
        assert code == expected, (logic, conclusion, err)
        payload = json.loads(out)
        assert payload["status"] == status
        if status == "refuted":
            assert payload["countermodel"] == {"chain": "Z", "valuation": {"p": 1}}
        code, out, _ = run_child(tmp_path, problem)
        assert code == expected and out.startswith(f"{status} ({logic})"), (logic, conclusion)
    # a malformed deep formula is an input error, never a verdict
    code, out, err = run_child(tmp_path, "logic A\nprove " + "(" * 5000 + "p\n")
    assert (code, out) == (3, "") and err.startswith("error: line 2: expected ')'"), err


def test_prove_refuses_formulas_that_print_past_the_cap(tmp_path, capsys, monkeypatch):
    # 20 characters that print as 7.2e9 nodes: refused before deciding,
    # in a fresh interpreter, where printing the answer would not end
    code, out, err = run_child(tmp_path, "logic A\nprove (p^60000)^60000 -> p\n")
    assert (code, out) == (3, "") and "past the cap" in err, err
    # the cap is inclusive, and it covers the hypotheses too
    monkeypatch.setattr(cli, "PRINT_SIZE_CAP", 7)
    problem = write(tmp_path, "small.txt", "logic A\nprove p^3 -> p\n")
    assert run(capsys, "prove", problem)[0] == 1
    for text in ("logic A\nprove p^4 -> p\n", "logic A\nassume p^4 -> p\nprove p\n"):
        problem = write(tmp_path, "over.txt", text)
        code, out, err = run(capsys, "prove", problem)
        assert (code, out) == (3, "") and "has 9 nodes" in err, err


def test_output_does_not_depend_on_hash_seed(tmp_path):
    problems = [
        "logic A\nassume (p -> q) | (q -> r)\nprove (p -> r) | (r -> p) | (q -> q)\n",
        "logic RMt\nassume p & q\nprove (p -> q) | (q * r) | ~p\n",
        "logic IUMLm\nassume p * r\nprove p | (r -> p)\n",
        "logic BIULm\nprove (p + p) -> p^2\n",
    ]
    for text in problems:
        outputs = {run_child(tmp_path, text, "--format", "json", hash_seed=seed) for seed in "01"}
        assert len(outputs) == 1, text
        assert outputs.pop()[1].startswith("{"), text


def test_import_leaves_out_dataclasses_and_inspect():
    # every gordian process pays its import; these two modules (and what
    # they pull in) took about a third of it.  -S keeps out whatever the
    # interpreter's site packages import on their own.
    child = "import sys, gordian.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_nonpositive_budget_is_an_error_not_a_verdict(tmp_path, capsys):
    # a weight-sum cap below 1 tries no weights, so a theorem came out
    # unknown; in A it was ignored, and check-toa ran on
    for logic in ("BIULm", "A", "RMt"):
        problem = write(tmp_path, "p.txt", f"logic {logic}\nprove p -> p\n")
        code, out, _ = run(capsys, "prove", problem, "--budget", "1")
        assert code == 0, logic
        for budget in ("0", "-1", "-3"):
            code, out, err = run(capsys, "prove", problem, "--budget", budget)
            assert (code, out) == (3, ""), (logic, budget)
            assert err.startswith("error: weight-sum cap must be at least 1"), err
    for budget in ("0", "-1"):
        code, out, err = run(capsys, "check-toa", "--logic", "BIULm", "--budget", budget)
        assert (code, out) == (3, ""), budget
        assert err.startswith("error: weight-sum cap must be at least 1"), err


def test_internal_error_is_exit_three(tmp_path, capsys, monkeypatch):
    def crash(args):
        print("proved")
        raise KeyError("boom")

    monkeypatch.setattr(cli, "_cmd_prove", crash)
    problem = write(tmp_path, "p.txt", "logic A\nprove p -> p\n")
    code, out, err = run(capsys, "prove", problem)
    assert code == 3 and out == ""
    assert "internal error: KeyError" in err


def test_abelian_weight_past_the_repetition_cap_is_checked(tmp_path, capsys):
    # 90000 p >= 0 gives p >= 0: the weight lies past syntax.MAX_REPEAT, so
    # the check reads the weighted sum's linear reading, never the formula
    # 90000*p, which no formula may hold
    hyp, concl = parse("(p^300)^300"), parse("p")
    verdict = prove_consequence("A", [hyp], concl)
    assert verdict.status == "proved"
    assert [r.certificate.lambdas for r in verdict.results] == [(90000,)]
    assert decide("A", [hyp], concl).certificate.witness.scale == 90000
    problem = write(tmp_path, "weight.txt", "logic A\nassume (p^300)^300\nprove p\n")
    code, out, _ = run(capsys, "prove", problem)
    assert code == 0 and out.startswith("proved (A)")


def test_parse_errors_name_their_line(tmp_path, capsys):
    # an empty formula on an assume or prove line: the error names the line
    # as it does for a second prove line
    for text, lineno in [
        ("logic A\nassume\nprove p\n", 2),
        ("logic A\n\nassume p\nprove p ->\n", 4),
    ]:
        problem = write(tmp_path, "p.txt", text)
        code, out, err = run(capsys, "prove", problem)
        assert code == 3 and out == ""
        assert err.startswith(f"error: line {lineno}: unexpected 'end of input'"), err


def test_interpolate_past_the_row_cap_exits_three(tmp_path, capsys):
    body = "logic A\n" + "".join(f"assume {h}\n" for h in fusion_chain_hypotheses())
    code, out, err = run(capsys, "interpolate", write(tmp_path, "fm.txt", body), "--vars", "x0,x1")
    assert code == 3 and out == "" and "more than 4096 rows" in err
