"""Builtin problem registry, problem files and the command-line interface."""

import json
import os

import numpy as np
import pytest

from quadrel.cli import main
from quadrel.errors import DomainError, ProblemFormatError, UnsupportedDesignError
from quadrel.problem_io import build_problem, load_document, result_to_dict
from quadrel.problems import (
    BENCH_3G,
    bench_3g,
    bench_quad4,
    builtin_problems,
    crashworthiness,
    ellipse_form,
    load_crash_coefficients,
)
from quadrel.solver import build_surrogates, rssl_solve
from quadrel.variables import std_normal, std_normal_inv

DATA = os.path.join(os.path.dirname(__file__), "data")
CRASH_CSV = os.path.join(DATA, "crash_coefficients.csv")


def ellipse_doc():
    """A complete problem document used by the file-based tests: demo-ellipse,
    whose flat quadratic lists the upper triangle of A (a12 = 1/40)."""
    flat = [31.0 / 30.0, -8.0 / 15.0, -2.0 / 15.0,
            1.0 / 24.0, 1.0 / 40.0, 1.0 / 24.0]
    return {
        "variables": [
            {"name": "x1", "kind": "normal", "role": "design-variable", "mean": 2.0,
             "std": 0.3, "lower": 0.0, "upper": 15.0},
            {"name": "p1", "kind": "normal", "role": "parameter", "mean": 3.4,
             "std": 0.3},
        ],
        "objective": {"builtin": "sum"},
        "constraints": [{"name": "g", "quadratic": flat}],
        "targets": {"beta_d": 3.0},
    }


def box_doc(n, scheme):
    """n normal design variables and one black-box constraint; ``scheme``
    (None = absent) goes into the ``doe`` section."""
    doc = {
        "variables": [
            {"name": f"x{i+1}", "kind": "normal", "role": "design-variable",
             "mean": 5.0, "std": 0.3, "lower": 0.0, "upper": 10.0}
            for i in range(n)
        ],
        "objective": {"builtin": "sum"},
        "constraints": [{"expression": " + ".join(f"x{i+1}**2" for i in range(n)) + " - 9"}],
        "targets": {"beta_d": 3.0},
    }
    if scheme is not None:
        doc["doe"] = {"scheme": scheme}
    return doc


def bench_3g_doc():
    """bench-3g as a problem file: what ``problems.bench_3g()`` builds."""
    return {
        "variables": [
            {"name": f"x{i}", "kind": "normal", "role": "design-variable", "mean": 5.0,
             "std": 0.3, "lower": 0.0, "upper": 10.0}
            for i in (1, 2)
        ],
        "objective": {"builtin": "sum"},
        "constraints": [{"name": f"g{i+1}", "expression": e} for i, e in enumerate(BENCH_3G)],
        "targets": {"beta_d": 3.0},
        "shared_evaluations": True,
    }


# the hand-written limit states the bench-3g and bench-quad4 expressions replace
def _g3_1(z):
    return z[:, 0] ** 2 * z[:, 1] / 20.0 - 1.0


def _g3_2(z):
    return (z[:, 0] + z[:, 1] - 5.0) ** 2 / 30.0 + (z[:, 0] - z[:, 1] - 12.0) ** 2 / 120.0 - 1.0


def _g3_3(z):
    return 80.0 / (z[:, 0] ** 2 + 8.0 * z[:, 1] + 5.0) - 1.0


def _q4_1(z):
    return -(z[:, 0] ** 2 + 2.0 * z[:, 0] + z[:, 1] ** 2
             + 0.5 * z[:, 0] * z[:, 1] - 13.0)


def _q4_2(z):
    return -(-z[:, 0] ** 2 - z[:, 1] ** 2 - z[:, 2] ** 2 - z[:, 3] ** 2
             + 10.0 * z[:, 0] + 12.0 * z[:, 1] + 12.0 * z[:, 2] + 12.0 * z[:, 3] - 43.0)


# an unknown name in a nested code object: each loads, then fails on evaluation,
# unless the check walks the nested code
NESTED_NAMES = ["x1 + [nonsense for _ in (1,)][0]", "x1 + (lambda: __import__)()"]


def write_document(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def solved_file_and_builtin(doc, name, tmp_path, *flags):
    """The result JSON of ``quadrel solve`` on ``doc`` as a file and on the
    builtin ``name``, each without ``message`` and ``wall_time_s``."""
    path = tmp_path / "problem.json"
    write_document(doc, path)
    results = []
    for source, out in ((str(path), tmp_path / "file.json"), (name, tmp_path / "builtin.json")):
        assert main(["solve", source, *flags, "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        del res["message"], res["wall_time_s"]
        results.append(res)
    return results


class TestRegistry:
    def test_expected_names(self):
        names = set(builtin_problems())
        assert {"bench-3g", "bench-quad4", "demo-ellipse", "demo-ellipse-varstd",
                "demo-ellipse-lognormal", "demo-ellipse-det",
                "crashworthiness"} <= names

    def test_builders_return_problems(self):
        for name, builder in builtin_problems().items():
            if name == "crashworthiness":
                continue
            problem = builder()
            assert problem.constraints and problem.design_indices


class TestSignConventions:
    def test_quad4_safe_at_origin(self):
        # the second limit state is published with a Prob[g > 0] bound and
        # negated at load: the origin must read +43 (safe) internally
        problem = builtin_problems()["bench-quad4"]()
        z = np.zeros((1, 4))
        assert problem.constraints[1].evaluate(z)[0] == pytest.approx(43.0)
        assert problem.constraints[0].evaluate(z)[0] == pytest.approx(13.0)

    def test_ellipse_value_at_reference_point(self):
        assert ellipse_form()(np.array([5.0, 3.4])) == pytest.approx(0.2867, abs=1e-4)

    @pytest.mark.parametrize("builder,references,mean", [
        (bench_3g, [_g3_1, _g3_2, _g3_3], 5.0),
        (bench_quad4, [_q4_1, _q4_2], 1.0),
    ], ids=["bench-3g", "bench-quad4"])
    def test_expressions_equal_hand_written_limit_states(self, builder, references, mean):
        # the builtin's expressions do the hand-written functions' operations in
        # their order: equal bit for bit on a batch of one Monte Carlo chunk
        problem = builder()
        z = np.random.default_rng(7).normal(mean, 2.0, (16_384, len(problem.variables)))
        for spec, ref in zip(problem.constraints, references, strict=True):
            assert spec.evaluate(z).tobytes() == ref(z).tobytes()

    def test_bench_3g_deterministic_objective(self):
        problem = builtin_problems()["bench-3g"]()
        assert problem.objective(np.array([3.11, 2.06])) == pytest.approx(5.176, abs=1e-2)


class TestCrashworthiness:
    def test_requires_coefficient_file(self):
        with pytest.raises(DomainError):
            crashworthiness()

    def test_loads_shipped_synthetic_file(self):
        obj, forms = load_crash_coefficients(CRASH_CSV)
        assert len(forms) == 10
        assert np.all(obj.a == 0.0)
        problem = crashworthiness(CRASH_CSV)
        assert len(problem.variables) == 11
        assert len(problem.design_indices) == 7
        assert problem.shared_evaluations

    def test_solves_end_to_end(self):
        problem = crashworthiness(CRASH_CSV)
        result = rssl_solve(problem)
        assert result.success
        assert result.doe_evals == 0
        lo = np.array([b[0] for b in problem.bounds])
        hi = np.array([b[1] for b in problem.bounds])
        assert np.all(result.mu_opt >= lo - 1e-9) and np.all(result.mu_opt <= hi + 1e-9)

    def test_malformed_rows(self, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("name,c\nobjective,1.0,2.0\n")
        with pytest.raises(ProblemFormatError):
            load_crash_coefficients(short)

    @pytest.mark.parametrize("cell", ["abc", "nan"])
    def test_non_finite_cell(self, cell, tmp_path):
        with open(CRASH_CSV) as fh:
            lines = fh.read().splitlines()
        name, *coeffs = lines[3].split(",")
        coeffs[5] = cell
        lines[3] = ",".join([name, *coeffs])
        path = tmp_path / "cell.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProblemFormatError) as err:
            load_crash_coefficients(path)
        assert err.value.path == "line 4"

    def test_missing_objective_row(self, tmp_path):
        n_flat = 78
        path = tmp_path / "noobj.csv"
        row = ",".join(["0.0"] * n_flat)
        lines = ["name," + ",".join(f"c{k}" for k in range(n_flat))]
        lines += [f"g{i}," + row for i in range(10)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProblemFormatError) as err:
            load_crash_coefficients(path)
        assert "objective" in str(err.value)

    def test_nonlinear_objective_rejected(self, tmp_path):
        n_flat = 78
        path = tmp_path / "nonlin.csv"
        coeffs = ["0.0"] * n_flat
        coeffs[12] = "1.0"  # first quadratic slot
        zero = ",".join(["1.0"] * n_flat)
        lines = ["name," + ",".join(f"c{k}" for k in range(n_flat)),
                 "objective," + ",".join(coeffs)]
        lines += [f"g{i}," + zero for i in range(10)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProblemFormatError):
            load_crash_coefficients(path)


class TestProblemDocuments:
    def test_round_trip_identity(self, tmp_path):
        # a document read back from its file builds the same problem
        doc = ellipse_doc()
        path = tmp_path / "ellipse.json"
        write_document(doc, path)
        loaded = load_document(path)
        assert loaded == doc
        a = build_problem(doc)
        b = build_problem(loaded)
        z = np.array([[4.0, 3.0]])
        assert a.constraints[0].evaluate(z)[0] == b.constraints[0].evaluate(z)[0]
        assert a.objective(np.array([4.0])) == b.objective(np.array([4.0]))

    def test_expression_constraint(self):
        doc = ellipse_doc()
        doc["constraints"] = [{"expression": "x1**2 * p1 / 20 - 1"}]
        problem = build_problem(doc)
        assert problem.constraints[0].name == "g1"
        z = np.array([[4.0, 2.0]])
        assert problem.constraints[0].evaluate(z)[0] == pytest.approx(4.0 ** 2 * 2.0 / 20.0 - 1.0)

    def test_cv_shorthand(self):
        doc = ellipse_doc()
        doc["variables"][0] = {"name": "x1", "kind": "normal", "role": "design-variable",
                               "mean": 2.0, "cv": 0.15, "lower": 0.0, "upper": 15.0}
        problem = build_problem(doc)
        assert problem.variables[0].std == pytest.approx(0.3)

    @pytest.mark.parametrize("mutate,path", [
        (lambda d: d.pop("variables"), "variables"),
        (lambda d: d["variables"][0].update(kind="weird"), "variables[0].kind"),
        (lambda d: d["variables"][1].update(name="x1"), "variables[1].name"),
        (lambda d: d["variables"][0].update(value=1.0), "variables[0]"),
        (lambda d: d["variables"][0].update(cv=0.1), "variables[0]"),
        (lambda d: d["variables"][0].update(std=-1.0), "variables[0].std"),
        (lambda d: d.update(correlation=[[1.0]]), "correlation"),
        (lambda d: d["objective"].update(linear=[1.0]), "objective"),
        (lambda d: d["objective"].update(builtin="mean"), "objective.builtin"),
        (lambda d: d["constraints"][0].update(expression="x1"), "constraints[0]"),
        # an expression that names no variable has no value per point
        (lambda d: d["constraints"].append({"expression": "2.0"}), "constraints[1].expression"),
        (lambda d: d.update(objective={"expression": "pi - 3"}), "objective.expression"),
        pytest.param(lambda d: d.update(objective={"expression": 5}), "objective.expression",
                     id="expression-not-a-string"),
        # a variable may not take an expression's function or constant name, where it
        # would replace (or be replaced by) it in every expression, nor a keyword
        pytest.param(lambda d: d["variables"][0].update(name="pi"), "variables[0].name",
                     id="variable-named-pi"),
        pytest.param(lambda d: d["variables"][1].update(name="sqrt"), "variables[1].name",
                     id="variable-named-sqrt"),
        pytest.param(lambda d: d["variables"][0].update(name="None"), "variables[0].name",
                     id="variable-named-None"),
        pytest.param(lambda d: d["variables"][0].update(name="lambda"), "variables[0].name",
                     id="variable-named-lambda"),
        # a name inside a comprehension or lambda is checked like any other
        pytest.param(lambda d: d.update(constraints=[{"expression": NESTED_NAMES[0]}]),
                     "constraints[0].expression", id="comprehension-constraint"),
        pytest.param(lambda d: d.update(constraints=[{"expression": NESTED_NAMES[1]}]),
                     "constraints[0].expression", id="lambda-constraint"),
        pytest.param(lambda d: d.update(objective={"expression": NESTED_NAMES[0]}),
                     "objective.expression", id="comprehension-objective"),
        pytest.param(lambda d: d.update(objective={"expression": NESTED_NAMES[1]}),
                     "objective.expression", id="lambda-objective"),
        (lambda d: d["constraints"][0].update(quadratic=[1.0, 2.0]),
         "constraints[0].quadratic"),
        (lambda d: d.pop("targets"), "constraints[0]"),
        (lambda d: d["targets"].update(pf_all=0.01), "targets"),
        (lambda d: d.update(doe={"scheme": "latin"}), "doe.scheme"),
        (lambda d: d.update(doe={"halfwidth_overrides": {"zz": 1.0}}),
         "doe.halfwidth_overrides.zz"),
        # fields that must be JSON numbers (or booleans), not strings or true
        pytest.param(lambda d: d["constraints"][0]["quadratic"].__setitem__(0, "x"),
                     "constraints[0].quadratic", id="quadratic-string"),
        pytest.param(lambda d: d.update(correlation=[[1.0, "a"], ["a", 1.0]]),
                     "correlation", id="correlation-string"),
        pytest.param(lambda d: d.update(objective={"linear": ["a"]}),
                     "objective.linear", id="linear-string"),
        pytest.param(lambda d: d.update(solver={"proportional_t": ["a"]}),
                     "solver.proportional_t", id="proportional-t-string"),
        pytest.param(lambda d: d.update(solver={"proportional_t": [0.1, 0.1]}),
                     "solver.proportional_t", id="proportional-t-length"),
        pytest.param(lambda d: d.update(objective={"linear": [1.0], "constant": "1"}),
                     "objective.constant", id="constant-string"),
        pytest.param(lambda d: d.update(doe={"c_r_design": "1"}),
                     "doe.c_r_design", id="c-r-design-string"),
        pytest.param(lambda d: d.update(doe={"c_r_parameter": "1"}),
                     "doe.c_r_parameter", id="c-r-parameter-string"),
        pytest.param(lambda d: d.update(doe={"halfwidth_overrides": {"x1": "1"}}),
                     "doe.halfwidth_overrides.x1", id="halfwidth-string"),
        pytest.param(lambda d: d.update(shared_evaluations="no"),
                     "shared_evaluations", id="shared-evaluations-string"),
        pytest.param(lambda d: d.update(targets={"beta_d": "3"}),
                     "targets.beta_d", id="beta-d-string"),
        pytest.param(lambda d: d.update(doe={"c_r_design": True}),
                     "doe.c_r_design", id="c-r-design-bool"),
        pytest.param(lambda d: d.update(targets={"beta_d": float("nan")}),
                     "targets.beta_d", id="beta-d-nan"),
        # range checks, each at its own field
        pytest.param(lambda d: d.update(doe={"c_r_design": -1}),
                     "doe.c_r_design", id="c-r-design-negative"),
        pytest.param(lambda d: d.update(doe={"c_r_parameter": 0}),
                     "doe.c_r_parameter", id="c-r-parameter-zero"),
        pytest.param(lambda d: d.update(doe={"halfwidth_overrides": {"x1": -0.5}}),
                     "doe.halfwidth_overrides.x1", id="halfwidth-negative"),
        pytest.param(lambda d: d.update(targets={"pf_all": 2.0}),
                     "targets.pf_all", id="pf-all-above-one"),
        pytest.param(lambda d: d.update(targets={"pf_all": 0.5}),
                     "targets.pf_all", id="pf-all-half"),
        pytest.param(lambda d: d.update(targets={"beta_d": 0},
                                        constraints=[{"expression": "x1 - p1"}]),
                     "targets.beta_d", id="beta-d-zero-black-box"),
        pytest.param(lambda d: d.update(targets={"beta_d": -1}),
                     "targets.beta_d", id="beta-d-negative-quadratic"),
        pytest.param(lambda d: d["constraints"][0].update(pf_all=0.0),
                     "constraints[0].pf_all", id="constraint-pf-all-zero"),
        # a key outside an object's documented fields, at its own path
        pytest.param(lambda d: d["variables"][0].update(sd=d["variables"][0].pop("std")),
                     "variables[0].sd", id="unknown-variable-sd"),
        pytest.param(lambda d: d.update(solvr={"proportional_t": [0.1]}),
                     "solvr", id="unknown-top-level"),
        pytest.param(lambda d: d.update(doe={"c_r_desgn": 1.4}),
                     "doe.c_r_desgn", id="unknown-doe"),
        pytest.param(lambda d: d.update(solver={"t": [0.1]}),
                     "solver.t", id="unknown-solver"),
        pytest.param(lambda d: d.update(targets={"beta": 3.0}),
                     "targets.beta", id="unknown-targets"),
        pytest.param(lambda d: d["constraints"][0].update(beta=3.0),
                     "constraints[0].beta", id="unknown-constraint"),
        pytest.param(lambda d: d.update(objective={"linear": [1.0], "const": 1.0}),
                     "objective.const", id="unknown-objective"),
        pytest.param(lambda d: d["objective"].update(constant=1.0),
                     "objective.constant", id="constant-without-linear"),
    ])
    def test_validation_reports_json_path(self, mutate, path):
        doc = ellipse_doc()
        mutate(doc)
        with pytest.raises(ProblemFormatError) as err:
            build_problem(doc)
        assert err.value.path == path

    def test_unknown_expression_name(self):
        doc = ellipse_doc()
        doc["constraints"] = [{"expression": "x1 + nonsense"}]
        with pytest.raises(ProblemFormatError) as err:
            build_problem(doc)
        assert "nonsense" in str(err.value)

    def test_variables_resolve_in_nested_code(self):
        doc = ellipse_doc()
        doc["constraints"] = [{"expression": "x1 + [p1 for _ in (1,)][0] - (lambda t: t * x1)(2)"}]
        problem = build_problem(doc)
        assert problem.constraints[0].evaluate(np.array([[4.0, 3.0]]))[0] == 4.0 + 3.0 - 8.0

    @pytest.mark.parametrize("objective,mu,value", [
        ({"linear": [2.0, -3.0], "constant": 0.5}, [1.5, 4.0], 2.0 * 1.5 - 3.0 * 4.0 + 0.5),
        # flat [c, k1, k2, a11, a12, a22]: 1 + 2*2 - 1*(-1) + 0.5*4 + 2*0.25*2*(-1) + 3*1
        ({"quadratic": [1.0, 2.0, -1.0, 0.5, 0.25, 3.0]}, [2.0, -1.0], 10.0),
        ({"expression": "x1 * x2 + sqrt(x1)"}, [4.0, 3.0], 14.0),
    ], ids=["linear", "quadratic", "expression"])
    def test_objective_from_document(self, objective, mu, value):
        doc = box_doc(2, None)
        doc["objective"] = objective
        assert build_problem(doc).objective(np.array(mu)) == value

    def test_proportional_t_matches_builtin(self):
        # demo-ellipse-varstd as a document: std = t * mean, with solver.proportional_t
        doc = ellipse_doc()
        doc["variables"][0]["std"] = 0.1 * 2.0
        doc["solver"] = {"proportional_t": [0.1]}
        a = result_to_dict(rssl_solve(build_problem(doc)))
        b = result_to_dict(rssl_solve(builtin_problems()["demo-ellipse-varstd"]()))
        del a["message"], b["message"]
        assert a == b

    def test_objective_builtin_sum_of_squares(self):
        doc = ellipse_doc()
        doc["objective"] = {"builtin": "sum-of-squares"}
        problem = build_problem(doc)
        assert problem.objective(np.array([3.0])) == 9.0


class TestCli:
    def test_solve_builtin_ok(self, capsys):
        assert main(["solve", "demo-ellipse"]) == 0
        out = capsys.readouterr().out
        assert "mu_opt" in out and "pf_cf[g]" in out

    def test_solve_varstd_at_zero_std_bound(self, capsys):
        assert main(["solve", "demo-ellipse-varstd"]) == 0

    def test_solve_writes_result_json(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["solve", "demo-ellipse", "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["method"] == "rssl" and res["success"]
        assert len(res["mu_opt"]) == 1
        assert set(res["counters"]) == {"deterministic_g_evals", "gstar_evals",
                                        "objective_evals"}
        # reported beta and pf agree to machine precision
        for pf, beta in zip(res["pf_closed_form"], res["beta_closed_form"]):
            if 0.0 < pf < 1.0:
                assert abs(beta - (-std_normal_inv(pf))) <= 1e-12
                assert abs(std_normal(-beta)[1] - pf) <= 1e-12

    @pytest.mark.parametrize("method", ["rssl", "form-double-loop"])
    def test_result_json_is_strict_where_pf_is_zero(self, method, tmp_path, capsys):
        # demo-ellipse-varstd ends at pf = 0, where beta is infinite; RFC 8259
        # has no Infinity token, so the file writes beta as null
        out = tmp_path / "r.json"
        assert main(["solve", "demo-ellipse-varstd", "--method", method, "--mc-n", "1000",
                     "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        res = json.loads(out.read_text(), parse_constant=reject)
        assert res["pf_closed_form"] == [0.0] and res["beta_closed_form"] == [None]
        assert res["pf_mc"][0]["pf"] == 0.0 and res["pf_mc"][0]["beta_mc"] is None

    def test_solve_problem_file_matches_builtin(self, tmp_path, capsys):
        a, b = solved_file_and_builtin(ellipse_doc(), "demo-ellipse", tmp_path)
        assert a == b

    @pytest.mark.parametrize("method", ["rssl", "form-double-loop"])
    def test_solve_bench_3g_file_matches_builtin(self, method, tmp_path, capsys):
        # the black-box builtin: its expressions, objective and shared system as a file
        a, b = solved_file_and_builtin(bench_3g_doc(), "bench-3g", tmp_path,
                                       "--method", method, "--mc-n", "1000")
        assert a == b

    def test_expression_that_raises_is_input_error(self, tmp_path, capsys):
        # a conditional on a column asks numpy for the truth value of an array
        doc = ellipse_doc()
        doc["constraints"] = [{"expression": "x1 - 1 if x1 else p1"}]
        path = tmp_path / "raises.json"
        write_document(doc, path)
        assert main(["solve", str(path)]) == 2
        assert "(at constraints[0].expression)" in capsys.readouterr().err

    def test_beta_override(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["solve", "demo-ellipse", "--beta", "2.0", "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["success"]

    @pytest.mark.parametrize("flag,value", [("--beta", "-1"), ("--beta", "0"), ("--pf", "0"),
                                            ("--pf", "0.6"), ("--pf", "1.5")])
    @pytest.mark.parametrize("source", ["demo-ellipse", "bench-3g", "file"])
    def test_target_flag_out_of_range_is_input_error(self, source, flag, value, tmp_path,
                                                     capsys):
        # the range targets.* has in a problem file holds for the flags on every source
        if source == "file":
            source = str(tmp_path / "ellipse.json")
            write_document(ellipse_doc(), source)
        assert main(["solve", source, flag, value]) == 2
        assert f"(at {flag})" in capsys.readouterr().err

    def test_pf_flag_on_builtin_sets_pf_target(self, tmp_path, capsys):
        pf = std_normal(-3.0)[1]
        out_pf = tmp_path / "pf.json"
        out_beta = tmp_path / "beta.json"
        assert main(["solve", "demo-ellipse", "--pf", repr(pf), "--out", str(out_pf)]) == 0
        assert main(["solve", "demo-ellipse", "--beta", "3", "--out", str(out_beta)]) == 0
        a = json.loads(out_pf.read_text())
        b = json.loads(out_beta.read_text())
        assert a["mu_opt"] == pytest.approx(b["mu_opt"], abs=1e-8)

    @pytest.mark.parametrize("flag,value", [("--beta", "3.0"),
                                            ("--pf", repr(std_normal(-3.0)[1]))])
    def test_target_override_on_document_without_targets(self, flag, value, tmp_path,
                                                          capsys):
        doc = ellipse_doc()
        del doc["targets"]
        path = tmp_path / "notargets.json"
        path.write_text(json.dumps(doc))
        out_file = tmp_path / "file.json"
        out_builtin = tmp_path / "builtin.json"
        assert main(["solve", str(path), flag, value, "--out", str(out_file)]) == 0
        assert main(["solve", "demo-ellipse", "--out", str(out_builtin)]) == 0
        a = json.loads(out_file.read_text())
        b = json.loads(out_builtin.read_text())
        assert a["mu_opt"] == pytest.approx(b["mu_opt"], abs=1e-8)

    def test_pf_subcommand(self, capsys):
        assert main(["pf", "demo-ellipse", "--at", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "q0" in out and "branch" in out

    def test_pf_subcommand_mixed_signs(self, capsys):
        # crashworthiness g01 at the design start is a saddle: no h or q0 line
        assert main(["pf", "crashworthiness", "--coeff-file", CRASH_CSV, "--index", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "branch            mixed-signs" in lines
        assert "pf                0.0137673" in lines
        assert not any(line.startswith(("h ", "q0 ")) for line in lines)

    def test_pf_blackbox_rejected(self, capsys):
        assert main(["pf", "bench-3g"]) == 2
        assert "black-box" in capsys.readouterr().err

    def test_mc_check(self, capsys):
        assert main(["mc-check", "demo-ellipse", "--mc-n", "100000",
                     "--at", "4.85", "--seed", "3"]) == 0
        assert "pf_mc[g]" in capsys.readouterr().out

    def test_mc_check_that_fails_prints_nothing(self, tmp_path, capsys):
        # an audit that fails is exit 2 with stdout empty, as a flag error is
        doc = {"variables": [{"name": "x1", "kind": "normal", "role": "design-variable",
                              "mean": 5.0, "std": 0.3, "lower": 0.0, "upper": 10.0}],
               "objective": {"builtin": "sum"},
               "constraints": [{"name": "g_log", "expression": "log(x1 - 4.5)"}],
               "targets": {"beta_d": 3.0}}
        path = tmp_path / "nan.json"
        write_document(doc, path)
        with np.errstate(invalid="ignore"):
            assert main(["mc-check", str(path), "--at", "5.0", "--mc-n", "100000"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "g_log: g is NaN" in err

    def test_negative_seed_is_input_error(self, capsys):
        assert main(["mc-check", "demo-ellipse", "--seed", "-1", "--mc-n", "1000"]) == 2
        assert "seed >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["solve", "bench-3g"], ["pf", "demo-ellipse"], ["mc-check", "demo-ellipse"],
        ["doe", "demo-ellipse", "--out", "plan.csv"], ["bench", "bench-3g"],
        ["compare", "demo-ellipse"],
    ], ids=lambda c: c[0])
    def test_negative_seed_rejected_before_any_work(self, command, monkeypatch, capsys):
        monkeypatch.setattr("quadrel.cli._load_problem", self._no_work)
        assert main(command + ["--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "(at --seed)" in err

    @pytest.mark.parametrize("command,value", [
        (["solve", "bench-3g"], "10"), (["solve", "demo-ellipse"], "-5"),
        (["mc-check", "demo-ellipse"], "999"), (["mc-check", "demo-ellipse"], "0"),
        (["bench", "bench-3g"], "-1"), (["compare", "demo-ellipse"], "1"),
    ], ids=lambda c: c if isinstance(c, str) else c[0])
    def test_mc_n_rejected_before_any_work(self, command, value, monkeypatch, capsys):
        # below mc_pf's 1000 samples, and negative: 0 means no audit but on mc-check
        monkeypatch.setattr("quadrel.cli._load_problem", self._no_work)
        assert main(command + ["--mc-n", value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "(at --mc-n)" in err

    @staticmethod
    def _no_work(args):
        raise AssertionError("the command ran before its flags were checked")

    @pytest.mark.parametrize("source,rows,scheme", [
        ("bench-3g", 9, "inscribed-ccd2"),
        ((2, None), 9, "inscribed-ccd2"),
        ((2, "inscribed-ccd2"), 9, "inscribed-ccd2"),
        ((2, "ccd"), 9, "ccd"),
        ((2, "bbd"), None, None),
        ((3, None), 13, "bbd"),
        ((3, "bbd"), 13, "bbd"),
        ((3, "ccd"), 15, "ccd"),
        ((3, "inscribed-ccd2"), None, None),
    ], ids=["bench-3g", "n2-default", "n2-inscribed-ccd2", "n2-ccd", "n2-bbd",
            "n3-default", "n3-bbd", "n3-ccd", "n3-inscribed-ccd2"])
    def test_doe_csv(self, source, rows, scheme, tmp_path, capsys):
        # 'quadrel doe' writes exactly the plan build_surrogates fits at the
        # same point; rows None marks a scheme undefined for that n
        if isinstance(source, str):
            name, problem = source, builtin_problems()[source]()
        else:
            doc = box_doc(*source)
            name = str(tmp_path / "doc.json")
            write_document(doc, name)
            problem = build_problem(doc)
        out = tmp_path / "plan.csv"
        code = main(["doe", name, "--out", str(out)])
        mu = problem.design_start()
        beta_d = max(s.beta_target for s in problem.constraints)
        if rows is None:
            assert code == 2
            with pytest.raises(UnsupportedDesignError):
                build_surrogates(problem, mu, beta_d)
            return
        assert code == 0
        assert f"wrote {rows} {scheme} points" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(v.name for v in problem.variables)
        _, fitted = build_surrogates(problem, mu, beta_d)
        assert fitted.scheme.value == scheme
        written = np.loadtxt(out, delimiter=",", skiprows=1)
        assert written.shape == (rows, len(problem.variables))
        assert np.array_equal(written, fitted.points)

    def test_doe_scheme_option(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        assert main(["doe", "bench-3g", "--scheme", "ccd", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 9

    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        assert "demo-ellipse" in capsys.readouterr().out

    def test_bench_problem(self, capsys):
        assert main(["bench", "demo-ellipse", "--mc-n", "1000"]) == 0
        assert "method            rssl" in capsys.readouterr().out.splitlines()

    def test_bench_without_problem_is_input_error(self, capsys):
        assert main(["bench"]) == 2
        assert "(at problem)" in capsys.readouterr().err

    def test_compare(self, capsys):
        assert main(["compare", "demo-ellipse", "--mc-n", "1000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["rssl", "form-double-loop"]
        assert [line[:18].strip() for line in lines[1:]] == ["mu_x1", "objective", "pf_mc[g] %"]
        assert all(len(line[18:].split()) == 2 for line in lines[1:])

    def test_missing_file_is_input_error(self, capsys):
        assert main(["solve", "/no/such/file.json"]) == 2

    def test_invalid_document_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"variables\": []}")
        assert main(["solve", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_non_number_field_is_input_error(self, tmp_path, capsys):
        doc = ellipse_doc()
        doc["constraints"][0]["quadratic"][0] = "x"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 2
        assert "constraints[0].quadratic" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["rssl", "form-double-loop"])
    def test_lognormal_lower_zero_is_input_error(self, method, tmp_path, capsys):
        doc = ellipse_doc()
        doc["variables"][0]["kind"] = "lognormal"  # lower stays 0.0
        path = tmp_path / "lognormal.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--method", method]) == 2
        message = "x1: lognormal design variables need lower > 1e-06, got 0.0"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["demo-ellipse", "bench-3g", "file"])
    def test_coeff_file_off_crashworthiness_is_input_error(self, source, tmp_path, capsys):
        # the flag would otherwise be ignored and the solve reported as if it applied
        if source == "file":
            source = str(tmp_path / "ellipse.json")
            write_document(ellipse_doc(), source)
        assert main(["solve", source, "--coeff-file", CRASH_CSV]) == 2
        assert "(at --coeff-file)" in capsys.readouterr().err

    def test_coeff_file_on_crashworthiness(self, capsys):
        assert main(["solve", "crashworthiness", "--coeff-file", CRASH_CSV,
                     "--method", "deterministic"]) == 0

    def test_single_loop_failure_names_the_constraint(self, capsys):
        # g01's closed-form pf exceeds its 2.5-sigma target over the whole box
        assert main(["solve", "crashworthiness", "--beta", "2.5", "--coeff-file", CRASH_CSV]) == 3
        assert "g01 (pf" in capsys.readouterr().err

    def test_crash_without_file_is_input_error(self, capsys):
        assert main(["solve", "crashworthiness"]) == 2
        assert "coefficient file" in capsys.readouterr().err

    def test_bad_at_vector(self, capsys):
        assert main(["pf", "demo-ellipse", "--at", "1,2,3"]) == 2

    def test_at_value_with_leading_minus(self, capsys):
        # bench-quad4's FORM optimum has only negative means; argparse alone
        # reads "-0.4137,..." as an option and exits 2
        at = "-0.4137,-0.4965,-0.4965,-0.4965"
        assert main(["mc-check", "bench-quad4", "--at", at, "--mc-n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "mu_design         [-0.4137, -0.4965, -0.4965, -0.4965]" in out
        assert "pf_mc[g1]" in out and "pf_mc[g2]" in out

    @pytest.mark.parametrize("command", [
        ["pf", "demo-ellipse"],
        ["mc-check", "demo-ellipse", "--mc-n", "1000"],
        ["doe", "demo-ellipse", "--out", "plan.csv"],
    ], ids=["pf", "mc-check", "doe"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_at_is_input_error(self, command, value, tmp_path, monkeypatch, capsys):
        # mc-check would report pf 0 +- 0 and doe would write rows of inf
        monkeypatch.chdir(tmp_path)
        assert main(command + [f"--at={value}"]) == 2
        assert "(at --at)" in capsys.readouterr().err
        assert not (tmp_path / "plan.csv").exists()

    def test_form_on_a_constraint_that_always_fails(self, tmp_path, capsys):
        doc = ellipse_doc()
        doc["constraints"] = [{"name": "g_never_safe", "quadratic": [-1, 0, 0, -1, 0, -1]}]
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--method", "form-double-loop"]) == 3
        assert "g_never_safe" in capsys.readouterr().err

    def test_trace_csv(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["solve", "demo-ellipse", "--trace", str(trace)]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0].startswith("iteration,mu1")
        assert len(lines) > 1
