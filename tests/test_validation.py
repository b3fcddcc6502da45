from dataclasses import replace

from leoican import validation


def _check_map(checks):
    return {name.split(" (seed")[0]: ok for name, ok, _detail in checks}


def test_run_seed_checks_pass_on_a_real_run():
    checks = _check_map(validation._run_seed_checks(validation.RUN_CONFIG, 1))
    assert checks == {"run_seed GDOP bound": True, "run_seed cfg >= gdop_greedy": True,
                      "run_seed DC trace monotone": True}


def test_run_seed_checks_flag_violations(monkeypatch):
    results = validation.run_seed(validation.RUN_CONFIG, 1)
    by_name = {result.scheme.name: result for result in results}
    by_name["cfg-mrt"].sum_rate_bps = 0.5 * by_name["gdop_greedy-mrt"].sum_rate_bps
    sat, iteration, surrogate, true_rate = by_name["cfg-dc"].dc_trace_rows[-1]
    by_name["cfg-dc"].dc_trace_rows.append((sat, iteration + 1, surrogate, 0.5 * true_rate))
    monkeypatch.setattr(validation, "run_seed", lambda config, seed: results)
    # no three unit directions reach a GDOP of 1 (the minimum is sqrt(3))
    strict = replace(validation.RUN_CONFIG, gdop_limit=1.0)
    checks = _check_map(validation._run_seed_checks(strict, 1))
    assert checks == {"run_seed GDOP bound": False, "run_seed cfg >= gdop_greedy": False,
                      "run_seed DC trace monotone": False}


def test_run_seed_checks_report_a_failed_seed():
    infeasible = replace(validation.RUN_CONFIG, gdop_limit=1e-9)
    [(name, ok, detail)] = validation._run_seed_checks(infeasible, 1)
    assert not ok
    assert "InfeasibleSelectionError" in detail
