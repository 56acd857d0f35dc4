import math

import checks
from workloads import SWEEP_1D_VERDICTS, make_config


def sweep_outputs():
    return {
        "exit_code": 0,
        "verdicts": [["PASS", name] for name in SWEEP_1D_VERDICTS],
        "sweep.csv": {
            "epsilon": [0.2, 0.1, 0.05, 0.02],
            "n_cells": [1195.0, 1014.0, 1433.0, 2266.0],
            "sup_lp2": [1.1, 1.6, 2.2, 3.4],
            "sup_h1": [3.0, 8.0, 22.0, 90.0],
            "mass_error": [1e-16, 2e-16, 1e-16, 3e-16],
            "boundary_loss": [0.0, 0.0, 0.0, 0.0],
            "moment_violations": [0.0, 0.0, 0.0, 0.0],
            "weighted_ratio": [1.2, 1.3, 1.3, 1.4],
        },
    }


CONFIG = make_config("sweep_1d", 0)


def problems_of(outputs, reference=None):
    return checks.check("sweep_1d", CONFIG, outputs, reference)["problems"]


def test_clean_sweep_passes_with_and_without_reference():
    outputs = sweep_outputs()
    assert problems_of(outputs) == []
    result = checks.check("sweep_1d", CONFIG, outputs, sweep_outputs())
    assert result["problems"] == []
    assert result["ref_rel_gap"] == 0.0
    assert result["ref_values"] == 24  # six compared columns of four rows


def test_nan_in_a_non_first_sweep_row_fails_even_when_verdicts_pass():
    outputs = sweep_outputs()
    outputs["sweep.csv"]["mass_error"][2] = math.nan
    problems = problems_of(outputs)
    assert "sweep.csv: non-finite value in column mass_error" in problems
    assert any("mass bookkeeping" in p for p in problems)


def test_nan_sup_h1_is_expected_only_outside_one_dimension():
    outputs = sweep_outputs()
    outputs["sweep.csv"]["sup_h1"] = [math.nan] * 4
    assert "sweep.csv: non-finite value in column sup_h1" in problems_of(outputs)
    config_2d = make_config("sweep_2d", 0)
    outputs["verdicts"] = [["PASS", name] for name in checks.WORKLOADS["sweep_2d"].verdicts]
    assert checks.check("sweep_2d", config_2d, outputs, None)["problems"] == []


def test_flipped_verdict_fails():
    flipped = sweep_outputs()
    flipped["verdicts"][5][0] = "FAIL"
    # exit status 0 no longer matches the table
    assert any("exit status" in p for p in problems_of(flipped))
    # a consistent exit status still differs from the reference
    flipped["exit_code"] = 1
    problems = problems_of(flipped, sweep_outputs())
    assert "verdict table differs from the reference" in problems
    assert "exit status 1 != reference 0" in problems


def test_missing_verdict_line_fails():
    outputs = sweep_outputs()
    del outputs["verdicts"][3]
    assert any(p.startswith("verdict table") for p in problems_of(outputs))


def test_missing_output_file_fails():
    outputs = sweep_outputs()
    outputs["sweep.csv"] = None
    assert "sweep.csv missing" in problems_of(outputs)


def test_numeric_drift_from_reference_is_reported_as_gap():
    moved = sweep_outputs()
    moved["sweep.csv"]["sup_lp2"][3] *= 1.0 + 1e-3
    # roundoff-level defect columns are not compared
    moved["sweep.csv"]["mass_error"][1] = 5e-16
    result = checks.check("sweep_1d", CONFIG, moved, sweep_outputs())
    assert math.isclose(result["ref_rel_gap"], 1e-3, rel_tol=1e-9)
    assert any("differs from the reference" in p for p in result["problems"])


def test_parse_verdicts_reads_the_cli_table():
    text = (
        "PASS  mass_conservation            margin=+1e-06  max defect 1.110e-16\n"
        "some other line\n"
        "FAIL  moment_inequality            margin=-3  3 violations\n"
    )
    assert checks.parse_verdicts(text) == [
        ["PASS", "mass_conservation"],
        ["FAIL", "moment_inequality"],
    ]
