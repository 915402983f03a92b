"""Tests for the LP/MPS model writers, which read a MatrixModel's arrays."""

from pathlib import Path

import pytest

from arrays import INF, matrix_model
from repro.lp.writers import save, write_lp, write_mps

GOLDEN = Path(__file__).parent / "golden_public_1gb_1h"


def toy_model():
    """max 3x + 2y + b: x in [0, 4], y integer in [0, 4], b binary."""
    return matrix_model(
        [3.0, 2.0, 1.0],
        [([1, 2, 0], -INF, 6.0), ([1, -1, 0], -1.0, INF), ([1, 0, 1], 2.0, 2.0)],
        ub=[4.0, 4.0, 1.0], integer=[False, True, True], maximize=True,
        names=("x", "y", "b"), row_names=("cap", "gap", "link"), name="toy",
    )


def single(name="x", lb=0.0, ub=INF):
    """One column, a zero objective, minimized."""
    return matrix_model([0.0], lb=lb, ub=ub, names=(name,))


class TestLpFormat:
    def test_sections_present(self):
        text = write_lp(toy_model())
        for section in ("Maximize", "Subject To", "Bounds", "Generals",
                        "Binaries", "End"):
            assert section in text

    def test_constraints_rendered_with_rhs(self):
        text = write_lp(toy_model())
        assert "cap: x + 2 y <= 6" in text
        assert "gap: x - y >= -1" in text
        assert "link: x + b = 2" in text

    def test_minimize_section(self):
        assert "Minimize" in write_lp(single(ub=1.0))

    def test_default_bounds_omitted(self):
        # free_up has the LP default bounds.
        text = write_lp(matrix_model([0.0, 0.0], ub=[INF, 9.0],
                                     names=("free_up", "capped")))
        assert "free_up" not in text.split("Bounds")[1]
        assert "capped <= 9" in text.split("Bounds")[1]

    def test_bad_names_sanitized(self):
        text = write_lp(single("weird name!", ub=1.0))
        assert "weird name!" not in text
        assert "weird_name_" in text

    def test_deterministic(self):
        assert write_lp(toy_model()) == write_lp(toy_model())

    def test_objective_constant_encoded(self):
        text = write_lp(matrix_model([1.0], ub=1.0, offset=5.0))
        assert "__const" in text
        assert "__fix_const: __const = 1" in text


class TestMpsFormat:
    def test_sections_present(self):
        text = write_mps(toy_model())
        for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert section in text

    def test_objsense_for_maximization(self):
        assert "OBJSENSE" in write_mps(toy_model())
        assert "OBJSENSE" not in write_mps(single(ub=1.0))

    def test_row_types(self):
        text = write_mps(toy_model())
        assert " L  cap" in text
        assert " G  gap" in text
        assert " E  link" in text

    def test_integer_markers_balanced(self):
        text = write_mps(toy_model())
        assert text.count("'INTORG'") == text.count("'INTEND'")
        assert text.count("'INTORG'") >= 1

    def test_binary_bound(self):
        text = write_mps(toy_model())
        assert " BV BND  b" in text

    def test_fixed_bound(self):
        assert " FX BND  f  3" in write_mps(single("f", lb=3.0, ub=3.0))

    def test_deterministic(self):
        assert write_mps(toy_model()) == write_mps(toy_model())


def planner_model(input_gb, deadline_hours):
    from repro.cloud import public_cloud
    from repro.core import (
        Goal,
        NetworkConditions,
        PlannerJob,
        PlanningProblem,
        build_model,
    )

    problem = PlanningProblem(
        job=PlannerJob(name="golden", input_gb=input_gb),
        services=public_cloud(),
        network=NetworkConditions.from_mbit_s(16.0),
        goal=Goal.min_cost(deadline_hours=deadline_hours),
    )
    return build_model(problem).model


class TestSave:
    def test_save_lp_and_mps(self, tmp_path):
        model = toy_model()
        lp_path = tmp_path / "model.lp"
        mps_path = tmp_path / "model.mps"
        save(model, str(lp_path))
        save(model, str(mps_path))
        assert lp_path.read_text().startswith("\\ Problem: toy")
        assert mps_path.read_text().startswith("NAME")

    def test_unknown_extension_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="extension"):
            save(toy_model(), str(tmp_path / "model.txt"))

    def test_planner_model_exports(self, tmp_path):
        # The real Section-4 model must export without errors.
        model = planner_model(8.0, 6.0)
        text = write_lp(model)
        assert "Subject To" in text
        save(model, str(tmp_path / "conductor.mps"))


class TestGolden:
    """A planner model's export, byte for byte as the files committed
    beside this test (first written when the writers still walked an
    expression graph; rewritten when the dominated m1.xlarge left the
    model and the one kept compute service gained its node-hours row)."""

    @pytest.mark.parametrize("suffix", [".lp", ".mps"])
    def test_export_matches_the_committed_file(self, suffix, tmp_path):
        path = tmp_path / f"model{suffix}"
        save(planner_model(1.0, 1.0), str(path))
        assert path.read_bytes() == GOLDEN.with_suffix(suffix).read_bytes()
