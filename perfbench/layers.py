"""Per-layer instrumentation of aggdiff, patched in from outside ``src/``.

Each function is replaced where its caller looks it up:

* ``solver.run`` finds ``build_interaction_matrix``, ``advance``, the two
  dt bounds and the grid functionals in ``aggdiff.solver``'s globals;
* ``_accel.explicit_update``, ``thomas_solve`` and the matrix builders are
  reached as ``aggdiff._accel`` attributes;
* ``analysis`` calls ``run``, ``reference_constants`` and its trajectory
  checks through its own globals, which ``cli`` also reads as attributes;
* ``cli`` calls its parse and write helpers through its globals.

Counters are recorded at the same boundaries. Values marked "computed"
are derived from array sizes, not measured.
"""

from __future__ import annotations

from pathlib import Path

GRID_DIAGNOSTICS = ("truncated_moment", "concentration_functional", "lp_norm", "h1_seminorm")
TRAJECTORY_CHECKS = (
    "check_moment_inequality", "weighted_concentration_integral",
    "ball_mass_integral", "ball_lp_integral",
)
CLI_WRITES = ("write_sweep_csv", "_write_json", "write_verdicts")

# Every per-layer metric of a traced run, with its unit. "computed" values
# come from array sizes, not from measurement. Metric names must start with
# a letter, so the ``_accel`` spans report as ``accel.*``.
UNITS = {
    "drift.build_interaction_matrix.s": "s",
    "drift.build_interaction_matrix.calls": "count",
    "accel.build_matrix_nd.calls": "count",
    "drift.quadrature_order": "count",
    "drift.build.kernel_evals": "count",  # computed: n^2 q per N >= 2 build, 2 n^2 per 1-D build
    "drift.matrix_mb": "MB",  # computed: 8 n^2 bytes, largest matrix
    "solver.run.s": "s",
    "solver.run.calls": "count",
    "solver.run.max_row_s": "s",
    "solver.run.self_s": "s",
    "drift.apply.gflop": "GFLOP",  # computed: 2 n^2 per step with drift
    "drift.apply.gb": "GB",  # computed: 8 n^2 bytes per step with drift
    "solver.advance.calls": "count",
    "solver.advance.self_s": "s",
    "solver.positivity_bound.s": "s",
    "solver.stated_cfl_bound.s": "s",
    "solver.dt_limit.cfl": "count",
    "solver.dt_limit.positivity": "count",
    "solver.dt_limit.cap": "count",
    "solver.clipped_cells": "count",
    "accel.explicit_update.s": "s",
    "accel.thomas_solve.s": "s",
    "grid.diagnostics.s": "s",
    "grid.diagnostics.calls": "count",
    "analysis.reference_constants.s": "s",
    "analysis.trajectory_checks.s": "s",
    "analysis.ref_rel_gap": "ratio",
    "analysis.ref_values": "count",
    "cli.parse_config.s": "s",
    "cli.write.s": "s",
    "cli.write.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

WRITE_SPANS = tuple(f"cli.{name}" for name in CLI_WRITES)
GRID_SPANS = tuple(f"grid.{name}" for name in GRID_DIAGNOSTICS)
CHECK_SPANS = tuple(f"analysis.{name}" for name in TRAJECTORY_CHECKS)


class Instrumentation:
    """Patches aggdiff's layer boundaries with tracer spans and counters."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts = {
            "quadrature_order": 0,
            "kernel_evals": 0,
            "matrix_mb": 0.0,
            "apply_gflop": 0.0,
            "apply_gb": 0.0,
            "dt_cfl": 0,
            "dt_positivity": 0,
            "dt_cap": 0,
            "clipped_cells": 0,
            "write_bytes": 0,
        }
        self._drift_n = 0
        self._cfl = None
        self._positivity = None

    # -- hooks ---------------------------------------------------------------

    def _run_enter(self, args, kwargs):
        self._drift_n = 0

    def _run_exit(self, args, kwargs, traj):
        self.counts["clipped_cells"] += int(traj.clipped_cells)

    def _build_exit(self, args, kwargs, matrix):
        n = matrix.grid.n
        self._drift_n = n
        self.counts["quadrature_order"] = max(self.counts["quadrature_order"], matrix.quadrature_order)
        self.counts["matrix_mb"] = max(self.counts["matrix_mb"], 8.0 * n * n / 1e6)

    def _nd_exit(self, args, kwargs, weights):
        n, q = len(args[0]), len(args[4])
        self.counts["kernel_evals"] += n * n * q

    def _1d_exit(self, args, kwargs, weights):
        n = len(args[0])
        self.counts["kernel_evals"] += 2 * n * n

    def _cfl_exit(self, args, kwargs, bound):
        self._cfl = bound

    def _positivity_exit(self, args, kwargs, bound):
        self._positivity = bound

    def _advance_enter(self, args, kwargs):
        dt = args[3]
        if dt == self._cfl:
            self.counts["dt_cfl"] += 1
        elif dt == self._positivity:
            self.counts["dt_positivity"] += 1
        else:
            self.counts["dt_cap"] += 1
        n = self._drift_n
        if n:
            self.counts["apply_gflop"] += 2.0 * n * n / 1e9
            self.counts["apply_gb"] += 8.0 * n * n / 1e9

    def _write_exit(self, args, kwargs, result):
        if not self.tracer.inside(WRITE_SPANS):
            self.counts["write_bytes"] += Path(args[1]).stat().st_size

    # -- patching ------------------------------------------------------------

    def install(self):
        from aggdiff import _accel, analysis, cli, solver

        wrap = self.tracer.wrap
        run = wrap("solver.run", solver.run, self._run_enter, self._run_exit)
        solver.run = run
        analysis.run = run
        solver.build_interaction_matrix = wrap(
            "drift.build_interaction_matrix", solver.build_interaction_matrix, on_exit=self._build_exit
        )
        solver.advance = wrap("solver.advance", solver.advance, on_enter=self._advance_enter)
        solver.stated_cfl_bound = wrap(
            "solver.stated_cfl_bound", solver.stated_cfl_bound, on_exit=self._cfl_exit
        )
        solver.positivity_bound = wrap(
            "solver.positivity_bound", solver.positivity_bound, on_exit=self._positivity_exit
        )
        for name in GRID_DIAGNOSTICS:
            setattr(solver, name, wrap(f"grid.{name}", getattr(solver, name)))

        _accel.explicit_update = wrap("_accel.explicit_update", _accel.explicit_update)
        _accel.thomas_solve = wrap("_accel.thomas_solve", _accel.thomas_solve)
        _accel.build_matrix_nd = wrap("_accel.build_matrix_nd", _accel.build_matrix_nd, on_exit=self._nd_exit)
        _accel.build_matrix_1d = wrap("_accel.build_matrix_1d", _accel.build_matrix_1d, on_exit=self._1d_exit)

        analysis.reference_constants = wrap("analysis.reference_constants", analysis.reference_constants)
        for name in TRAJECTORY_CHECKS:
            setattr(analysis, name, wrap(f"analysis.{name}", getattr(analysis, name)))

        cli.parse_config = wrap("cli.parse_config", cli.parse_config)
        for name in CLI_WRITES:
            setattr(cli, name, wrap(f"cli.{name}", getattr(cli, name), on_exit=self._write_exit))

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures of one traced process (seconds, counts, sizes)."""
        tr = self.tracer
        spans = tr.summary()
        c = self.counts

        def get(name, key="s"):
            return spans.get(name, {}).get(key, 0)

        return {
            "drift.build_interaction_matrix.s": get("drift.build_interaction_matrix"),
            "drift.build_interaction_matrix.calls": get("drift.build_interaction_matrix", "calls"),
            "accel.build_matrix_nd.calls": get("_accel.build_matrix_nd", "calls"),
            "drift.quadrature_order": c["quadrature_order"],
            "drift.build.kernel_evals": c["kernel_evals"],
            "drift.matrix_mb": c["matrix_mb"],
            "solver.run.s": get("solver.run"),
            "solver.run.calls": get("solver.run", "calls"),
            "solver.run.max_row_s": get("solver.run", "max_s"),
            "solver.run.self_s": get("solver.run", "self_s"),
            "drift.apply.gflop": c["apply_gflop"],
            "drift.apply.gb": c["apply_gb"],
            "solver.advance.calls": get("solver.advance", "calls"),
            "solver.advance.self_s": get("solver.advance", "self_s"),
            "solver.positivity_bound.s": get("solver.positivity_bound"),
            "solver.stated_cfl_bound.s": get("solver.stated_cfl_bound"),
            "solver.dt_limit.cfl": c["dt_cfl"],
            "solver.dt_limit.positivity": c["dt_positivity"],
            "solver.dt_limit.cap": c["dt_cap"],
            "solver.clipped_cells": c["clipped_cells"],
            "accel.explicit_update.s": get("_accel.explicit_update"),
            "accel.thomas_solve.s": get("_accel.thomas_solve"),
            "grid.diagnostics.s": tr.group_seconds(GRID_SPANS),
            "grid.diagnostics.calls": sum(get(name, "calls") for name in GRID_SPANS),
            "analysis.reference_constants.s": get("analysis.reference_constants"),
            "analysis.trajectory_checks.s": tr.group_seconds(CHECK_SPANS),
            "cli.parse_config.s": get("cli.parse_config"),
            "cli.write.s": tr.group_seconds(WRITE_SPANS),
            "cli.write.bytes": c["write_bytes"],
        }
