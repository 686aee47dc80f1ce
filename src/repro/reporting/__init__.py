"""Experiment infrastructure and table rendering.

:mod:`~repro.reporting.experiments` pins the reference experiment
setup (device, memory, FU mixes, per-table row definitions) shared by
the experiment and calibration scripts, and provides the
runner that executes rows with timeouts.  :mod:`~repro.reporting.tables`
renders rows as aligned ASCII tables shaped like the paper's.
"""

from repro.reporting.experiments import (
    EXPERIMENT_ROWS,
    ExperimentRow,
    reference_device,
    reference_memory,
    run_row,
    table_rows,
)
from repro.reporting.tables import format_table, render_rows
from repro.reporting.export import (
    design_to_dict,
    rows_to_csv,
    rows_to_json,
    save_design,
    save_telemetry,
    telemetry_to_dict,
)

__all__ = [
    "ExperimentRow",
    "EXPERIMENT_ROWS",
    "reference_device",
    "reference_memory",
    "run_row",
    "table_rows",
    "format_table",
    "render_rows",
    "rows_to_csv",
    "rows_to_json",
    "design_to_dict",
    "save_design",
    "telemetry_to_dict",
    "save_telemetry",
]
