"""Experiment harness: the paper's table design and published data,
table specs, reports, ablation pieces and sensitivity maps that
regenerate (and extend) the paper's evaluation."""

from repro.experiments import paper_data

__all__ = ["paper_data"]
# config/tables/report/sweeps/sensitivity are imported by their users.
# Only the stdlib-only paper_data is eager: config loads numpy (through
# repro.core and repro.sim), and importing it here would make `repro
# list` and every `--help` load numpy too.
