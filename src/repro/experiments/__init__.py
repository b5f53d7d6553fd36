"""Experiment drivers regenerating every table and figure of the paper.

Drivers are imported lazily (PEP 562): a crawl process that needs only
:func:`~repro.experiments.harness.sample_seed_values` does not load every
driver, nor networkx through :mod:`repro.experiments.figure2`.
"""

from __future__ import annotations

_EXPORTS = {
    "run_abortion_ablation": "repro.experiments.ablations",
    "run_greedy_signal_ablation": "repro.experiments.ablations",
    "run_mmmi_ablation": "repro.experiments.ablations",
    "run_smoothing_ablation": "repro.experiments.ablations",
    "AmazonSetup": "repro.experiments.amazon",
    "build_amazon_setup": "repro.experiments.amazon",
    "Figure2Result": "repro.experiments.figure2",
    "run_figure2": "repro.experiments.figure2",
    "COVERAGE_LEVELS": "repro.experiments.figure3",
    "Figure3Panel": "repro.experiments.figure3",
    "Figure3Result": "repro.experiments.figure3",
    "run_figure3": "repro.experiments.figure3",
    "Figure4Result": "repro.experiments.figure4",
    "run_figure4": "repro.experiments.figure4",
    "Figure5Result": "repro.experiments.figure5",
    "run_figure5": "repro.experiments.figure5",
    "Figure6Result": "repro.experiments.figure6",
    "run_figure6": "repro.experiments.figure6",
    "PolicyRun": "repro.experiments.harness",
    "group_policy_runs": "repro.experiments.harness",
    "run_policy": "repro.experiments.harness",
    "run_policy_suite": "repro.experiments.harness",
    "sample_seed_values": "repro.experiments.harness",
    "KeywordInterfaceResult": "repro.experiments.keyword",
    "run_keyword_interface": "repro.experiments.keyword",
    "render_series": "repro.experiments.report",
    "render_table": "repro.experiments.report",
    "SizeEstimationResult": "repro.experiments.size_estimation",
    "run_size_estimation": "repro.experiments.size_estimation",
    "PolicySpread": "repro.experiments.stability",
    "StabilityResult": "repro.experiments.stability",
    "run_stability": "repro.experiments.stability",
    "Table1Result": "repro.experiments.table1",
    "run_table1": "repro.experiments.table1",
    "Table2Result": "repro.experiments.table2",
    "run_table2": "repro.experiments.table2",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.experiments' has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return __all__
