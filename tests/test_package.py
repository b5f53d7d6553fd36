"""Package-level sanity: version consistency, export hygiene."""

import pathlib
import re

import repro
from tests.conftest import modules_loaded_after


def test_version_matches_pyproject():
    pyproject = pathlib.Path(repro.__file__).parents[2] / "pyproject.toml"
    match = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.M)
    assert match is not None
    assert repro.__version__ == match.group(1)


def test_py_typed_marker_ships():
    marker = pathlib.Path(repro.__file__).parent / "py.typed"
    assert marker.exists()


def test_all_subpackage_exports_resolve():
    """Every name in each subpackage's __all__ must be importable."""
    import importlib

    for name in (
        "repro.core",
        "repro.graph",
        "repro.server",
        "repro.crawler",
        "repro.policies",
        "repro.domain",
        "repro.datasets",
        "repro.estimation",
        "repro.experiments",
        "repro.warehouse",
        "repro.analysis",
    ):
        module = importlib.import_module(name)
        for export in module.__all__:
            assert hasattr(module, export), f"{name}.{export} missing"
        assert module.__all__ == sorted(module.__all__), f"{name}.__all__ unsorted"



#: The analysis stack: t-intervals (scipy) and the AVG analysis and the
#: oracle's dominating-set plan (networkx).
ANALYSIS_STACK = ("scipy", "networkx")


def test_crawl_processes_leave_the_analysis_stack_unloaded():
    """Crawling needs neither scipy nor networkx."""
    crawl_modules = (
        "repro.crawler.engine",
        "repro.runtime.crawler",
        "repro.fleet",
        "repro.net",
        "repro.experiments.harness",
    )
    assert not modules_loaded_after(crawl_modules, ANALYSIS_STACK)


def test_cli_and_harness_leave_scipy_unloaded():
    """scipy loads only when a t-interval is computed."""
    assert not modules_loaded_after(
        ("repro.cli", "repro.experiments.harness"), ("scipy",)
    )


def test_serving_and_grids_load_no_shared_memory():
    """Workers answer from the caller's table; nothing maps a shm block."""
    assert not modules_loaded_after(
        ("repro.net", "repro.experiments.harness", "repro.cli"),
        ("repro.core.shmtable", "multiprocessing.shared_memory"),
    )
