"""Crash/resume under the performance paths.

The incremental frontier and the MMMI kernel are pure accelerations —
so a crawl running them must not only match the unaccelerated crawl on
the pre-interning :class:`~repro.crawler.reference.ReferenceLocalDatabase`,
it must *crash and resume* into the same bit-identical result.  The
resumed process may even disagree with the crashed one about the
frontier's rescore cadence: the checkpoint encodes scores and values,
never scoring choices, so any configuration must resume any other's
checkpoint losslessly.
"""

from __future__ import annotations

import pytest

from repro.crawler import ReferenceLocalDatabase
from repro.policies import GreedyLinkSelector, MinMaxMutualInformationSelector
from repro.runtime.crawler import RuntimeCrawler
from repro.runtime.events import CrashAfterSteps, EventBus, SimulatedCrash

from tests.runtime.conftest import (
    CHECKPOINT_EVERY,
    MAX_QUERIES,
    make_backoff,
    make_engine,
    make_flaky_server,
    seed_values,
)

CRASH_AFTER = 13

#: (crashing selector, resuming selector) — each row pins one
#: accelerated path across a crash boundary; the reference crawl runs
#: the crashing selector's config on the reference database.
CONFIGS = {
    "gl-full-rescore": (
        lambda: GreedyLinkSelector(full_rescore_every=1),
        lambda: GreedyLinkSelector(),
    ),
    "mmmi-vectorized": (
        lambda: MinMaxMutualInformationSelector(batch_size=5),
        lambda: MinMaxMutualInformationSelector(batch_size=5),
    ),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_crash_resume_matches_unaccelerated_reference(
    tmp_path, config, flaky_table
):
    make_crashing, make_resuming = CONFIGS[config]

    selector = make_crashing()
    reference = make_engine(
        flaky_table,
        selector,
        local_db=ReferenceLocalDatabase(
            track_cooccurrence=selector.requires_cooccurrence
        ),
    ).crawl(seed_values(flaky_table), max_queries=MAX_QUERIES)

    bus = EventBus()
    bus.attach(CrashAfterSteps(CRASH_AFTER))
    runtime = RuntimeCrawler(
        make_engine(flaky_table, make_crashing(), bus=bus),
        checkpoint_dir=tmp_path,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    with pytest.raises(SimulatedCrash):
        runtime.crawl(seed_values(flaky_table), max_queries=MAX_QUERIES)
    runtime.close()

    resumed = RuntimeCrawler.resume(
        tmp_path,
        make_flaky_server(flaky_table),
        make_resuming(),
        backoff=make_backoff(),
    )
    result = resumed.run()
    resumed.close()
    assert result == reference
