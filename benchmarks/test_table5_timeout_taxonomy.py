"""Table 5 (Appendix C) — taxonomy sensitivity to the inactivity timeout.

Paper: moving the timeout from 30 to 15 or 50 days changes complete
overlap by <0.1%, partial overlap by <2%, and outside-delegation lives
by <5%; the unused category is untouched by construction.
"""

from repro.core import Category, classify
from repro.runtime import MetricsRegistry

from conftest import fmt_table

TIMEOUTS = (15, 30, 50)


def run_sweep(bundle):
    out = {}
    for timeout in TIMEOUTS:
        op_lives = bundle.rebuild_op_lives(timeout=timeout)
        out[timeout] = classify(
            bundle.admin_lives, op_lives, metrics=MetricsRegistry()
        )
    return out


def test_table5_timeout_taxonomy(benchmark, bundle, record_result):
    results = benchmark(run_sweep, bundle)
    baseline = results[30]

    def count(result, category, op=False):
        source = result.op_counts if op else result.admin_counts
        return source.get(category, 0)

    rows = []
    for timeout in TIMEOUTS:
        r = results[timeout]
        rows.append(
            (
                timeout,
                count(r, Category.COMPLETE_OVERLAP),
                count(r, Category.PARTIAL_OVERLAP),
                count(r, Category.UNUSED),
                count(r, Category.OUTSIDE_DELEGATION, op=True),
            )
        )
    record_result(
        "table5_timeout_taxonomy",
        fmt_table(["timeout", "complete", "partial", "unused", "op outside"], rows),
    )

    base_complete = count(baseline, Category.COMPLETE_OVERLAP)
    base_outside = count(baseline, Category.OUTSIDE_DELEGATION, op=True)
    for timeout in (15, 50):
        r = results[timeout]
        # complete overlap barely moves (paper: ±0.1%)
        delta = abs(count(r, Category.COMPLETE_OVERLAP) - base_complete)
        assert delta / base_complete < 0.02
        # the unused category is exactly unchanged (paper's footnote)
        assert count(r, Category.UNUSED) == count(baseline, Category.UNUSED)
        # outside-delegation fluctuates a few percent, symmetrically:
        # smaller timeout -> more (shorter) op lives -> more outside
        outside = count(r, Category.OUTSIDE_DELEGATION, op=True)
        assert abs(outside - base_outside) / max(base_outside, 1) < 0.25
    assert (
        count(results[15], Category.OUTSIDE_DELEGATION, op=True)
        >= count(results[50], Category.OUTSIDE_DELEGATION, op=True)
    )
