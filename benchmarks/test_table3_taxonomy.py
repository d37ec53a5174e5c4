"""Table 3 — the four-category taxonomy of joint behavior.

Paper: 99,790 complete-overlap admin lives (78.6%), 4,434 partial
(3.4%), 22,729 unused (17.9%); 2,382 operational lives outside any
delegation.
"""

from repro.core import Category, classify
from repro.runtime import MetricsRegistry

from conftest import fmt_table

PAPER_SHARES = {
    Category.COMPLETE_OVERLAP: 0.786,
    Category.PARTIAL_OVERLAP: 0.035,
    Category.UNUSED: 0.179,
}


def test_table3_taxonomy(benchmark, bundle, record_result):
    result = benchmark(
        classify, bundle.admin_lives, bundle.op_lives, metrics=MetricsRegistry()
    )
    admin_total, op_total = result.totals()
    rows = [
        (name, admin, f"{admin / admin_total:.1%}", op)
        for name, admin, op in result.table3_rows()
    ]
    rows.append(("total", admin_total, "100.0%", op_total))
    record_result(
        "table3_taxonomy",
        fmt_table(["category", "adm lives", "adm share", "op lives"], rows),
    )

    # every lifetime classified exactly once
    assert admin_total == bundle.joint.total_admin_lifetimes()
    assert op_total == bundle.joint.total_op_lifetimes()

    # shares within a factor of ~1.5 of the paper's
    for category, paper_share in PAPER_SHARES.items():
        share = result.admin_counts.get(category, 0) / admin_total
        assert paper_share / 1.7 < share < paper_share * 1.7, (
            category, share, paper_share
        )

    # ordering: complete >> unused >> partial (the paper's Table 3)
    counts = result.admin_counts
    assert (
        counts[Category.COMPLETE_OVERLAP]
        > counts[Category.UNUSED]
        > counts[Category.PARTIAL_OVERLAP]
    )
    # some operational lives exist outside any delegation (§6.4)
    assert result.op_counts.get(Category.OUTSIDE_DELEGATION, 0) > 0
    # but no admin life can be "outside delegation"
    assert Category.OUTSIDE_DELEGATION not in result.admin_counts
