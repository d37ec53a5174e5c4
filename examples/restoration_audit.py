#!/usr/bin/env python3
"""Auditing the §3.1 archive restoration against known ground truth.

The paper restored 17 years of delegation files but could never *score*
that restoration — nobody knows what the true archives should have
said.  Here we can: the defects are injected on top of a consistent
simulated archive, so every repair is checkable.

This example corrupts an archive with every §3.1 defect class, runs the
six-step pipeline, and reports (a) what was injected, (b) what was
repaired, (c) which injected defects the repairs actually undid, and
(d) how close the recovered lifetimes are to the truth.

Run:  python examples/restoration_audit.py
"""

from repro.restoration import render_scores, score_restoration
from repro.rir import ERX_PLACEHOLDER_DATE
from repro.simulation import WorldConfig, build_datasets
from repro.timeline import to_iso


def main() -> None:
    config = WorldConfig(seed=13, scale=0.015)
    bundle = build_datasets(config)

    print("=== Injected defects (ground truth) ===")
    by_kind = {}
    for defect in bundle.injected_defects:
        by_kind[defect.kind] = by_kind.get(defect.kind, 0) + 1
    for kind in sorted(by_kind):
        print(f"  {kind:28s} {by_kind[kind]:5d}")

    print("\n=== Restoration report (cf. §3.1) ===")
    print(bundle.restoration_report.render())

    print("\n=== Repairs graded against the injected defects ===")
    print(render_scores(score_restoration(
        bundle.restored, bundle.injected_defects,
        erx_reference=bundle.world.erx_reference,
    )))

    # Score: lifetime boundaries vs. the simulator's truth
    truth = bundle.world.lives_by_asn()
    exact = close = off = 0
    for asn, truth_lives in truth.items():
        recovered = bundle.admin_lives.get(asn, [])
        if len(recovered) != len(truth_lives):
            off += 1
            continue
        ok = True
        for t, r in zip(truth_lives, recovered):
            expected_end = t.end if t.end is not None else config.end_day
            start = t.start if not r.left_censored else r.start
            if (r.start, r.end) != (start, expected_end):
                ok = False
                break
        if ok:
            exact += 1
        else:
            close += 1
    total = len(truth)
    print("\n=== Lifetime recovery score ===")
    print(f"  ASNs with exactly matching lifetimes: {exact} "
          f"({exact / total:.1%})")
    print(f"  right count, boundary deviations:     {close} "
          f"({close / total:.1%})")
    print(f"  lifetime count mismatches:            {off} "
          f"({off / total:.1%})")
    print("  (deviations are expected where a lifetime boundary fell on "
          "a missing-file day — unrecoverable, as in the paper)")

    # ERX: the placeholder dates must be gone
    print("\n=== ERX placeholder repair (cf. §3.1 step v) ===")
    repaired = leftover = 0
    for asn, original in bundle.world.erx_reference.items():
        lives = bundle.admin_lives.get(asn, [])
        for life in lives:
            if life.reg_date == ERX_PLACEHOLDER_DATE:
                leftover += 1
            elif life.reg_date == original:
                repaired += 1
    print(f"  original dates restored: {repaired}")
    print(f"  placeholders left:       {leftover}")
    print(f"  (placeholder value: {to_iso(ERX_PLACEHOLDER_DATE)})")


if __name__ == "__main__":
    main()
