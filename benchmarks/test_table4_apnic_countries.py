"""Table 4 — evolution of APNIC's top countries.

Paper: Australia/Korea/Japan lead in 2010; China rises by 2015; by
2021 India leads (15.7%), Australia second (14.5%), Indonesia third
(11.1%) just ahead of China (10.6%), Japan fifth (6.1%).  Also §A:
Brazil holds >70% of LACNIC by 2021, the US >92% of ARIN, and Russia
leads RIPE NCC.
"""

from repro.core import country_shares
from repro.timeline import day as mkday

from conftest import fmt_table

SNAPSHOTS = {"2010": mkday(2010, 3, 1), "2015": mkday(2015, 3, 1),
             "2021": mkday(2021, 3, 1)}


def build(bundle):
    return {
        label: country_shares(bundle.admin_lives, "apnic", as_of=day, top=5)
        for label, day in SNAPSHOTS.items()
    }


def test_table4_apnic_countries(benchmark, bundle, record_result):
    tables = benchmark(build, bundle)
    rows = []
    for rank in range(5):
        row = [f"{rank + 1}"]
        for label in SNAPSHOTS:
            cc, count, share = tables[label][rank]
            row.append(f"{cc}: {count} ({share:.1%})")
        rows.append(tuple(row))
    leaders = {
        registry: country_shares(bundle.admin_lives, registry,
                                 as_of=SNAPSHOTS["2021"], top=2)
        for registry in ("lacnic", "arin", "ripencc")
    }
    leader_rows = [
        (registry, *(f"{cc}: {count} ({share:.1%})" for cc, count, share in top))
        for registry, top in leaders.items()
    ]
    record_result(
        "table4_apnic_countries",
        fmt_table(["pos"] + list(SNAPSHOTS), rows)
        + "\n\n§A leaders, 2021-03-01:\n"
        + fmt_table(["registry", "1st", "2nd"], leader_rows),
    )

    def rank_of(label, cc):
        for i, (c, _n, _s) in enumerate(tables[label]):
            if c == cc:
                return i
        return 99

    # 2010: the old guard (AU/KR/JP) occupies the top ranks, India
    # outside the top-5 ("in 2010 it was not even in the top-5!")
    assert rank_of("2010", "AU") <= 2
    assert rank_of("2010", "IN") == 99 or rank_of("2010", "IN") > rank_of("2021", "IN")
    # 2021: India leads, Indonesia has risen into the top 3
    assert tables["2021"][0][0] == "IN"
    assert rank_of("2021", "ID") <= 2
    # India's share near the paper's 15.7%
    in_share = dict((c, s) for c, _n, s in tables["2021"])["IN"]
    assert 0.10 < in_share < 0.25

    # §A cross-checks: Brazil dominates LACNIC, the US dominates
    # ARIN, Russia leads RIPE NCC
    lacnic = leaders["lacnic"]
    assert lacnic[0][0] == "BR" and lacnic[0][2] > 0.55
    arin = leaders["arin"]
    assert arin[0][0] == "US" and arin[0][2] > 0.85
    ripe = leaders["ripencc"]
    assert ripe[0][0] == "RU" and ripe[0][2] > ripe[1][2]
