"""Table 2: probe filtering summary.

Times the full filtering stage over the shared world — the production
columnar classifier over the connection log's columns — and checks
the population proportions track the paper's Table 2:
dual-stack is the largest filtered class, IPv6/tags/testing are small,
and the AS-level population is the analyzable population minus the
multi-AS probes.
"""

from repro.atlas.columnar import ColumnarConnlog
from repro.core.pipeline import stage_filter_col
from repro.core.report import render_table2


def test_table2_probe_filtering(world, benchmark):
    def run_filter():
        return stage_filter_col(ColumnarConnlog.from_connlog(world.connlog),
                                world.archive, world.ip2as)

    report = benchmark.pedantic(run_filter, rounds=1, iterations=1)
    rows = dict(report.table2_rows())
    print("\n" + render_table2(list(rows.items())))

    total = rows["Total Probes"]
    assert total > 0
    # Paper ratios: dual stack 34%, never changed 28%, IPv6 2.2%,
    # tags 1.6%, behavioural multihoming 4.7%, testing 2.0%.
    assert 0.25 < rows["Dual Stack"] / total < 0.45
    assert 0.20 < rows["Never changed"] / total < 0.50
    assert rows["IPv6"] / total < 0.05
    assert rows["Multihomed / Core / Data-center (tags)"] / total < 0.04
    assert 0.02 < rows["Multihomed (alternating addresses)"] / total < 0.08
    assert rows["Only address change from 193.0.0.78"] / total < 0.04
    # Structural identities of the table.
    assert (rows["Analyzable (geography)"] - rows["Multiple ASes"]
            == rows["Analyzable (AS-level)"])
    assert rows["Analyzable (AS-level)"] > 0.1 * total
