"""Fig. 4a / 4b — latency and network consumption of MBD.1/7/8/9/11 vs k.

The paper plots, for N=50, f=9 and a 1024 B payload, the latency and the
bandwidth consumption of BDopt+MBD.1 and of BDopt+MBD.1 plus one of
MBD.7, 8, 9, 11, as a function of the network connectivity k.
"""


from repro.core.modifications import ModificationSet

from benchmarks.common import (
    connectivity_series,
    current_scale,
    emit,
    emit_header,
    format_latency,
    k_grid_for,
    save_record,
)

SCALE = current_scale()

CONFIGURATIONS = {
    "BDopt + MBD.1": ModificationSet.bdopt_with_mbd1(),
    "BDopt + MBD.1/7": ModificationSet.single_mbd(7),
    "BDopt + MBD.1/8": ModificationSet.single_mbd(8),
    "BDopt + MBD.1/9": ModificationSet.single_mbd(9),
    "BDopt + MBD.1/11": ModificationSet.single_mbd(11),
}


def test_fig4_latency_and_bandwidth_vs_connectivity(benchmark):
    n, f = SCALE.fig4_n, SCALE.fig4_f
    ks = k_grid_for(n, f, SCALE.fig4_ks)

    def study():
        return connectivity_series(CONFIGURATIONS, n, f, ks, seed=17, runs=SCALE.runs)

    series = benchmark.pedantic(study, rounds=1, iterations=1)

    emit_header(
        f"Fig. 4a — latency (ms) vs connectivity, N={n}, f={f}, 1024 B (scale={SCALE.name})"
    )
    emit(f"{'configuration':>20} | " + " | ".join(f"k={k:>3}" for k in ks))
    for name, points in series.items():
        emit(
            f"{name:>20} | "
            + " | ".join(format_latency(p["latency_ms"], 5) for p in points)
        )
    emit_header(f"Fig. 4b — network consumption (kB) vs connectivity, N={n}, f={f}")
    for name, points in series.items():
        emit(
            f"{name:>20} | "
            + " | ".join(f"{p['kilobytes']:>5.1f}" for p in points)
        )
    save_record("fig4_selected_modifications", {"scale": SCALE.name, "n": n, "f": f, "series": series})

    # Shape checks: MBD.7 and MBD.11 decrease network consumption vs MBD.1
    # alone, and every configuration delivers (latency measured) everywhere.
    for name, points in series.items():
        assert all(p["latency_ms"] is not None for p in points), name
    for k_index in range(len(ks)):
        base = series["BDopt + MBD.1"][k_index]["kilobytes"]
        assert series["BDopt + MBD.1/7"][k_index]["kilobytes"] <= base * 1.05
        assert series["BDopt + MBD.1/11"][k_index]["kilobytes"] <= base * 1.05
