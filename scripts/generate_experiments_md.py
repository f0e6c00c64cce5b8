#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from the reports under results/.

    repro run all --full --out results           # produces results/*.txt
    python scripts/generate_experiments_md.py    # rewrites EXPERIMENTS.md
"""

import pathlib
import sys

HEADER_MARK = "<!-- RESULTS -->"

ORDER = [
    "table1", "table2", "table3", "table4", "fig3", "fig5", "fig6", "fig7",
    "table5", "fig9", "fig10", "fig11", "fig12", "fig13", "table6", "table7",
    "faults_pingpong", "faults_cg", "coll_hier",
]

PAPER_SUMMARY = {
    "table1": "Feature matrix of the four implementations (§2.1.7).",
    "table2": "NPB communication features from an instrumented MPI (§3.1).",
    "table3": "Host specifications of the Rennes/Nancy clusters (§3.2).",
    "table4": "One-byte latency: TCP 41/5812 us, MPI adds 5-21 us (§4.1).",
    "fig3": "Grid bandwidth collapse with default parameters: <= 120 Mbps (§4.1).",
    "fig5": "Cluster reference: every implementation reaches 940 Mbps (§4.1).",
    "fig6": "After TCP tuning: ~900 Mbps, threshold dip persists except GridMPI (§4.2.1).",
    "fig7": "After TCP+MPI tuning: all match TCP; OpenMPI lower on big messages (§4.2.2).",
    "table5": "Ideal eager/rendezvous threshold: 65 MB (32 MB for OpenMPI) (§4.2.2).",
    "fig9": "Slow-start ramp of 1 MB stream: TCP/GridMPI ~2 s to 500 Mbps, others ~4 s (§4.2.3).",
    "fig10": "NPB 8+8: GridMPI wins FT/IS big; MPICH2 best on LU; Madeleine DNF on BT/SP (§4.3).",
    "fig11": "Same at 2+2 nodes (§4.3).",
    "fig12": "Grid vs cluster at 16 ranks: EP ~1, LU/BT good, CG/MG/IS poor (§4.3).",
    "fig13": "16 grid nodes vs 4 cluster nodes: everything gains; LU/BT near 4x (§4.3).",
    "table6": "ray2mesh rays track CPU speed; Sophia computes the most (§4.4).",
    "table7": "ray2mesh times are insensitive to master placement (§4.4).",
    "faults_pingpong": (
        "Beyond the paper: goodput of the tuned grid pingpong under seeded "
        "WAN packet loss (0-10%), per implementation."
    ),
    "faults_cg": (
        "Beyond the paper: NPB CG (8+8 grid) wall time under seeded WAN "
        "latency jitter (0-50% of the base RTT)."
    ),
    "coll_hier": (
        "Beyond the paper: §2.1 credits MPICH-G2's topology-aware "
        "collectives; this experiment generalises its bcast hierarchy "
        "to reduce/allreduce/gather and compares each against "
        "MPICH2's flat default on the cyclically-placed 8+8 grid, timing "
        "one call per size and counting WAN crossings."
    ),
}

# Extra per-experiment pointers rendered after the paper summary.
DIAGNOSIS = {
    "fig7": (
        "`repro explain fig7` measures the mechanism behind this figure: "
        "it counts the rendezvous handshakes per message around each "
        "implementation's eager threshold and prices them at the grid RTT, "
        "showing why Fig. 6 dips at 128 kB and why the Table 5 thresholds "
        "(this figure) remove the dip."
    ),
    "fig9": (
        "`repro explain fig9` replays the stream with the telemetry "
        "recorder on and lines up each stack's congestion-window samples, "
        "slow-start exit time and loss count next to its time-to-500-Mbps, "
        "with an ASCII cwnd-ramp chart per stack."
    ),
    "fig10": (
        "`repro explain fig10` replays the NPB campaign with the span "
        "recorder on and breaks each kernel's rank time into its "
        "`npb.phase.*` spans (tick-exact, grid vs cluster side by side), "
        "then aggregates the site-tagged `tcp.transmit`/`rndv.handshake` "
        "spans into a WAN-time matrix per site pair — naming the phase "
        "and the inter-site link that the grid slowdown lives in.  "
        "`repro flame fig10` renders the same payload as a flamegraph."
    ),
    "coll_hier": (
        "`repro explain coll_hier` counts what actually crosses the WAN: "
        "per-call inter-site messages and bytes for the flat and "
        "hierarchical variants, showing the O(P) -> O(sites) crossing "
        "reduction, the byte savings of combining partials before the "
        "WAN (reduce/allreduce), and why gather's irreducible volume "
        "limits its win."
    ),
}


def main() -> int:
    root = pathlib.Path(__file__).resolve().parents[1]
    results = root / "results"
    md = root / "EXPERIMENTS.md"
    head = md.read_text().split(HEADER_MARK)[0] + HEADER_MARK + "\n"

    sections = [head]
    for experiment_id in ORDER:
        path = results / f"{experiment_id}.txt"
        sections.append(f"\n## {experiment_id}\n")
        sections.append(f"*Paper:* {PAPER_SUMMARY[experiment_id]}\n")
        if experiment_id in DIAGNOSIS:
            sections.append(f"\n*Diagnose:* {DIAGNOSIS[experiment_id]}\n")
        if path.exists():
            sections.append("```text\n" + path.read_text().rstrip() + "\n```\n")
        else:
            sections.append("_(no result file; run repro run all --full --out results)_\n")

    sections.append(
        "\n## Known deviations\n\n"
        "* Absolute NPB times are simulated with calibrated op counts and\n"
        "  per-kernel sustained-efficiency factors; only ratios are compared.\n"
        "* The default-parameter curves (Figs. 3/5) show a short burst hump\n"
        "  where the message size crosses the default socket buffer\n"
        "  (~128-256 kB): a single sub-window burst travels at line rate in\n"
        "  the fluid model. The paper's '<= 120 Mbps' statement holds for\n"
        "  every other size.\n"
        "* Fig. 9's time axis is ~1.8x the paper's because the reproduced\n"
        "  pingpong echoes the full 1 MB payload (both directions ramp);\n"
        "  orderings and the ~570 Mbps ceiling match.\n"
        "* Table 2's FT/IS rows use the paper's own characterisation\n"
        "  (broadcast-dominated FT); the underlying message counts follow\n"
        "  our collective decompositions, not [Faraj & Yuan]'s accounting.\n"
        "* MPICH-Madeleine's BT/SP timeout is a known failure of the\n"
        "  implementation model: the paper observed the hang without a\n"
        "  published root cause, so the run is not simulated and its time\n"
        "  is inf (rendered 0.000 in Figs. 10-13) rather than an invented\n"
        "  mechanism.\n"
        "* Fig. 13's absolute speedups run below the paper's (LU 2.9 vs\n"
        "  ~4, SP 1.6 vs >=3): the model's 4-node cluster reference is\n"
        "  comparatively fast because intra-cluster communication is cheap\n"
        "  here, compressing the ratio. Orderings (EP > LU/BT > FT/SP >\n"
        "  MG > CG > IS) match, as does the headline: the grid gains for\n"
        "  every kernel but the latency-dominated integer sort.\n"
    )
    md.write_text("".join(sections))
    print(f"wrote {md}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
