#!/usr/bin/env python
"""Section III trace analysis on a synthesized YouTube crawl.

Reproduces the paper's trace study: synthesizes a social network with
the crawl's statistical structure and prints the data behind Figs 2-13
plus the O1-O5 observation verdicts.  The paper sampled YouTube by BFS
only because the whole graph was out of reach; the synthetic corpus is
held in full, so the analysis runs on all of it.

Run:  python examples/trace_analysis.py
"""

from repro.analysis.clustering import build_channel_graph, shared_subscriber_histogram
from repro.analysis.figures import TraceAnalysis
from repro.trace.synthesizer import TraceConfig, synthesize_trace


def main() -> None:
    dataset = synthesize_trace(TraceConfig(seed=42))
    print("Synthetic corpus:", dataset.summary())

    analysis = TraceAnalysis(dataset)
    for figure in analysis.all_figures():
        print()
        print("\n".join(figure.render_rows(max_rows=6)))

    print()
    graph = build_channel_graph(dataset, threshold=15, per_category=5)
    random_baseline = 1.0 / max(1, dataset.num_categories)
    print(
        f"Fig 10: {graph.num_nodes} top channels, {graph.num_edges} edges "
        f"(>=15 shared subscribers); intra-category edge fraction "
        f"{graph.intra_category_edge_fraction():.3f} vs random baseline "
        f"{random_baseline:.3f}"
    )
    histogram = shared_subscriber_histogram(dataset, per_category=5)
    print(f"        shared-subscriber histogram tail: {histogram[-5:]}")

    print()
    print("Observation verdicts:")
    for name, verdict in analysis.check_observations().items():
        print(f"  [{'PASS' if verdict else 'FAIL'}] {name}")


if __name__ == "__main__":
    main()
