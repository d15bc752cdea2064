#!/usr/bin/env python
"""Distributed training scenario: GCN across a simulated 8-worker
shared-nothing cluster, with ADB workload balancing and pipeline
processing.

Walks through the §5 machinery end-to-end:

1. partition the graph with a conventional partitioner;
2. inspect the workload skew ADB sees through its learned cost model;
3. rebalance with ADB (BFS-grown plans, minimum induced-graph cut);
4. train with and without pipeline processing and compare simulated
   epoch times (compute measured for real, network modeled alpha-beta).

Run:  python examples/distributed_training.py
"""

import numpy as np

from repro.core import ADBBalancer, FlexGraphEngine, metrics_from_hdg
from repro.datasets import twitter_like
from repro.distributed import DistributedTrainer
from repro.graph import balance_factor, edge_cut
from repro.models import gcn
from repro.tensor import Adam, Tensor

K = 8


def main() -> None:
    dataset = twitter_like(num_vertices=3000, seed=11)
    graph = dataset.graph
    print(f"dataset: {dataset}")

    # 1. Static partition: contiguous blocks (vertex-balanced, cheap).
    n = graph.num_vertices
    static = np.minimum(np.arange(n) * K // n, K - 1)

    # 2. What does the workload look like per partition?
    probe = gcn(dataset.feat_dim, 32, dataset.num_classes)
    hdg = FlexGraphEngine(probe, graph).hdg_for_layer(0)
    metrics = metrics_from_hdg(hdg, dataset.feat_dim)
    balancer = ADBBalancer(num_plans=5, threshold=1.05, seed=0)
    costs = balancer.per_root_costs(metrics)
    print(f"\nstatic partition: balance factor "
          f"{balance_factor(costs, static, K):.2f}, "
          f"edge cut {edge_cut(graph, static)}")

    # 3. ADB migrations until balanced.
    labels = static.copy()
    for round_no in range(10):
        labels, plan = balancer.rebalance(hdg, labels, K, metrics)
        if plan is None:
            break
        print(f"  round {round_no}: moved {plan.moved.size} vertices "
              f"{plan.source_partition} -> {plan.target_partition}, "
              f"balance {plan.balance_factor:.2f}, cut {plan.cut_edges}")
    print(f"ADB partition: balance factor "
          f"{balance_factor(costs, labels, K):.2f}, "
          f"edge cut {edge_cut(graph, labels)}")

    # 4. Train distributed, with and without pipeline processing.
    features = Tensor(dataset.features)
    for pipeline in (False, True):
        model = gcn(dataset.feat_dim, 32, dataset.num_classes, seed=0,
                    aggregator="mean")
        trainer = DistributedTrainer(model, graph, labels, pipeline=pipeline)
        optimizer = Adam(model.parameters(), lr=0.01)
        total = 0.0
        for epoch in range(5):
            stats = trainer.train_epoch(
                features, dataset.labels, optimizer, dataset.train_mask, epoch
            )
            total += stats.seconds
        label = "with" if pipeline else "without"
        print(f"\n{label} pipeline processing: "
              f"{total / 5:.4f}s simulated per epoch "
              f"({stats.total_messages} messages, "
              f"{stats.total_bytes / 1e6:.1f} MB per epoch), "
              f"final loss {stats.loss:.4f}")


if __name__ == "__main__":
    main()
