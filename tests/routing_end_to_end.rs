//! Cross-crate integration: routes computed by `core`, executed by `net`,
//! cross-checked against `graph` BFS.

use debruijn_suite::core::{distance, routing, DeBruijn, Word};
use debruijn_suite::graph::{bfs, DebruijnGraph};
use debruijn_suite::net::{
    workload, FaultHandling, NetError, NextHopMode, RouterKind, ShardedSimulation, SimConfig,
    WildcardPolicy,
};

/// The engine on its source-routed tier: each message executes the
/// routing-path field its source computed.
fn source_routed(space: DeBruijn, config: SimConfig) -> Result<ShardedSimulation, NetError> {
    ShardedSimulation::new(space, config, 2)?.with_next_hop(NextHopMode::Fallback)
}

#[test]
fn simulated_hop_counts_equal_bfs_distances() {
    let space = DeBruijn::new(2, 5).unwrap();
    let graph = DebruijnGraph::undirected(space).unwrap();
    let sim = source_routed(
        space,
        SimConfig {
            router: RouterKind::Algorithm4,
            ..SimConfig::default()
        },
    )
    .unwrap();

    // One message per ordered pair; the per-pair hop histogram must match
    // the BFS distance distribution exactly.
    let traffic = workload::all_pairs(space);
    let report = sim.run(&traffic);
    assert_eq!(report.delivered, traffic.len());

    let mut bfs_hist = std::collections::BTreeMap::new();
    for src in graph.nodes() {
        for (dst, d) in bfs::distances(&graph, src).into_iter().enumerate() {
            if src as usize != dst {
                *bfs_hist.entry(d as usize).or_insert(0usize) += 1;
            }
        }
    }
    assert_eq!(report.hop_histogram, bfs_hist);
}

#[test]
fn directed_simulation_matches_directed_bfs() {
    let space = DeBruijn::new(3, 3).unwrap();
    let graph = DebruijnGraph::directed(space).unwrap();
    let sim = source_routed(
        space,
        SimConfig {
            router: RouterKind::Algorithm1,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let traffic = workload::all_pairs(space);
    let report = sim.run(&traffic);
    let mut total = 0u64;
    for src in graph.nodes() {
        for d in bfs::distances(&graph, src) {
            total += u64::from(d);
        }
    }
    assert_eq!(report.total_hops, total);
}

#[test]
fn rerouted_messages_use_real_detours() {
    // Knock out nodes, reroute at the source, and verify the delivered
    // hop counts against BFS on the surviving graph.
    let space = DeBruijn::new(2, 5).unwrap();
    let graph = DebruijnGraph::undirected(space).unwrap();
    let faults: Vec<Word> = [3u128, 17, 29]
        .iter()
        .map(|&r| space.word_from_rank(r).unwrap())
        .collect();
    let fault_ids: Vec<u32> = faults.iter().map(|f| graph.rank_of(f)).collect();

    let sim = source_routed(
        space,
        SimConfig {
            fault_handling: FaultHandling::SourceReroute,
            ..SimConfig::default()
        },
    )
    .and_then(|sim| sim.with_faults(faults.clone()))
    .unwrap();

    let traffic = workload::all_pairs(space);
    let report = sim.run(&traffic);

    let mut expect_total = 0u64;
    let mut expect_delivered = 0usize;
    for x in space.vertices() {
        for y in space.vertices() {
            if x == y || faults.contains(&x) || faults.contains(&y) {
                continue;
            }
            let p = bfs::shortest_path_avoiding(
                &graph,
                graph.rank_of(&x),
                graph.rank_of(&y),
                &fault_ids,
            )
            .expect("2 < d? no: d=2, but these 3 faults keep this graph connected");
            expect_total += (p.len() - 1) as u64;
            expect_delivered += 1;
        }
    }
    assert_eq!(report.delivered, expect_delivered);
    assert_eq!(report.total_hops, expect_total);
}

#[test]
fn wildcard_policies_preserve_hop_counts() {
    let space = DeBruijn::new(2, 6).unwrap();
    let traffic = workload::uniform_random(space, 1_000, 21);
    let mut histograms = Vec::new();
    for policy in WildcardPolicy::all() {
        let sim = source_routed(
            space,
            SimConfig {
                policy,
                router: RouterKind::Algorithm2,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let report = sim.run(&traffic);
        assert_eq!(report.delivered, traffic.len(), "{}", policy.name());
        histograms.push(report.hop_histogram);
    }
    // The resolution policy must never change route lengths.
    for h in &histograms[1..] {
        assert_eq!(h, &histograms[0]);
    }
}

#[test]
fn every_router_defeats_or_ties_the_trivial_baseline_per_message() {
    let space = DeBruijn::new(2, 6).unwrap();
    for x in space.vertices().take(8) {
        for y in space.vertices().take(32) {
            let trivial = RouterKind::Trivial.route(&x, &y).len();
            let alg1 = RouterKind::Algorithm1.route(&x, &y).len();
            let alg2 = RouterKind::Algorithm2.route(&x, &y).len();
            assert!(alg1 <= trivial);
            assert!(alg2 <= alg1);
            let _ = distance::directed::distance(&x, &y);
        }
    }
}

#[test]
fn route_wire_format_survives_network_transit() {
    // Encode a route, decode it (as a receiving node would), and verify
    // the decoded route still drives the message home.
    let x = Word::parse(2, "011010").unwrap();
    let y = Word::parse(2, "110001").unwrap();
    let route = routing::algorithm4(&x, &y);
    let wire = route.encode(2);
    let decoded = debruijn_suite::core::RoutePath::decode(2, &wire).unwrap();
    assert!(decoded.leads_to(&x, &y));
}
