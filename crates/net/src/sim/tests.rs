//! The §3 protocol end to end: what a simulation promises, checked on
//! the source-routed fallback tier (the routing-path field the paper
//! describes) unless a test compares it with the next-hop tiers.

use std::collections::HashMap;

use debruijn_core::{directed_average_distance, distance, Word};
use debruijn_graph::DebruijnGraph;

use crate::record::InMemoryRecorder;
use crate::shard::tests::{collected, sim as tier, space};
use crate::{
    workload, FaultHandling, Injection, LinkParams, NetError, NetEvent, NextHopMode, RouterKind,
    ShardedSimulation, SimConfig, WildcardPolicy,
};

/// The source-routed simulation of `DG(d, k)`, with the nodes of rank
/// `faults` declared faulty.
fn sim(d: u8, k: usize, config: SimConfig, faults: &[u128]) -> ShardedSimulation {
    tier(space(d, k), config, NextHopMode::Fallback, faults)
}

fn routed(router: RouterKind) -> SimConfig {
    SimConfig {
        router,
        ..SimConfig::default()
    }
}

fn reroute() -> SimConfig {
    SimConfig {
        fault_handling: FaultHandling::SourceReroute,
        ..SimConfig::default()
    }
}

fn random(router: RouterKind, seed: u64) -> SimConfig {
    SimConfig {
        policy: WildcardPolicy::Random,
        seed,
        ..routed(router)
    }
}

/// `n` messages injected at tick 0 from rank `x` to rank `y` of `DG(2, 4)`.
fn same_pair(x: u128, y: u128, n: usize) -> Vec<Injection> {
    let sp = space(2, 4);
    let injection = Injection {
        time: 0,
        source: sp.word_from_rank(x).expect("rank in range"),
        destination: sp.word_from_rank(y).expect("rank in range"),
    };
    vec![injection; n]
}

#[test]
fn every_message_is_delivered_without_faults() {
    let traffic = workload::uniform_random(space(2, 4), 300, 42);
    for router in RouterKind::all() {
        for mode in [NextHopMode::Auto, NextHopMode::Fallback] {
            let r = tier(space(2, 4), routed(router), mode, &[]).run(&traffic);
            assert_eq!(r.delivered, 300, "{} {mode:?}", router.name());
            assert_eq!(r.dropped, 0);
            assert_eq!(r.injected, 300);
        }
    }
}

#[test]
fn hop_counts_match_exact_distances() {
    // Under all-pairs traffic, total hops must equal the exact sum of
    // distances over ordered pairs with x != y.
    let sp = space(2, 4);
    let r = sim(2, 4, routed(RouterKind::Algorithm2), &[]).run(&workload::all_pairs(sp));
    let mut want_total = 0usize;
    let mut count = 0usize;
    for x in sp.vertices() {
        for y in sp.vertices() {
            if x != y {
                want_total += distance::undirected::distance(&x, &y);
                count += 1;
            }
        }
    }
    assert_eq!(r.delivered, count);
    assert_eq!(r.total_hops, want_total as u64);
}

#[test]
fn directed_router_matches_exact_average_and_approximates_eq5() {
    // All-pairs traffic with Algorithm 1: total hops equal the exact
    // sum of directed distances. The paper's Eq. (5) closed form
    // treats the overlap as geometric and is only an upper-bound
    // approximation (see EXPERIMENTS.md E1); check it is close.
    let sp = space(2, 5);
    let n = sp.order_usize().expect("enumerable") as f64;
    let r = sim(2, 5, routed(RouterKind::Algorithm1), &[]).run(&workload::all_pairs(sp));
    let mut exact_total = 0usize;
    for x in sp.vertices() {
        for y in sp.vertices() {
            exact_total += distance::directed::distance(&x, &y);
        }
    }
    assert_eq!(r.total_hops, exact_total as u64);
    let exact_avg = exact_total as f64 / (n * n);
    let eq5 = directed_average_distance(2, 5);
    assert!(eq5 >= exact_avg, "Eq. 5 over-counts overlaps, never under");
    // For d = 2 the gap converges to ≈ 0.53 hops (see E1).
    assert!(
        eq5 - exact_avg < 0.6,
        "Eq. 5 gap too large: {eq5} vs {exact_avg}"
    );
}

#[test]
fn trivial_router_always_takes_k_hops() {
    let traffic = workload::uniform_random(space(3, 3), 100, 9);
    let r = sim(3, 3, routed(RouterKind::Trivial), &[]).run(&traffic);
    assert_eq!(r.delivered, 100);
    assert_eq!(r.hop_histogram.keys().copied().collect::<Vec<_>>(), vec![3]);
}

#[test]
fn latency_reflects_link_parameters_in_light_traffic() {
    // One message at a time: latency = hops * (service + latency).
    let link = LinkParams {
        latency: 3,
        service: 2,
    };
    let config = SimConfig {
        link,
        ..routed(RouterKind::Algorithm4)
    };
    let mut traffic = workload::uniform_random(space(2, 4), 50, 5);
    for (i, inj) in traffic.iter_mut().enumerate() {
        inj.time = (i as u64) * 1000; // no queueing
    }
    let r = sim(2, 4, config, &[]).run(&traffic);
    assert_eq!(r.delivered, 50);
    assert_eq!(r.latency_total, r.total_hops * 5);
}

#[test]
fn reports_are_identical_for_any_thread_count() {
    // The worker count must be invisible in the results, for every
    // router and even under faults (the BFS reroutes are deterministic
    // too).
    let traffic = workload::uniform_random(space(2, 5), 400, 13);
    let healthy = RouterKind::all().map(|router| (routed(router), &[][..]));
    for (config, faults) in healthy.into_iter().chain([(reroute(), &[9][..])]) {
        let run = |threads| {
            let config = SimConfig { threads, ..config };
            sim(2, 5, config, faults).run(&traffic)
        };
        let serial = run(1);
        for threads in [0, 2, 8] {
            assert_eq!(serial, run(threads), "{config:?}");
        }
    }
}

#[test]
fn deterministic_given_seed() {
    let traffic = workload::uniform_random(space(2, 5), 200, 11);
    let config = random(RouterKind::Algorithm2, SimConfig::default().seed);
    let a = sim(2, 5, config, &[]).run(&traffic);
    let b = sim(2, 5, config, &[]).run(&traffic);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_can_differ_under_random_policy() {
    let traffic = workload::uniform_random(space(2, 5), 200, 11);
    let a = sim(2, 5, random(RouterKind::Algorithm2, 1), &[]).run(&traffic);
    let b = sim(2, 5, random(RouterKind::Algorithm2, 2), &[]).run(&traffic);
    // Hop counts are identical (routes are the same length); link
    // loads will almost surely differ.
    assert_eq!(a.total_hops, b.total_hops);
    assert_ne!(a.link_loads, b.link_loads);
}

#[test]
fn traced_run_matches_untraced_and_is_complete() {
    let traffic = workload::uniform_random(space(2, 4), 150, 4);
    for mode in [NextHopMode::Dense, NextHopMode::Fallback] {
        let s = tier(space(2, 4), SimConfig::default(), mode, &[]);
        let (traced, trace) = collected(&s, &traffic);
        assert_eq!(s.run(&traffic), traced, "{mode:?}");
        // Every message gets exactly one terminal event.
        let mut terminal = vec![0usize; traffic.len()];
        for ev in &trace {
            if matches!(ev, NetEvent::Deliver { .. } | NetEvent::Drop { .. }) {
                terminal[ev.message()] += 1;
            }
        }
        assert!(
            terminal.iter().all(|&c| c == 1),
            "terminal events on {mode:?}: {terminal:?}"
        );
        // Forward counts match the reported hop total.
        let forwards = trace
            .iter()
            .filter(|e| matches!(e, NetEvent::Forward { .. }))
            .count();
        assert_eq!(forwards as u64, traced.total_hops, "{mode:?}");
    }
}

#[test]
fn recorded_run_matches_unrecorded_report() {
    // The recorder must observe, never perturb: identical reports
    // with and without a sink, under the random policy on source routes
    // and on the dense table.
    let traffic = workload::uniform_random(space(2, 5), 200, 21);
    let runs = [
        (
            random(RouterKind::Algorithm4, SimConfig::default().seed),
            NextHopMode::Fallback,
        ),
        (SimConfig::default(), NextHopMode::Dense),
    ];
    for (config, mode) in runs {
        let s = tier(space(2, 5), config, mode, &[]);
        let plain = s.run(&traffic);
        let mut metrics = InMemoryRecorder::new();
        let recorded = s.run_recorded(&traffic, &mut metrics);
        assert_eq!(plain, recorded, "{mode:?}");
        assert_eq!(metrics.delivered, recorded.delivered as u64);
        assert_eq!(metrics.hops.sum(), u128::from(recorded.total_hops));
        assert_eq!(metrics.latency.sum(), u128::from(recorded.latency_total));
        assert_eq!(
            metrics.queue_wait.sum(),
            u128::from(recorded.total_queue_wait)
        );
        assert_eq!(
            metrics.queue_wait.max().unwrap_or(0),
            recorded.max_queue_wait
        );
        assert_eq!(metrics.per_hop_latency.count(), recorded.total_hops);
    }
}

#[test]
fn recorded_hops_equal_distance_per_message() {
    // End to end: with an optimal router, every recorded delivery takes
    // exactly `distance::undirected::distance(source, destination)`
    // hops — the stretch histogram is identically zero.
    let traffic = workload::uniform_random(space(2, 5), 300, 17);
    let mut metrics = InMemoryRecorder::new();
    let report =
        sim(2, 5, routed(RouterKind::Algorithm4), &[]).run_recorded(&traffic, &mut metrics);
    assert_eq!(report.delivered, 300);
    assert_eq!(metrics.stretch.count(), 300);
    assert_eq!(
        metrics.stretch.max(),
        Some(0),
        "optimal routes have zero stretch"
    );
    // And the trivial router pays the difference: stretch = k − D.
    let mut trivial = InMemoryRecorder::new();
    sim(2, 5, routed(RouterKind::Trivial), &[]).run_recorded(&traffic, &mut trivial);
    assert_eq!(trivial.hops.min(), Some(5), "trivial always walks k hops");
    assert!(trivial.stretch.max().expect("deliveries recorded") > 0);
}

#[test]
fn wildcard_resolutions_are_recorded_per_policy_and_digit() {
    // Algorithm 4 emits wildcard steps whenever |route| < k; the
    // recorder must attribute each resolution to the configured
    // policy, and least-loaded must use every digit under symmetric
    // load.
    let traffic = workload::all_pairs(space(2, 4));
    for policy in WildcardPolicy::all() {
        let config = SimConfig {
            policy,
            ..routed(RouterKind::Algorithm4)
        };
        let mut metrics = InMemoryRecorder::new();
        sim(2, 4, config, &[]).run_recorded(&traffic, &mut metrics);
        assert!(metrics.wildcards_resolved() > 0, "{}", policy.name());
        assert_eq!(
            metrics.wildcard_by_policy.get(policy.name()),
            Some(&metrics.wildcards_resolved()),
            "{}",
            policy.name()
        );
        let digits_used = metrics.wildcard_by_digit.len();
        match policy {
            WildcardPolicy::Zero => assert_eq!(digits_used, 1),
            _ => assert_eq!(
                digits_used,
                2,
                "{} must spread over both digits",
                policy.name()
            ),
        }
    }
}

#[test]
fn drops_are_recorded_with_reasons() {
    let traffic = workload::all_pairs(space(2, 4));
    let mut metrics = InMemoryRecorder::new();
    let report = sim(2, 4, SimConfig::default(), &[9]).run_recorded(&traffic, &mut metrics);
    assert_eq!(metrics.dropped(), report.dropped as u64);
    // All-pairs traffic hits the fault as source and in transit, and
    // the recorder distinguishes them.
    assert!(metrics.drops_by_reason.contains_key("faulty-source"));
    assert!(metrics.drops_by_reason.contains_key("faulty-node"));
}

#[test]
fn reroutes_are_recorded_under_source_reroute() {
    let sp = space(2, 4);
    let traffic = workload::all_pairs(sp);
    let mut metrics = InMemoryRecorder::new();
    let report = sim(2, 4, reroute(), &[9]).run_recorded(&traffic, &mut metrics);
    // Every message whose source survives goes through the BFS
    // rerouter (sources know the fault set), but a Reroute event is
    // only recorded when BFS actually finds a detour: pairs aimed at
    // the dead node drop with NoRoute instead.
    let n = sp.order_usize().expect("enumerable");
    assert_eq!(metrics.reroutes, (report.injected - 2 * (n - 1)) as u64);
    assert_eq!(metrics.drops_by_reason["no-route"], (n - 1) as u64);
    assert_eq!(metrics.drops_by_reason["faulty-source"], (n - 1) as u64);
}

#[test]
fn links_serve_fifo_with_service_spacing() {
    // Saturate the network and check, per link, that departure times
    // are spaced at least one service apart (no double-booking) and
    // never precede the handover.
    let sp = space(2, 4);
    let traffic: Vec<Injection> = [1, 2]
        .iter()
        .flat_map(|&seed| workload::permutation(sp, seed))
        .collect();
    let (_, trace) = collected(&sim(2, 4, SimConfig::default(), &[]), &traffic);
    let mut last_depart: HashMap<(u128, u128), u64> = HashMap::new();
    // The trace is produced in event order, which is handover order.
    for ev in &trace {
        if let NetEvent::Forward {
            from,
            to,
            time,
            departs,
            ..
        } = ev
        {
            assert!(departs >= time, "link serves before handover");
            if let Some(prev) = last_depart.insert((from.rank(), to.rank()), *departs) {
                assert!(
                    *departs > prev,
                    "link {from}->{to} double-booked: {prev} then {departs}"
                );
            }
        }
    }
}

#[test]
fn queue_wait_is_zero_in_unloaded_network() {
    let mut traffic = workload::uniform_random(space(2, 4), 40, 8);
    for (i, inj) in traffic.iter_mut().enumerate() {
        inj.time = (i as u64) * 100;
    }
    let r = sim(2, 4, SimConfig::default(), &[]).run(&traffic);
    assert_eq!(r.total_queue_wait, 0);
    assert_eq!(r.max_queue_wait, 0);
}

#[test]
fn queue_wait_appears_under_contention() {
    let r = sim(2, 4, SimConfig::default(), &[]).run(&same_pair(2, 11, 8));
    assert!(
        r.max_queue_wait >= 7,
        "8 simultaneous messages share the first link"
    );
}

#[test]
fn queue_depth_counts_messages_ahead() {
    // 8 identical messages at t = 0 share the first link: the i-th
    // handover sees exactly i messages ahead of it.
    let mut metrics = InMemoryRecorder::new();
    sim(2, 4, SimConfig::default(), &[]).run_recorded(&same_pair(2, 11, 8), &mut metrics);
    assert_eq!(metrics.queue_depth.max(), Some(7));
    assert_eq!(metrics.queue_depth.min(), Some(0));
}

#[test]
fn multipath_router_keeps_routes_shortest() {
    let traffic = workload::all_pairs(space(2, 5));
    let single = sim(2, 5, routed(RouterKind::Algorithm2), &[]).run(&traffic);
    let multi = sim(2, 5, routed(RouterKind::Multipath), &[]).run(&traffic);
    // Same hop distribution (all routes are shortest) …
    assert_eq!(single.hop_histogram, multi.hop_histogram);
    // … but spread over at least as many links as the deterministic
    // single-path choice under this all-pairs load.
    assert!(
        multi.link_load_summary().links_used >= single.link_load_summary().links_used,
        "multipath should never use fewer links"
    );
}

#[test]
fn hop_by_hop_matches_source_routing_hop_counts() {
    // The dense next-hop table forwards hop by hop; the fallback tier
    // pops the source's routing path. Both walk shortest routes.
    let traffic = workload::all_pairs(space(2, 5));
    for router in [RouterKind::Algorithm1, RouterKind::Algorithm2] {
        let src_routed = sim(2, 5, routed(router), &[]).run(&traffic);
        let hop_by_hop = tier(space(2, 5), routed(router), NextHopMode::Dense, &[]).run(&traffic);
        assert_eq!(
            src_routed.hop_histogram,
            hop_by_hop.hop_histogram,
            "{}",
            router.name()
        );
        assert_eq!(hop_by_hop.delivered, traffic.len());
    }
}

#[test]
fn ttl_exhaustion_drops_and_is_attributed() {
    // The trivial router always walks k hops, so ttl < k kills every
    // message with reason "ttl"; ttl >= k changes nothing.
    let traffic = workload::uniform_random(space(2, 4), 120, 6);
    let run = |ttl| {
        let config = SimConfig {
            ttl,
            ..routed(RouterKind::Trivial)
        };
        sim(2, 4, config, &[]).run(&traffic)
    };
    let starved = run(3);
    assert_eq!(starved.delivered, 0);
    assert_eq!(starved.dropped, 120);
    assert_eq!(starved.dropped_by_reason.get("ttl"), Some(&120));
    let generous = run(4);
    assert_eq!(generous.delivered, 120);
    assert!(generous.dropped_by_reason.is_empty());
    assert_eq!(run(0).delivered, 120);
}

#[test]
fn dropped_by_reason_sums_to_dropped() {
    let traffic = workload::all_pairs(space(2, 4));
    let mut metrics = InMemoryRecorder::new();
    let r = sim(2, 4, SimConfig::default(), &[9]).run_recorded(&traffic, &mut metrics);
    assert!(r.dropped > 0);
    assert_eq!(r.dropped_by_reason.values().sum::<u64>(), r.dropped as u64);
    // The report's breakdown is exactly the recorder's view.
    assert_eq!(r.dropped_by_reason, metrics.drops_by_reason);
}

#[test]
fn conservation_messages_are_delivered_or_dropped_once() {
    let traffic = workload::uniform_random(space(2, 4), 400, 3);
    let r = sim(2, 4, SimConfig::default(), &[5]).run(&traffic);
    assert_eq!(r.delivered + r.dropped, r.injected);
}

#[test]
fn drop_mode_loses_messages_crossing_the_fault() {
    let traffic = workload::all_pairs(space(2, 4));
    let r = sim(2, 4, SimConfig::default(), &[9]).run(&traffic);
    assert!(r.dropped > 0, "some route must cross rank 9");
    assert_eq!(r.delivered + r.dropped, r.injected);
}

#[test]
fn source_reroute_only_loses_faulty_endpoints() {
    let sp = space(2, 4);
    let r = sim(2, 4, reroute(), &[9]).run(&workload::all_pairs(sp));
    // Exactly the pairs touching the fault are lost: 2·(N−1) of them
    // (fault as source, fault as destination).
    let n = sp.order_usize().expect("enumerable");
    assert_eq!(r.dropped, 2 * (n - 1));
    assert_eq!(r.delivered, r.injected - 2 * (n - 1));
}

#[test]
fn with_faults_rejects_foreign_words() {
    let s = ShardedSimulation::new(space(2, 4), SimConfig::default(), 1).expect("default");
    let foreign = Word::parse(3, "0120").expect("valid word");
    let err = s.with_faults(vec![foreign]).expect_err("foreign word");
    assert!(matches!(err, NetError::ForeignWord { .. }));
}

#[test]
fn total_links_matches_census() {
    // Bidirectional: sum of undirected degrees = 2 · |E|.
    let r = sim(2, 3, routed(RouterKind::Algorithm2), &[]).run(&[]);
    let g = DebruijnGraph::undirected(space(2, 3)).expect("small graph");
    assert_eq!(r.total_links, g.adjacency_count());
}

#[test]
fn congestion_delays_messages_on_shared_links() {
    // Many messages between the same pair at time 0 must serialize on
    // the first link.
    let r = sim(2, 4, routed(RouterKind::Algorithm2), &[]).run(&same_pair(1, 14, 10));
    assert_eq!(r.delivered, 10);
    // With service 1, the 10th message leaves the first link 9 ticks
    // late: max latency strictly exceeds the uncongested latency.
    let uncongested = (r.total_hops / 10) * 2;
    assert!(r.latency_max > uncongested);
}
