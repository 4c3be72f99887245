//! The simulator experiments' tables (E6–E8) as data.
//!
//! Each generator runs its experiment at full size and returns the
//! rows: the `exp_*` bench prints them, `tests/golden/experiments/*.csv`
//! pins them, and EXPERIMENTS.md quotes their Markdown rendering, so a
//! changed simulator or a hand-edited number fails `cargo test`. The
//! generators also assert each experiment's invariants (analytic hop
//! counts, policy-independent hops, reroute losses).

use debruijn_analysis::{average, Table};
use debruijn_core::rng::SplitMix64;
use debruijn_core::{DeBruijn, Word};
use debruijn_graph::{connectivity, fault, DebruijnGraph};
use debruijn_net::{
    workload, FaultHandling, Injection, NextHopMode, RouterKind, ShardedSimulation, SimConfig,
    SimReport, WildcardPolicy,
};

/// The networks E6 and E8 sweep.
const SPACES: [(u8, usize); 3] = [(2, 6), (3, 4), (4, 3)];

fn table(headers: &[&str]) -> Table {
    Table::new(headers.iter().map(|h| h.to_string()).collect())
}

fn network(space: DeBruijn) -> String {
    format!("DN({},{})", space.d(), space.k())
}

/// Runs `traffic` with `faults` declared, on the source-routed tier for
/// every row, so each message executes §3's routing-path field.
fn simulate(
    space: DeBruijn,
    config: SimConfig,
    faults: &[Word],
    traffic: &[Injection],
) -> SimReport {
    ShardedSimulation::new(space, config, 1)
        .and_then(|sim| sim.with_next_hop(NextHopMode::Fallback))
        .and_then(|sim| sim.with_faults(faults.to_vec()))
        .expect("valid configuration")
        .run(traffic)
}

/// E6: all-pairs traffic under every router, against the exact
/// analytic averages (rescaled to exclude the self-pairs the traffic
/// omits).
///
/// # Panics
///
/// Panics if a simulated mean diverges from its analytic value.
pub fn simulation_hops() -> Table {
    let mut rows = table(&[
        "network",
        "router",
        "mean hops",
        "analytic",
        "max hops",
        "delivered",
    ]);
    for (d, k) in SPACES {
        let space = DeBruijn::new(d, k).expect("valid parameters");
        let n = space.order_usize().expect("enumerable") as f64;
        let traffic = workload::all_pairs(space);
        let rescale = n * n / (n * n - n);
        let exact_dir = average::exact_directed(space) * rescale;
        let exact_und = average::exact_undirected(space) * rescale;
        for router in RouterKind::all() {
            let config = SimConfig {
                router,
                ..SimConfig::default()
            };
            let report = simulate(space, config, &[], &traffic);
            let analytic = match router {
                RouterKind::Trivial => k as f64,
                RouterKind::Algorithm1 => exact_dir,
                RouterKind::Algorithm2 | RouterKind::Algorithm4 | RouterKind::Multipath => {
                    exact_und
                }
            };
            assert!(
                (report.mean_hops() - analytic).abs() < 1e-9,
                "simulated hops diverge from analytic for {}",
                router.name()
            );
            rows.row(vec![
                network(space),
                router.name().to_string(),
                format!("{:.4}", report.mean_hops()),
                format!("{analytic:.4}"),
                report.max_hops().to_string(),
                report.delivered.to_string(),
            ]);
        }
    }
    rows
}

/// E7: bursty permutation and hotspot traffic on `DN(2,7)` under each
/// wildcard policy, then multipath routing with random wildcards.
///
/// # Panics
///
/// Panics if a message is lost or a policy changes the total hops.
pub fn wildcard_balancing() -> Table {
    let mut rows = table(&[
        "workload",
        "policy",
        "max load",
        "load std",
        "mean latency",
        "max latency",
        "makespan",
    ]);
    let space = DeBruijn::new(2, 7).expect("valid parameters");
    // Bursty permutation traffic (a round every 4 ticks) stresses queues.
    let permutation: Vec<Injection> = (0..40)
        .flat_map(|round| {
            workload::permutation(space, round)
                .into_iter()
                .map(move |mut inj| {
                    inj.time = round * 4;
                    inj
                })
        })
        .collect();
    let hot = space.word_from_rank(85).expect("rank in range");
    let hotspot = workload::hotspot(space, 8_000, &hot, 0.4, 0xE7);
    for (name, traffic) in [("permutation", &permutation), ("hotspot", &hotspot)] {
        let configs = WildcardPolicy::all()
            .map(|policy| (policy.name(), RouterKind::Algorithm2, policy))
            .into_iter()
            .chain([(
                "multipath+random",
                RouterKind::Multipath,
                WildcardPolicy::Random,
            )]);
        let mut hops = None;
        for (label, router, policy) in configs {
            let config = SimConfig {
                router,
                policy,
                ..SimConfig::default()
            };
            let report = simulate(space, config, &[], traffic);
            assert_eq!(report.delivered, traffic.len(), "{label}");
            assert_eq!(
                *hops.get_or_insert(report.total_hops),
                report.total_hops,
                "{label}: routes must stay shortest"
            );
            let loads = report.link_load_summary();
            rows.row(vec![
                name.to_string(),
                label.to_string(),
                loads.max.to_string(),
                format!("{:.3}", loads.std_dev),
                format!("{:.3}", report.mean_latency()),
                report.latency_max.to_string(),
                report.makespan.to_string(),
            ]);
        }
    }
    rows
}

/// E8: growing random fault sets; connectivity of the survivors,
/// delivery under drop-at-the-fault and under source rerouting, and
/// the mean stretch of the detours over a 400-pair sample.
///
/// # Panics
///
/// Panics if fewer than `d` faults disconnect the network or rerouting
/// loses a message whose endpoints survive.
pub fn fault_tolerance() -> Table {
    let mut rows = table(&[
        "network",
        "faults",
        "components",
        "drop: delivery",
        "reroute: delivery",
        "mean stretch",
    ]);
    for (d, k) in SPACES {
        let space = DeBruijn::new(d, k).expect("valid parameters");
        let graph = DebruijnGraph::undirected(space).expect("materializable");
        let n = space.order_usize().expect("enumerable");
        let mut rng = SplitMix64::new(0xE8);
        let mut ranks: Vec<u128> = (1..n as u128).collect();
        rng.shuffle(&mut ranks);
        let traffic = workload::uniform_random(space, 3_000, 0xE8);
        for f in 0..=(usize::from(d) + 1) {
            let faults: Vec<Word> = ranks[..f]
                .iter()
                .map(|&r| space.word_from_rank(r).expect("rank in range"))
                .collect();
            let fault_ids: Vec<u32> = faults.iter().map(|w| graph.rank_of(w)).collect();
            let components = connectivity::components_after_faults(&graph, &fault_ids);
            let dropping = simulate(space, SimConfig::default(), &faults, &traffic);
            let rerouting = SimConfig {
                fault_handling: FaultHandling::SourceReroute,
                ..SimConfig::default()
            };
            let rerouted = simulate(space, rerouting, &faults, &traffic);

            let survives = |inj: &&Injection| {
                !faults.contains(&inj.source) && !faults.contains(&inj.destination)
            };
            let stretches: Vec<f64> = traffic
                .iter()
                .take(400)
                .filter(survives)
                .filter_map(|inj| fault::stretch(&graph, &inj.source, &inj.destination, &faults))
                .collect();
            let mean_stretch = stretches.iter().sum::<f64>() / stretches.len() as f64;
            if f < usize::from(d) {
                assert_eq!(components, 1, "fewer than d faults must not disconnect");
                let surviving = traffic.iter().filter(survives).count();
                assert_eq!(
                    rerouted.delivered, surviving,
                    "rerouting must only lose faulty endpoints"
                );
            }
            rows.row(vec![
                network(space),
                f.to_string(),
                components.to_string(),
                format!("{:.4}", dropping.delivery_rate()),
                format!("{:.4}", rerouted.delivery_rate()),
                format!("{mean_stretch:.4}"),
            ]);
        }
    }
    rows
}
