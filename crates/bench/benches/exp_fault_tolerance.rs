//! E8 — fault tolerance: `DN(d,k)` survives `d−1` node failures.
//!
//! For growing random fault sets, measures connectivity of the surviving
//! graph, delivery rate under naive forwarding (drop at the fault) and
//! under source rerouting, and the path-length stretch of the detours
//! (see `debruijn_bench::experiments`). With fewer than `d` faults the
//! network stays connected (Pradhan–Reddy) and rerouting only loses
//! messages whose endpoints died.

fn main() {
    println!("E8: fault tolerance of DN(d,k), 3000 random messages per row\n");
    println!("{}", debruijn_bench::experiments::fault_tolerance());
    println!("Below d faults: one component, rerouting delivers everything whose");
    println!("endpoints survive, and detours cost only a few percent extra hops.");
}
