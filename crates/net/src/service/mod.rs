//! The query service: the layer that turns the fast
//! routing engine into a fast system.
//!
//! The paper's `O(k)` route construction (Algorithm 1 / Theorem 2) and
//! `O(1)` per-hop forwarding make a high-QPS distance/route service
//! feasible; this module supplies the serving substrate, std-only:
//!
//! * **Answer where the query is read.** [`QueryService`] runs on the
//!   crate's one HTTP/1.1 connection plane (shared with the metrics
//!   scrape server): a connection thread reads keep-alive requests and
//!   answers each query itself through the [`Dispatcher`]. Queries —
//!   not connections — shard: each takes the lock of the shard its
//!   *destination* hashes to, so cache locality survives any
//!   connection-to-thread assignment.
//! * **Sharded route cache.** One clock-eviction
//!   [`RouteCache`](debruijn_core::routing::RouteCache) per shard,
//!   locked only for the lookup and the store: the solve runs outside
//!   the lock, in the thread's own buffers. The deterministic
//!   [`destination_shard`](debruijn_core::routing::destination_shard)
//!   map keeps repeat traffic on the shard that holds its route.
//! * **Admission control.** Each shard admits at most
//!   [`ServiceConfig::max_inflight`] unanswered queries; overflow is
//!   shed immediately with `503` + `Retry-After` and counted in
//!   `dbr_service_shed_total`, keeping latency bounded under overload.
//!   A queue-depth flight-recorder trigger can freeze the pre-overload
//!   event window for post-mortems.
//! * **Contained failures.** A panic inside one answer is caught: the
//!   client gets `500`, and the shard is reset to an empty cache
//!   rather than left poisoned.
//!
//! Responses are byte-identical to the single-threaded direct engine
//! answers at any shard count — [`answer_query_direct`] is the
//! reference the tests hold the service to. Design rationale (vs an
//! async runtime, vs one shared cache) is recorded in
//! `docs/adr/0008-thread-per-core-service.md`; the operator-facing
//! walkthrough lives in `docs/OBSERVABILITY.md`.

mod query;
mod server;
mod worker;

pub use query::{
    answer_batch_cached, answer_query_cached, answer_query_direct, parse_query, BatchAnswerState,
    Query, QueryError, QueryKind,
};
pub use server::QueryService;
pub use worker::{Admission, Dispatcher, ServiceConfig};
