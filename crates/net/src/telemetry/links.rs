//! Per-link accumulators.
//!
//! The paper's §3 wildcard remark is a *per-link* statement: free `*`
//! positions let the network spread traffic so no single link melts.
//! The aggregate [`SimReport`](crate::stats::SimReport) only keeps a
//! load total per link; these accumulators add the queueing view
//! (high-water marks, waits, busy time) needed to read utilization and
//! balance off a run — live or from a JSONL trace.

/// Accumulated statistics of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStat {
    /// Messages handed to the link.
    pub forwarded: u64,
    /// Total ticks messages spent waiting for the link.
    pub queue_wait_total: u64,
    /// Most messages ever queued ahead at a handover (high-water mark).
    pub queue_depth_high_water: usize,
    /// Ticks the link was occupied (union of its `[departs, arrives)`
    /// transit intervals — exact because the event stream hands each
    /// link its forwards in FIFO order).
    pub busy: u64,
    /// End of the last busy interval (for the union computation).
    last_busy_end: u64,
}

impl LinkStat {
    /// Folds one forward (`departs`, `arrives`, `queue_wait`,
    /// `queue_depth`) into the accumulator.
    pub fn record_forward(
        &mut self,
        departs: u64,
        arrives: u64,
        queue_wait: u64,
        queue_depth: usize,
    ) {
        self.forwarded += 1;
        self.queue_wait_total = self.queue_wait_total.saturating_add(queue_wait);
        self.queue_depth_high_water = self.queue_depth_high_water.max(queue_depth);
        let start = departs.max(self.last_busy_end);
        self.busy = self.busy.saturating_add(arrives.saturating_sub(start));
        self.last_busy_end = self.last_busy_end.max(arrives);
    }

    /// Fraction of `[0, horizon]` the link was occupied; 0 for an
    /// empty horizon.
    pub fn utilization(&self, horizon: u64) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        self.busy as f64 / horizon as f64
    }

    /// Mean ticks a message waited for this link.
    pub fn mean_queue_wait(&self) -> f64 {
        if self.forwarded == 0 {
            return 0.0;
        }
        self.queue_wait_total as f64 / self.forwarded as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_is_the_union_of_transit_intervals() {
        let mut s = LinkStat::default();
        // Two overlapping transits (pipelined propagation) and one
        // disjoint: union is [0,3) ∪ [10,12) = 5 ticks, not 2+2+2.
        s.record_forward(0, 2, 0, 0);
        s.record_forward(1, 3, 1, 1);
        s.record_forward(10, 12, 0, 0);
        assert_eq!(s.busy, 5);
        assert_eq!(s.forwarded, 3);
        assert_eq!(s.queue_wait_total, 1);
        assert_eq!(s.queue_depth_high_water, 1);
        assert!((s.utilization(20) - 0.25).abs() < 1e-12);
        assert_eq!(s.utilization(0), 0.0);
        assert!((s.mean_queue_wait() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LinkStat::default();
        assert_eq!(s.mean_queue_wait(), 0.0);
        assert_eq!(s.utilization(100), 0.0);
    }
}
