//! Wildcard-resolution policies: the paper's traffic-balancing remark.
//!
//! §3: *"the site which transmits the message \[may\] select freely one of
//! the neighbors of the specified type, so that the traffic could be more
//! or less balanced."* The policy decides which digit a forwarding node
//! substitutes for a `*` step; experiment E7 measures how much the choice
//! flattens the link-load distribution.

/// How a forwarding node resolves a wildcard `(a, *)` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WildcardPolicy {
    /// Always insert digit 0 — the degenerate policy (no balancing).
    #[default]
    Zero,
    /// Pseudo-random digit, deterministic per (node, time) via the
    /// simulation seed.
    Random,
    /// Per-node round-robin over the `d` digits.
    RoundRobin,
    /// The digit whose outgoing link frees up earliest (join the shortest
    /// queue).
    LeastLoaded,
}

impl WildcardPolicy {
    /// All policies, in a stable order (used by the E7 sweep).
    pub fn all() -> [WildcardPolicy; 4] {
        [
            WildcardPolicy::Zero,
            WildcardPolicy::Random,
            WildcardPolicy::RoundRobin,
            WildcardPolicy::LeastLoaded,
        ]
    }

    /// The policy [`name`](Self::name)d `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|p| p.name() == name)
    }

    /// Human-readable name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            WildcardPolicy::Zero => "zero",
            WildcardPolicy::Random => "random",
            WildcardPolicy::RoundRobin => "round-robin",
            WildcardPolicy::LeastLoaded => "least-loaded",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_policy_once() {
        let all = WildcardPolicy::all();
        assert_eq!(all.len(), 4);
        let names: std::collections::HashSet<_> = all.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn default_is_the_unbalanced_baseline() {
        assert_eq!(WildcardPolicy::default(), WildcardPolicy::Zero);
    }
}
