//! Permutation routing: every node sends to its image under a permutation
//! of the node set — the classic offline traffic pattern behind the
//! paper's congestion arguments.
//!
//! Routes are produced in bulk by [`scg_core::route_batch`] over the
//! host's compiled [`RoutePlan`](scg_core::RoutePlan) (shared through the
//! process-wide topology cache with the embedding and emulation layers),
//! so a workload of thousands of pairs costs no per-pair planning or
//! allocation. Each pair routes through the planner's packed `u64`
//! star-sort (`k ≤ 16`), so the congestion sweeps here ride the
//! word-parallel kernel too. The report tallies the per-generator link loads — the
//! bottleneck generator count is the congestion proxy an offline
//! scheduler would pipeline against.

use scg_core::{
    route_batch, route_plan, star_diameter, star_distance_between, CayleyNetwork, Generator,
    SuperCayleyGraph,
};
use scg_perm::{Perm, XorShift64};

use crate::error::CommError;

/// Aggregate statistics of one routed permutation workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PermuteReport {
    /// Host network name.
    pub host: String,
    /// Number of source→destination pairs routed.
    pub pairs: usize,
    /// Total hops over all pairs.
    pub total_hops: usize,
    /// Longest single route.
    pub max_hops: usize,
    /// The worst-case route length the theorems allow:
    /// `star_dilation × star_diameter`.
    pub hop_bound: usize,
    /// Uses of the most-loaded generator across all routes — the
    /// bottleneck an offline link schedule contends with.
    pub bottleneck_load: usize,
}

impl PermuteReport {
    /// Mean hops per pair.
    #[must_use]
    pub fn mean_hops(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.pairs as f64
        }
    }
}

/// A fixed-seed sampled permutation traffic pattern: `samples` random
/// labels, each paired with the next sample cyclically shifted by one —
/// a single-cycle permutation of the sample set, so every node is both a
/// source and a destination exactly once.
#[must_use]
pub fn permutation_traffic(k: usize, samples: usize, seed: u64) -> Vec<(Perm, Perm)> {
    let mut rng = XorShift64::new(seed);
    let labels: Vec<Perm> = (0..samples.max(2))
        .map(|_| Perm::random(k, &mut rng))
        .collect();
    (0..labels.len())
        .map(|i| (labels[i], labels[(i + 1) % labels.len()]))
        .collect()
}

/// Routes every pair of `traffic` on `host` over `threads` threads and
/// tallies the workload.
///
/// Every route obeys the Theorem 1–3 dilation bound against its pair's
/// star distance; the report additionally carries the absolute
/// `dilation × diameter` hop bound for context.
///
/// # Errors
///
/// * [`CommError::Core`] — a label's degree does not match the host.
pub fn permute_route(
    host: &SuperCayleyGraph,
    traffic: &[(Perm, Perm)],
    threads: usize,
) -> Result<PermuteReport, CommError> {
    let plan = route_plan(host)?;
    let routes = route_batch(host, traffic, threads)?;
    let mut loads: std::collections::HashMap<Generator, usize> = std::collections::HashMap::new();
    let mut total = 0usize;
    let mut max_hops = 0usize;
    for (route, (from, to)) in routes.iter().zip(traffic) {
        debug_assert!(
            route.len() as u32 <= plan.star_dilation() as u32 * star_distance_between(from, to)
        );
        total += route.len();
        max_hops = max_hops.max(route.len());
        for &g in route {
            *loads.entry(g).or_insert(0) += 1;
        }
    }
    Ok(PermuteReport {
        host: host.name(),
        pairs: traffic.len(),
        total_hops: total,
        max_hops,
        hop_bound: plan.star_dilation() * star_diameter(host.degree_k()) as usize,
        bottleneck_load: loads.values().copied().max().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scg_core::{apply_path, scg_route};

    #[test]
    fn batch_workload_matches_sequential_routing() {
        let host = SuperCayleyGraph::macro_star(3, 2).unwrap();
        let traffic = permutation_traffic(7, 24, 0xC0FFEE);
        let report = permute_route(&host, &traffic, 4).unwrap();
        assert_eq!(report.pairs, 24);
        assert!(report.max_hops <= report.hop_bound);
        let sequential: usize = traffic
            .iter()
            .map(|(f, t)| scg_route(&host, f, t).unwrap().len())
            .sum();
        assert_eq!(report.total_hops, sequential);
    }

    #[test]
    fn traffic_is_a_single_cycle_and_routes_arrive() {
        let host = SuperCayleyGraph::insertion_selection(5).unwrap();
        let traffic = permutation_traffic(5, 10, 99);
        // Every sample appears once as source and once as destination.
        for (f, t) in &traffic {
            let path = scg_route(&host, f, t).unwrap();
            assert_eq!(apply_path(f, &path).unwrap(), *t);
        }
        let report = permute_route(&host, &traffic, 1).unwrap();
        assert!(report.bottleneck_load > 0);
        assert!(report.mean_hops() > 0.0);
    }
}
