//! The topology engine: cached, table-driven materialization.
//!
//! Every layer of the workspace — routing reports, communication schedules,
//! embeddings, emulation — needs the same two artifacts from a
//! [`CayleyNetwork`]: the rank-indexed [`DenseGraph`] and, for per-generator
//! algorithms, the map `rank(u) → rank(g·u)` for each generator `g`. Before
//! this engine existed, each call site rebuilt both from scratch with an
//! unrank/apply/rank round trip per node per generator.
//!
//! The engine makes materialization a single shared path:
//!
//! * [`Materialized`] — a clone-cheap handle bundling the graph
//!   (`Arc<DenseGraph>`), the per-generator rank-transition tables, and the
//!   node-id codec (rank ↔ label);
//! * [`TopologyCache`] — a keyed cache so repeated materializations of the
//!   same network return the *same* `Arc`s; [`materialize`] goes through the
//!   process-wide cache;
//! * construction is parallel end to end: the transition tables are built by
//!   chunked lexicographic sweeps (`scg_perm::rank_transition_tables`) and
//!   the CSR graph by [`DenseGraph::from_regular_fn_parallel`].
//!
//! # Examples
//!
//! ```
//! use scg_core::{materialize, SuperCayleyGraph, SMALL_NET_CAP};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), scg_core::CoreError> {
//! let ms = SuperCayleyGraph::macro_star(3, 2)?;
//! let a = materialize(&ms, SMALL_NET_CAP * 10)?;
//! let b = materialize(&ms, SMALL_NET_CAP * 10)?;
//! assert!(Arc::ptr_eq(a.graph(), b.graph())); // cache hit, shared storage
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use scg_graph::{DenseGraph, NodeId};
use scg_perm::{factorial, rank_transition_tables, Perm, PermAction, MAX_TABLE_DEGREE};

use crate::classes::{ScgClass, SuperCayleyGraph};
use crate::error::CoreError;
use crate::network::CayleyNetwork;
use crate::routing::RoutePlan;

/// Materialization cap for quick interactive checks and unit tests: admits
/// `k ≤ 6` (`6! = 720` nodes).
pub const SMALL_NET_CAP: u64 = 1_000;

/// Default materialization cap for experiments and tabulations: admits
/// `k ≤ 9` (`9! = 362 880` nodes).
pub const DEFAULT_NET_CAP: u64 = 1_000_000;

/// A materialized Cayley network: the rank-indexed graph plus the
/// per-generator rank-transition tables, all behind `Arc`s so the handle is
/// clone-cheap and cache-shareable.
#[derive(Debug, Clone)]
pub struct Materialized {
    name: String,
    k: usize,
    graph: Arc<DenseGraph>,
    /// Generator-major: `tables[g][rank(u)] = rank(g·u)`.
    tables: Arc<Vec<Vec<NodeId>>>,
}

impl Materialized {
    /// Materializes `net` without consulting any cache.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TooLarge`] if `k! > cap`, or if `k` exceeds
    /// [`MAX_TABLE_DEGREE`] (rank-transition tables store `u32` ranks).
    pub fn build<N: CayleyNetwork + ?Sized>(net: &N, cap: u64) -> Result<Self, CoreError> {
        let n = net.num_nodes();
        if n > cap {
            return Err(CoreError::TooLarge { num_nodes: n, cap });
        }
        let k = net.degree_k();
        if k > MAX_TABLE_DEGREE {
            return Err(CoreError::TooLarge {
                num_nodes: n,
                cap: factorial(MAX_TABLE_DEGREE),
            });
        }
        #[cfg(feature = "obs")]
        // scg-allow(SCG005): RAII scope timer; the binding keeps the guard alive
        let _timer = crate::obs_hooks::materialize_timer(&net.name(), n);
        type BoxedAction = Box<dyn Fn(&Perm) -> Perm + Sync>;
        let gens = net.generators().to_vec();
        let actions: Vec<BoxedAction> = gens
            .iter()
            .map(|&g| {
                // scg-allow(SCG001): generator lists are validated against degree k at construction
                Box::new(move |p: &Perm| g.apply(p).expect("validated generator")) as BoxedAction
            })
            .collect();
        let refs: Vec<PermAction<'_>> = actions.iter().map(|b| b.as_ref() as _).collect();
        let tables = rank_transition_tables(k, &refs);
        let graph = DenseGraph::from_regular_fn_parallel(n as usize, tables.len(), |u, slot| {
            for (g, table) in tables.iter().enumerate() {
                slot[g] = table[u as usize];
            }
        });
        Ok(Materialized {
            name: net.name(),
            k,
            graph: Arc::new(graph),
            tables: Arc::new(tables),
        })
    }

    /// The network name this handle was materialized from, e.g. `MS(3,2)`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The permutation degree `k`.
    #[must_use]
    pub fn degree_k(&self) -> usize {
        self.k
    }

    /// Number of nodes, `k!`.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of generators (the regular node degree).
    #[must_use]
    pub fn node_degree(&self) -> usize {
        self.tables.len()
    }

    /// The shared rank-indexed graph. Clone the `Arc` to keep the graph
    /// alive without copying it.
    #[must_use]
    pub fn graph(&self) -> &Arc<DenseGraph> {
        &self.graph
    }

    /// A survivor view of the network under `faults` — the one-liner the
    /// fault-lifecycle drivers use between chaos events.
    #[must_use]
    pub fn survivor_view<'a>(
        &'a self,
        faults: &'a scg_graph::FaultSet,
    ) -> scg_graph::SurvivorView<'a> {
        scg_graph::SurvivorView::new(&self.graph, faults)
    }

    /// All rank-transition tables, generator-major:
    /// `tables()[g][u] = rank(g · unrank(u))`. Returned as the shared
    /// `Arc` so callers can keep the tables alive without copying them.
    #[must_use]
    pub fn tables(&self) -> &Arc<Vec<Vec<NodeId>>> {
        &self.tables
    }

    /// The transition table of generator index `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn table(&self, g: usize) -> &[NodeId] {
        &self.tables[g]
    }

    /// The neighbor reached from node `u` through generator index `g` — a
    /// single array load, no permutation arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `g` or `u` is out of range.
    #[must_use]
    pub fn neighbor_id(&self, u: NodeId, g: usize) -> NodeId {
        self.tables[g][u as usize]
    }

    /// The node id (lexicographic rank) of a label.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DegreeMismatch`] if the label's degree differs
    /// from the network's.
    pub fn node_id(&self, u: &Perm) -> Result<NodeId, CoreError> {
        if u.degree() != self.k {
            return Err(CoreError::DegreeMismatch {
                expected: self.k,
                found: u.degree(),
            });
        }
        Ok(u.rank() as NodeId)
    }

    /// The label of a node id.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError::Perm`] error if `id >= k!`.
    pub fn node_label(&self, id: NodeId) -> Result<Perm, CoreError> {
        Ok(Perm::from_rank(self.k, u64::from(id))?)
    }
}

/// A keyed cache of [`Materialized`] networks.
///
/// Keys are `(name, k)` — network names encode the class and its parameters
/// (e.g. `MS(3,2)`), so equal keys mean equal networks. Hits clone the
/// stored handle, so every consumer of the same network shares one graph and
/// one table set (`Arc` pointer equality, verified by the cross-crate
/// topology test).
///
/// Most callers want the process-wide instance via [`materialize`] or
/// [`TopologyCache::global`]; separate instances are useful in tests.
#[derive(Debug, Default)]
pub struct TopologyCache {
    entries: Mutex<HashMap<(String, usize), Materialized>>,
    /// Compiled route planners. Kept separate from `entries` because
    /// plans cost `O(k²)` to build (no node-count cap applies) and are
    /// wanted for networks far too large to materialize; keyed by the
    /// Copy `(class, l, n)` triple so the hot `scg_route` lookup never
    /// formats a name `String`.
    plans: Mutex<HashMap<(ScgClass, usize, usize), Arc<RoutePlan>>>,
}

impl TopologyCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        TopologyCache::default()
    }

    /// The process-wide cache used by [`materialize`].
    #[must_use]
    pub fn global() -> &'static TopologyCache {
        static GLOBAL: OnceLock<TopologyCache> = OnceLock::new();
        GLOBAL.get_or_init(TopologyCache::new)
    }

    /// Materializes `net`, returning the cached handle if this network was
    /// materialized before. The cap is checked *before* the cache lookup, so
    /// error semantics do not depend on cache state.
    ///
    /// # Errors
    ///
    /// As [`Materialized::build`].
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking builder.
    pub fn materialize<N: CayleyNetwork + ?Sized>(
        &self,
        net: &N,
        cap: u64,
    ) -> Result<Materialized, CoreError> {
        let n = net.num_nodes();
        if n > cap {
            return Err(CoreError::TooLarge { num_nodes: n, cap });
        }
        let key = (net.name(), net.degree_k());
        // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
        if let Some(hit) = self.entries.lock().expect("cache lock").get(&key) {
            #[cfg(feature = "obs")]
            crate::obs_hooks::cache_hit(&key.0);
            return Ok(hit.clone());
        }
        #[cfg(feature = "obs")]
        crate::obs_hooks::cache_miss(&key.0);
        // Build outside the lock: concurrent first materializations of
        // *different* networks should not serialize. A racing duplicate
        // build of the same network is discarded in favor of the first
        // insert, preserving Arc identity for all callers.
        let built = Materialized::build(net, cap)?;
        let mut entries = self.entries.lock().expect("cache lock"); // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
        Ok(entries.entry(key).or_insert(built).clone())
    }

    /// The compiled [`RoutePlan`] for `net`, building and caching it on
    /// first use. Hits clone the stored `Arc`, so every consumer of the
    /// same network shares one arena.
    ///
    /// Unlike [`materialize`](TopologyCache::materialize) there is no
    /// node-count cap: a plan costs `O(k²)` link expansions regardless of
    /// the `k!` node count.
    ///
    /// # Errors
    ///
    /// As [`RoutePlan::build`].
    ///
    /// # Panics
    ///
    /// Panics if the plan-cache mutex was poisoned by a panicking builder.
    pub fn route_plan(&self, net: &SuperCayleyGraph) -> Result<Arc<RoutePlan>, CoreError> {
        let key = (net.class(), net.levels(), net.box_size());
        // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
        if let Some(hit) = self.plans.lock().expect("plan cache lock").get(&key) {
            #[cfg(feature = "obs")]
            crate::obs_hooks::plan_cache_hit(&net.name());
            return Ok(Arc::clone(hit));
        }
        #[cfg(feature = "obs")]
        crate::obs_hooks::plan_cache_miss(&net.name());
        // Build outside the lock, first insert wins (as in materialize).
        let built = Arc::new(RoutePlan::build(net)?);
        let mut plans = self.plans.lock().expect("plan cache lock"); // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
        Ok(Arc::clone(plans.entry(key).or_insert(built)))
    }

    /// Number of cached networks.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len() // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
    }

    /// Number of cached route plans.
    ///
    /// # Panics
    ///
    /// Panics if the plan-cache mutex was poisoned.
    #[must_use]
    pub fn num_plans(&self) -> usize {
        self.plans.lock().expect("plan cache lock").len() // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached handles (outstanding `Arc`s stay alive).
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    pub fn clear(&self) {
        let mut entries = self.entries.lock().expect("cache lock"); // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
        #[cfg(feature = "obs")]
        crate::obs_hooks::cache_evicted(entries.len() as u64);
        entries.clear();
        drop(entries);
        self.plans.lock().expect("plan cache lock").clear(); // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
    }
}

/// Materializes `net` through the process-wide [`TopologyCache`].
///
/// # Errors
///
/// As [`Materialized::build`].
pub fn materialize<N: CayleyNetwork + ?Sized>(
    net: &N,
    cap: u64,
) -> Result<Materialized, CoreError> {
    TopologyCache::global().materialize(net, cap)
}

/// The compiled [`RoutePlan`] for `net` through the process-wide
/// [`TopologyCache`] — one plan per network per process, shared by
/// routing, communication, embedding, and emulation.
///
/// # Errors
///
/// As [`RoutePlan::build`].
pub fn route_plan(net: &SuperCayleyGraph) -> Result<Arc<RoutePlan>, CoreError> {
    TopologyCache::global().route_plan(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{StarGraph, SuperCayleyGraph};

    #[test]
    fn engine_matches_direct_materialization() {
        let star = StarGraph::new(5).unwrap();
        let direct = star.to_graph(SMALL_NET_CAP).unwrap();
        let engine = Materialized::build(&star, SMALL_NET_CAP).unwrap();
        assert_eq!(*engine.graph().as_ref(), direct);
        assert_eq!(engine.num_nodes(), 120);
        assert_eq!(engine.node_degree(), 4);
    }

    #[test]
    fn tables_agree_with_neighbor() {
        let ms = SuperCayleyGraph::macro_star(3, 2).unwrap();
        let m = Materialized::build(&ms, DEFAULT_NET_CAP).unwrap();
        for r in [0u32, 1, 17, 5039] {
            let u = m.node_label(r).unwrap();
            for g in 0..ms.node_degree() {
                let v = ms.neighbor(&u, g);
                assert_eq!(m.neighbor_id(r, g), m.node_id(&v).unwrap());
            }
        }
    }

    #[test]
    fn cache_returns_shared_arcs() {
        let cache = TopologyCache::new();
        let star = StarGraph::new(4).unwrap();
        let a = cache.materialize(&star, SMALL_NET_CAP).unwrap();
        let b = cache.materialize(&star, SMALL_NET_CAP).unwrap();
        assert!(Arc::ptr_eq(a.graph(), b.graph()));
        assert!(Arc::ptr_eq(&a.tables, &b.tables));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        // Handles from before the clear stay valid.
        assert_eq!(a.num_nodes(), 24);
    }

    #[test]
    fn cap_is_checked_before_cache() {
        let cache = TopologyCache::new();
        let star = StarGraph::new(5).unwrap();
        cache.materialize(&star, SMALL_NET_CAP).unwrap();
        // A hit for the same network must still respect a tighter cap.
        let err = cache.materialize(&star, 10).unwrap_err();
        assert!(matches!(
            err,
            CoreError::TooLarge {
                num_nodes: 120,
                cap: 10
            }
        ));
    }

    #[test]
    fn plan_cache_returns_shared_arcs() {
        let cache = TopologyCache::new();
        let ms = SuperCayleyGraph::macro_star(3, 2).unwrap();
        let a = cache.route_plan(&ms).unwrap();
        let b = cache.route_plan(&ms).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.num_plans(), 1);
        // Plans are not capped by node count: k = 13 (6 227 020 800
        // nodes) compiles instantly.
        let big = SuperCayleyGraph::macro_star(6, 2).unwrap();
        let plan = cache.route_plan(&big).unwrap();
        assert_eq!(plan.degree_k(), 13);
        assert_eq!(cache.num_plans(), 2);
        cache.clear();
        assert_eq!(cache.num_plans(), 0);
        assert_eq!(a.degree_k(), 7); // handles outlive the clear
    }

    #[test]
    fn codec_validates_degree() {
        let star = StarGraph::new(4).unwrap();
        let m = Materialized::build(&star, SMALL_NET_CAP).unwrap();
        assert!(m.node_id(&Perm::identity(5)).is_err());
        assert!(m.node_label(24).is_err());
        let u = Perm::from_rank(4, 7).unwrap();
        assert_eq!(m.node_label(m.node_id(&u).unwrap()).unwrap(), u);
    }
}
