//! Per-shard request handling: one [`ShardCore`] per event-loop thread,
//! owning a shard-local [`TopologyCache`] and per-network fault state.
//!
//! Connections are pinned to shards, so the hot path — decode, plan
//! lookup, per-pair routing, streaming reply encode — touches no
//! lock any other core is using. Vertex-transitivity makes this sharding
//! free: routing needs no shared per-source state, so shards never
//! coordinate except on *fault* events, which are rare and flow through
//! the append-only [`FaultJournal`] (an atomic length check per loop
//! iteration; the mutex is locked only when the journal actually grew).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use scg_core::{
    scg_route_faulty_with, CoreError, Materialized, RouteBuf, RoutePlan, SuperCayleyGraph,
    TopologyCache, DEFAULT_NET_CAP,
};
use scg_graph::{ChaosEvent, FaultSet};
use scg_perm::Perm;

use crate::metrics::ServeMetrics;
use crate::wire::{
    begin_frame, decode_request, encode_error_into, encode_route_item, end_frame, ErrCode,
    FrameType, NetId, Request, FLAG_DETOURED, FLAG_FALLBACK,
};

/// The cross-shard fault log: every `FAULT_REPORT` is appended here so
/// shards that serve *other* connections of the same network converge on
/// the same fault view.
///
/// The hot path never locks this: each shard compares its private cursor
/// against the atomic length once per loop iteration and takes the mutex
/// only on growth (fault events are many orders of magnitude rarer than
/// route requests).
#[derive(Debug, Default)]
pub struct FaultJournal {
    len: AtomicUsize,
    events: Mutex<Vec<(NetId, ChaosEvent)>>,
}

impl FaultJournal {
    /// An empty journal.
    #[must_use]
    pub fn new() -> FaultJournal {
        FaultJournal::default()
    }

    /// The current length — a relaxed load, the cheap "anything new?"
    /// check.
    #[must_use]
    pub fn len(&self) -> usize {
        // A reader observing it stale catches up one loop iteration
        // later; the mutex inside drain_since/append_and_drain orders
        // the event data itself.
        // ord: Relaxed — monotonic watermark only.
        self.len.load(Ordering::Relaxed)
    }

    /// Whether no events were ever reported.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events `seen..` (the tail this reader has not applied yet), plus
    /// the new cursor.
    ///
    /// # Panics
    ///
    /// Panics if the journal mutex was poisoned by a panicking reporter.
    #[must_use]
    pub fn drain_since(&self, seen: usize) -> (Vec<(NetId, ChaosEvent)>, usize) {
        let events = self.events.lock().expect("fault journal lock"); // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
        (events.get(seen..).unwrap_or(&[]).to_vec(), events.len())
    }

    /// Atomically catches up (returns the foreign tail `seen..`) and
    /// appends this shard's own `new` events, so the caller misses no
    /// interleaved foreign event and never re-applies its own.
    ///
    /// # Panics
    ///
    /// Panics if the journal mutex was poisoned by a panicking reporter.
    #[must_use]
    pub fn append_and_drain(
        &self,
        seen: usize,
        net: NetId,
        new: &[ChaosEvent],
    ) -> (Vec<(NetId, ChaosEvent)>, usize) {
        let mut events = self.events.lock().expect("fault journal lock"); // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
        let foreign = events.get(seen..).unwrap_or(&[]).to_vec();
        events.extend(new.iter().map(|&ev| (net, ev)));
        let len = events.len();
        // Publication of the data itself is ordered by the mutex.
        // ord: Relaxed — the atomic is only the lock-free growth hint.
        self.len.store(len, Ordering::Relaxed);
        (foreign, len)
    }
}

/// Everything a shard knows about one network.
#[derive(Debug)]
struct NetState {
    net: SuperCayleyGraph,
    plan: Arc<RoutePlan>,
    /// Materialized lazily: node ids are only needed once faults exist
    /// (detour search and survivor BFS).
    mat: Option<Materialized>,
    faults: FaultSet,
    /// The hop buffer every clean route of this network is planned into,
    /// pre-sized for the worst case so it never grows.
    buf: RouteBuf,
}

impl NetState {
    /// Routes one pair and appends its reply item (see
    /// [`encode_route_item`]) to `out`, recording the route metrics.
    /// `mat` is `None` while the network is fault-free: the plan routes
    /// into the reused buffer. Otherwise the fault-aware router runs over
    /// the materialized network and may detour or fall back.
    ///
    /// On failure nothing is appended; a refusal (`NoRoute`) bumps
    /// `refused`, and the caller decides how the error is reported.
    fn route_pair(
        &mut self,
        mat: Option<&Materialized>,
        from: &Perm,
        to: &Perm,
        metrics: &ServeMetrics,
        out: &mut Vec<u8>,
    ) -> Result<(), ErrCode> {
        let routed = match mat {
            None => self.plan.route_into(from, to, &mut self.buf).map(|()| None),
            Some(mat) => {
                scg_route_faulty_with(&self.plan, &self.net, mat, from, to, &self.faults).map(Some)
            }
        };
        let routed = routed.map_err(|e| {
            let code = map_core_err(e);
            if code == ErrCode::NoRoute {
                metrics.refused.inc();
            }
            code
        })?;
        let (flags, hops) = match &routed {
            None => (0, self.buf.hops()),
            Some(path) => {
                let mut flags = 0;
                if path.detours > 0 {
                    flags |= FLAG_DETOURED;
                    metrics.detoured.inc();
                }
                if path.fallback_used {
                    flags |= FLAG_FALLBACK;
                    metrics.fallback.inc();
                }
                (flags, path.hops.as_slice())
            }
        };
        metrics.routes.inc();
        metrics.hops.observe(hops.len() as u64);
        encode_route_item(out, flags, hops);
        Ok(())
    }
}

/// What handling one frame asks of the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameEffects {
    /// The frame appended fault events to the journal: poke the other
    /// shards' wake pipes so they converge without waiting for traffic.
    pub journal_grew: bool,
}

/// One shard's request-handling state (no I/O — the server's event loop
/// feeds it complete frames and owns the sockets).
#[derive(Debug)]
pub struct ShardCore {
    cache: TopologyCache,
    nets: HashMap<NetId, NetState>,
    metrics: Arc<ServeMetrics>,
    journal: Arc<FaultJournal>,
    seen: usize,
}

impl ShardCore {
    /// A fresh shard over its own empty topology cache.
    #[must_use]
    pub fn new(metrics: Arc<ServeMetrics>, journal: Arc<FaultJournal>) -> ShardCore {
        ShardCore {
            cache: TopologyCache::new(),
            nets: HashMap::new(),
            metrics,
            journal,
            seen: 0,
        }
    }

    /// Applies any journal events this shard has not seen yet. Cheap when
    /// idle (one relaxed load); called once per event-loop iteration.
    pub fn sync_faults(&mut self) {
        if self.journal.len() <= self.seen {
            return;
        }
        let (tail, len) = self.journal.drain_since(self.seen);
        self.seen = len;
        for (net_id, ev) in tail {
            if let Some(state) = self.nets.get_mut(&net_id) {
                ev.apply(&mut state.faults);
            }
            // Unknown networks need nothing now — resolve_in replays the
            // full journal when the network is first seen.
        }
    }

    /// Handles one well-framed request (header already validated by
    /// [`crate::wire::peek_frame`]), appending reply frames to `out`.
    pub fn handle_frame(
        &mut self,
        ver: u8,
        ftype: u8,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> FrameEffects {
        let started = Instant::now();
        let req = match decode_request(ver, ftype, payload) {
            Ok(req) => req,
            Err(code) => {
                self.metrics.inc_error(code);
                encode_error_into(out, code, "request did not decode");
                return FrameEffects::default();
            }
        };
        match req {
            Request::Route { net, from, to } => {
                self.metrics.req_route.inc();
                #[cfg(feature = "obs")]
                mirror_request("route");
                self.handle_route(net, &from, &to, out);
                self.metrics.route_micros.observe(elapsed_micros(&started));
                FrameEffects::default()
            }
            Request::RouteBatch { net, pairs } => {
                self.metrics.req_batch.inc();
                #[cfg(feature = "obs")]
                mirror_request("route_batch");
                self.handle_batch(net, &pairs, out);
                self.metrics.batch_micros.observe(elapsed_micros(&started));
                FrameEffects::default()
            }
            Request::FaultReport { net, events } => {
                self.metrics.req_fault.inc();
                #[cfg(feature = "obs")]
                mirror_request("fault_report");
                self.handle_fault_report(net, &events, out)
            }
            Request::Metrics { json } => {
                self.metrics.req_metrics.inc();
                #[cfg(feature = "obs")]
                mirror_request("metrics");
                let snap = self.metrics.snapshot();
                let body = if json { snap.to_json() } else { snap.to_text() };
                let at = begin_frame(out, FrameType::MetricsOk);
                out.extend_from_slice(body.as_bytes());
                end_frame(out, at);
                FrameEffects::default()
            }
        }
    }

    fn handle_route(&mut self, net_id: NetId, from: &Perm, to: &Perm, out: &mut Vec<u8>) {
        let at = begin_frame(out, FrameType::RouteOk);
        let routed =
            resolve_in(&mut self.nets, &self.cache, &self.journal, net_id).and_then(|state| {
                let mat = degraded_mat(state, &self.cache)?;
                state.route_pair(mat.as_ref(), from, to, &self.metrics, out)
            });
        match routed {
            Ok(()) => end_frame(out, at),
            Err(code) => {
                out.truncate(at);
                self.metrics.inc_error(code);
                encode_error_into(out, code, "");
            }
        }
    }

    fn handle_batch(&mut self, net_id: NetId, pairs: &[(Perm, Perm)], out: &mut Vec<u8>) {
        self.metrics.batch_pairs.observe(pairs.len() as u64);
        let state = match resolve_in(&mut self.nets, &self.cache, &self.journal, net_id) {
            Ok(state) => state,
            Err(code) => {
                self.metrics.inc_error(code);
                encode_error_into(out, code, "");
                return;
            }
        };
        // The wire format guarantees uniform degree within a batch; a
        // degree mismatch against the network fails the whole frame.
        if pairs
            .first()
            .is_some_and(|(f, _)| f.degree() != state.plan.degree_k())
        {
            self.metrics.inc_error(ErrCode::DegreeMismatch);
            encode_error_into(
                out,
                ErrCode::DegreeMismatch,
                "batch degree != network degree",
            );
            return;
        }
        let mat = match degraded_mat(state, &self.cache) {
            Ok(mat) => mat,
            Err(code) => {
                self.metrics.inc_error(code);
                encode_error_into(out, code, "cannot materialize for degraded routing");
                return;
            }
        };
        let at = begin_frame(out, FrameType::RouteBatchOk);
        out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for (from, to) in pairs {
            // Per-item status; a refusal does not fail the frame.
            let status = out.len();
            out.push(0);
            if let Err(code) = state.route_pair(mat.as_ref(), from, to, &self.metrics, out) {
                out[status] = code as u8;
            }
        }
        end_frame(out, at);
    }

    fn handle_fault_report(
        &mut self,
        net_id: NetId,
        events: &[ChaosEvent],
        out: &mut Vec<u8>,
    ) -> FrameEffects {
        let state = match resolve_in(&mut self.nets, &self.cache, &self.journal, net_id) {
            Ok(state) => state,
            Err(code) => {
                self.metrics.inc_error(code);
                encode_error_into(out, code, "");
                return FrameEffects::default();
            }
        };
        // Materialize eagerly: degraded routing needs node ids, and
        // failing *here* gives the reporter a typed TooLarge instead of
        // failing every subsequent route.
        if let Err(code) = ensure_mat(state, &self.cache) {
            self.metrics.inc_error(code);
            encode_error_into(out, code, "network too large for fault-aware routing");
            return FrameEffects::default();
        }
        // Catch up on foreign events and publish ours under one lock so
        // no interleaving is lost, then apply both locally.
        let (foreign, len) = self.journal.append_and_drain(self.seen, net_id, events);
        self.seen = len;
        for (fid, ev) in foreign {
            if let Some(fstate) = self.nets.get_mut(&fid) {
                ev.apply(&mut fstate.faults);
            }
        }
        let state = self
            .nets
            .get_mut(&net_id)
            // scg-allow(SCG001): resolve_in above inserted the entry; absence is unreachable
            .expect("net state resolved above");
        let mut applied = 0u32;
        for ev in events {
            if ev.apply(&mut state.faults) {
                applied += 1;
            }
        }
        self.metrics.fault_events.add(u64::from(applied));
        let at = begin_frame(out, FrameType::FaultOk);
        out.extend_from_slice(&applied.to_le_bytes());
        out.extend_from_slice(&state.faults.epoch().to_le_bytes());
        end_frame(out, at);
        FrameEffects {
            journal_grew: !events.is_empty(),
        }
    }
}

fn elapsed_micros(started: &Instant) -> u64 {
    // A histogram sample: saturate rather than fail on a clock anomaly.
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Network-state lookup/insert over split borrows (callers hold
/// `&cache`/`&journal` and `&mut nets` simultaneously, which a `&mut
/// self` method could not express).
fn resolve_in<'a>(
    nets: &'a mut HashMap<NetId, NetState>,
    cache: &TopologyCache,
    journal: &FaultJournal,
    id: NetId,
) -> Result<&'a mut NetState, ErrCode> {
    match nets.entry(id) {
        Entry::Occupied(e) => Ok(e.into_mut()),
        Entry::Vacant(e) => {
            let net = id.to_net()?;
            let plan = cache.route_plan(&net).map_err(|_| ErrCode::BadNetwork)?;
            let mut faults = FaultSet::new();
            // Catch up on every fault this network accumulated before this
            // shard first saw it (reports may have landed on other shards).
            let (all, _len) = journal.drain_since(0);
            for (net_id, ev) in all {
                if net_id == id {
                    ev.apply(&mut faults);
                }
            }
            let buf = plan.new_buf();
            Ok(e.insert(NetState {
                net,
                plan,
                mat: None,
                faults,
                buf,
            }))
        }
    }
}

/// Materializes the network through the shard's cache on first need.
/// `Materialized` is clone-cheap (shared `Arc` internals).
fn ensure_mat(state: &mut NetState, cache: &TopologyCache) -> Result<Materialized, ErrCode> {
    if state.mat.is_none() {
        let mat = cache
            .materialize(&state.net, DEFAULT_NET_CAP)
            .map_err(map_core_err)?;
        state.mat = Some(mat);
    }
    // scg-allow(SCG001): set just above; absence is unreachable
    Ok(state.mat.clone().expect("materialized just above"))
}

/// What [`NetState::route_pair`] routes over: `None` while the network is
/// fault-free, else the materialized network (see [`ensure_mat`]).
fn degraded_mat(
    state: &mut NetState,
    cache: &TopologyCache,
) -> Result<Option<Materialized>, ErrCode> {
    if state.faults.is_empty() {
        return Ok(None);
    }
    ensure_mat(state, cache).map(Some)
}

fn map_core_err(e: CoreError) -> ErrCode {
    match e {
        CoreError::DegreeMismatch { .. } => ErrCode::DegreeMismatch,
        CoreError::NoRoute => ErrCode::NoRoute,
        CoreError::TooLarge { .. } => ErrCode::TooLarge,
        _ => ErrCode::BadNetwork,
    }
}

#[cfg(feature = "obs")]
fn mirror_request(kind: &'static str) {
    scg_obs::Registry::global()
        .counter("scg_serve_requests_total", &[("kind", kind)])
        .inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_request, peek_frame, BatchItem, FrameStatus, Reply, WIRE_VERSION};
    use scg_core::{apply_path, CayleyNetwork, ScgClass};

    fn ms22() -> NetId {
        NetId {
            class: ScgClass::MacroStar,
            levels: 2,
            box_size: 2,
        }
    }

    fn shard() -> ShardCore {
        ShardCore::new(Arc::new(ServeMetrics::new()), Arc::new(FaultJournal::new()))
    }

    /// Feeds one encoded request frame through `handle_frame` and decodes
    /// the single reply frame it produces.
    fn exchange(core: &mut ShardCore, req: &Request) -> Reply {
        let frame = encode_request(req);
        let mut out = Vec::new();
        match peek_frame(&frame) {
            FrameStatus::Frame {
                ver,
                ftype,
                start,
                end,
            } => {
                let _fx = core.handle_frame(ver, ftype, &frame[start..end], &mut out);
            }
            other => panic!("request did not frame: {other:?}"),
        }
        match peek_frame(&out) {
            FrameStatus::Frame {
                ver,
                ftype,
                start,
                end,
            } => {
                let reply =
                    crate::wire::decode_reply(ver, ftype, &out[start..end]).expect("reply decodes");
                assert_eq!(end, out.len(), "exactly one reply frame");
                reply
            }
            other => panic!("reply did not frame: {other:?}"),
        }
    }

    #[test]
    fn journal_append_and_drain_interleaves() {
        let j = FaultJournal::new();
        assert!(j.is_empty());
        let ev = ChaosEvent::from_wire(0, 3, 0).expect("fail-node event");
        // Shard A publishes two events.
        let (foreign, cur_a) = j.append_and_drain(0, ms22(), &[ev, ev]);
        assert!(foreign.is_empty());
        assert_eq!(cur_a, 2);
        assert_eq!(j.len(), 2);
        // Shard B appends one and picks up A's two in the same lock hold.
        let (foreign, cur_b) = j.append_and_drain(0, ms22(), &[ev]);
        assert_eq!(foreign.len(), 2);
        assert_eq!(cur_b, 3);
        // A catches up on B's tail only.
        let (tail, cur) = j.drain_since(cur_a);
        assert_eq!(tail.len(), 1);
        assert_eq!(cur, 3);
    }

    #[test]
    fn route_and_batch_replies_reach_destination() {
        let mut core = shard();
        let net = ms22().to_net().expect("MS(2,2) constructs");
        let k = net.degree_k();
        let from = Perm::identity(k);
        let rev: Vec<u8> = (1..=k as u8).rev().collect();
        let to = Perm::from_symbols(&rev).expect("reversal is a permutation");
        let reply = exchange(
            &mut core,
            &Request::Route {
                net: ms22(),
                from,
                to,
            },
        );
        match reply {
            Reply::RouteOk { flags, hops } => {
                assert_eq!(flags, 0, "clean network routes without detours");
                assert_eq!(apply_path(&from, &hops).expect("hops apply"), to);
            }
            other => panic!("expected RouteOk, got {other:?}"),
        }
        let pairs = vec![(from, to), (to, from)];
        let reply = exchange(
            &mut core,
            &Request::RouteBatch {
                net: ms22(),
                pairs: pairs.clone(),
            },
        );
        match reply {
            Reply::RouteBatchOk(items) => {
                assert_eq!(items.len(), 2);
                for (item, (f, t)) in items.iter().zip(&pairs) {
                    assert_eq!(item.status, 0);
                    assert_eq!(apply_path(f, &item.hops).expect("hops apply"), *t);
                }
            }
            other => panic!("expected RouteBatchOk, got {other:?}"),
        }
    }

    #[test]
    fn malformed_and_unknown_frames_get_typed_errors() {
        let mut core = shard();
        let mut out = Vec::new();
        // Bad version.
        let _fx = core.handle_frame(99, 0x01, &[], &mut out);
        // Unknown type.
        let _fx = core.handle_frame(WIRE_VERSION, 0x77, &[], &mut out);
        // Truncated ROUTE payload.
        let _fx = core.handle_frame(WIRE_VERSION, 0x01, &[0, 2], &mut out);
        let mut codes = Vec::new();
        let mut rest: &[u8] = &out;
        while let FrameStatus::Frame {
            ver,
            ftype,
            start,
            end,
        } = peek_frame(rest)
        {
            match crate::wire::decode_reply(ver, ftype, &rest[start..end]) {
                Ok(Reply::Error { code, .. }) => codes.push(code),
                other => panic!("expected Error reply, got {other:?}"),
            }
            rest = &rest[end..];
        }
        assert_eq!(
            codes,
            vec![
                ErrCode::BadVersion,
                ErrCode::BadFrameType,
                ErrCode::Malformed
            ]
        );
    }

    #[test]
    fn fault_reports_propagate_between_shards() {
        let journal = Arc::new(FaultJournal::new());
        let metrics = Arc::new(ServeMetrics::new());
        let mut a = ShardCore::new(Arc::clone(&metrics), Arc::clone(&journal));
        let mut b = ShardCore::new(Arc::clone(&metrics), Arc::clone(&journal));
        let ev = ChaosEvent::from_wire(0, 1, 0).expect("fail-node event");
        let req = Request::FaultReport {
            net: ms22(),
            events: vec![ev],
        };
        match exchange(&mut a, &req) {
            Reply::FaultOk { applied, epoch } => {
                assert_eq!(applied, 1);
                assert!(epoch > 0);
            }
            other => panic!("expected FaultOk, got {other:?}"),
        }
        // B reports the same event: resolve_in replays the journal, so the
        // duplicate changes nothing (applied == 0) — proof B saw A's fault.
        match exchange(&mut b, &req) {
            Reply::FaultOk { applied, .. } => assert_eq!(applied, 0),
            other => panic!("expected FaultOk, got {other:?}"),
        }
        // A's idle-loop sync of B's duplicate event is a no-op.
        a.sync_faults();
        // A degraded batch on B still delivers or refuses per item — never
        // panics, and the reply stays well-formed.
        let net = ms22().to_net().expect("MS(2,2) constructs");
        let k = net.degree_k();
        let rev: Vec<u8> = (1..=k as u8).rev().collect();
        let pairs = vec![(
            Perm::identity(k),
            Perm::from_symbols(&rev).expect("reversal is a permutation"),
        )];
        match exchange(&mut b, &Request::RouteBatch { net: ms22(), pairs }) {
            Reply::RouteBatchOk(items) => {
                assert_eq!(items.len(), 1);
                assert!(items[0].status == 0 || items[0].status == ErrCode::NoRoute as u8);
            }
            other => panic!("expected RouteBatchOk, got {other:?}"),
        }
    }

    /// Under faults, a pair routed by a single `ROUTE` and the same pair
    /// inside a `ROUTE_BATCH` get the same outcome — status, flags and
    /// hops — and the metrics count both sides exactly: a batch item's
    /// refusal bumps `refused` but not the error counter, a single
    /// `ROUTE` refusal bumps both.
    #[test]
    fn single_routes_equal_batch_items_under_faults() {
        let metrics = Arc::new(ServeMetrics::new());
        let mut core = ShardCore::new(Arc::clone(&metrics), Arc::new(FaultJournal::new()));
        let net = ms22().to_net().expect("MS(2,2) constructs");
        let mat = scg_core::materialize(&net, scg_core::SMALL_NET_CAP).expect("120 nodes");
        let plan = scg_core::route_plan(&net).expect("plan compiles");
        let k = net.degree_k();
        let mut rng = scg_perm::XorShift64::new(0xD1FF_5EED);
        let pairs: Vec<(Perm, Perm)> = (0..48)
            .map(|_| (Perm::random(k, &mut rng), Perm::random(k, &mut rng)))
            .collect();
        let id = |p: &Perm| mat.node_id(p).expect("label has an id");
        // Pair 0's destination fails (one refusal); the first interior
        // node of pair 1's clean route fails and the first link of pairs
        // 2 and 3 fails, so their clean routes are blocked.
        let first_step = |(from, to): &(Perm, Perm)| {
            let hops = plan.route(from, to).expect("clean route");
            (
                id(from),
                id(&apply_path(from, &hops[..1]).expect("hop applies")),
            )
        };
        let (_, interior) = first_step(&pairs[1]);
        let (a, b) = first_step(&pairs[2]);
        let (c, d) = first_step(&pairs[3]);
        let events = vec![
            ChaosEvent::FailNode(id(&pairs[0].1)),
            ChaosEvent::FailNode(interior),
            ChaosEvent::FailLinkUndirected(a, b),
            ChaosEvent::FailLinkUndirected(c, d),
        ];
        match exchange(
            &mut core,
            &Request::FaultReport {
                net: ms22(),
                events,
            },
        ) {
            Reply::FaultOk { applied, .. } => assert_eq!(applied, 4),
            other => panic!("expected FaultOk, got {other:?}"),
        }

        let singles: Vec<BatchItem> = pairs
            .iter()
            .map(|&(from, to)| {
                match exchange(
                    &mut core,
                    &Request::Route {
                        net: ms22(),
                        from,
                        to,
                    },
                ) {
                    Reply::RouteOk { flags, hops } => BatchItem {
                        status: 0,
                        flags,
                        hops,
                    },
                    Reply::Error { code, detail } => {
                        assert_eq!(detail, "", "single refusal detail");
                        BatchItem {
                            status: code as u8,
                            flags: 0,
                            hops: Vec::new(),
                        }
                    }
                    other => panic!("expected RouteOk or Error, got {other:?}"),
                }
            })
            .collect();
        let batch = match exchange(
            &mut core,
            &Request::RouteBatch {
                net: ms22(),
                pairs: pairs.clone(),
            },
        ) {
            Reply::RouteBatchOk(items) => items,
            other => panic!("expected RouteBatchOk, got {other:?}"),
        };
        assert_eq!(batch, singles, "single and batch outcomes diverge");

        // Exactly the pairs with a failed endpoint refuse; every other
        // pair arrives.
        let dead = [id(&pairs[0].1), interior];
        let expect_refused: Vec<usize> = (0..pairs.len())
            .filter(|&i| dead.contains(&id(&pairs[i].0)) || dead.contains(&id(&pairs[i].1)))
            .collect();
        let refused: Vec<usize> = (0..batch.len()).filter(|&i| batch[i].status != 0).collect();
        assert_eq!(refused, expect_refused);
        assert_eq!(refused[0], 0);
        for (item, (from, to)) in batch.iter().zip(&pairs) {
            if item.status == 0 {
                assert_eq!(apply_path(from, &item.hops).expect("hops apply"), *to);
            } else {
                assert_eq!(item.status, ErrCode::NoRoute as u8);
            }
        }
        let flagged = |bit: u8| batch.iter().filter(|it| it.flags & bit != 0).count() as u64;
        let (detoured, fallback) = (flagged(FLAG_DETOURED), flagged(FLAG_FALLBACK));
        let no = refused.len() as u64;
        // Seeded, so the mix is fixed: refusals, detours and fallbacks
        // all occur.
        assert_eq!((no, detoured, fallback), (3, 10, 2));
        let ok = pairs.len() as u64 - no;
        assert_eq!(metrics.routes.get(), 2 * ok);
        assert_eq!(metrics.refused.get(), 2 * no);
        assert_eq!(metrics.detoured.get(), 2 * detoured);
        assert_eq!(metrics.fallback.get(), 2 * fallback);
        let errors = |code: ErrCode| {
            metrics
                .registry()
                .counter("scg_serve_errors_total", &[("code", code.as_str())])
                .get()
        };
        assert_eq!(errors(ErrCode::NoRoute), no, "only single ROUTEs count");
        assert_eq!(errors(ErrCode::DegreeMismatch), 0);
    }

    #[test]
    fn metrics_request_serves_local_registry() {
        let mut core = shard();
        match exchange(&mut core, &Request::Metrics { json: false }) {
            Reply::MetricsOk(body) => {
                assert!(body.contains("scg_serve_requests_total"));
                assert!(body.contains("scg_serve_slo_route_p99_target_micros"));
            }
            other => panic!("expected MetricsOk, got {other:?}"),
        }
        match exchange(&mut core, &Request::Metrics { json: true }) {
            Reply::MetricsOk(body) => assert!(body.trim_start().starts_with('{')),
            other => panic!("expected MetricsOk, got {other:?}"),
        }
    }
}
