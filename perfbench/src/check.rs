//! The correctness gate. Every reply is scanned in place for its frame
//! type, status bytes and framing (the same scan the client would need
//! to use the reply); a seeded sample of replies is fully decoded and
//! every route in it replayed label by label: it must reach its
//! destination and never step on a node that was failed when the daemon
//! routed it.

use scg_graph::NodeId;
use scg_serve::wire::{decode_reply, FrameType, Reply, FLAG_DETOURED, FLAG_FALLBACK, WIRE_VERSION};

use crate::inputs::{Frame, Op, Pool};

/// What one scanned reply holds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Scan {
    /// Pairs routed.
    pub ok: u64,
    /// Pairs (or fault reports) refused with an error status.
    pub refused: u64,
    /// Hops over the routed pairs.
    pub hops: u64,
    /// Routed pairs flagged as detoured.
    pub detoured: u64,
    /// Routed pairs flagged as produced by the survivor-BFS fallback.
    pub fallback: u64,
    /// Fault reports: events applied and the fault epoch after them.
    pub applied: u32,
    /// See `applied`.
    pub epoch: u64,
}

fn u16_at(b: &[u8], at: usize) -> Option<usize> {
    Some(usize::from(u16::from_le_bytes([
        *b.get(at)?,
        *b.get(at + 1)?,
    ])))
}

fn u32_at(b: &[u8], at: usize) -> Option<usize> {
    let w = b.get(at..at + 4)?;
    Some(u32::from_le_bytes([w[0], w[1], w[2], w[3]]) as usize)
}

fn route_flags(scan: &mut Scan, flags: u8, hops: usize) {
    scan.ok += 1;
    scan.hops += hops as u64;
    scan.detoured += u64::from(flags & FLAG_DETOURED != 0);
    scan.fallback += u64::from(flags & FLAG_FALLBACK != 0);
}

/// Scans the reply payload to a frame asking for `op`, without decoding
/// any hop.
///
/// # Errors
///
/// Describes a reply of the wrong type, or whose lengths, counts or
/// status bytes do not frame exactly.
pub fn scan_reply(op: &Op, ftype: u8, payload: &[u8]) -> Result<Scan, String> {
    let bad = |what: &str| {
        Err(format!(
            "{what} (reply type {ftype:#04x}, {} bytes)",
            payload.len()
        ))
    };
    let mut scan = Scan::default();
    if ftype == FrameType::Error as u8 {
        scan.refused = match op {
            Op::Route(range) => range.len() as u64,
            Op::Fault(_) => 1,
        };
        return Ok(scan);
    }
    match op {
        Op::Route(range) if range.len() == 1 && ftype == FrameType::RouteOk as u8 => {
            let Some(hops) = u16_at(payload, 1) else {
                return bad("short ROUTE_OK");
            };
            if payload.len() != 3 + 3 * hops {
                return bad("ROUTE_OK length does not match its hop count");
            }
            route_flags(&mut scan, payload[0], hops);
        }
        Op::Route(range) if ftype == FrameType::RouteBatchOk as u8 => {
            if u32_at(payload, 0) != Some(range.len()) {
                return bad("ROUTE_BATCH_OK count differs from the request");
            }
            let mut at = 4;
            for _ in 0..range.len() {
                match payload.get(at) {
                    Some(0) => {
                        let (Some(&flags), Some(hops)) =
                            (payload.get(at + 1), u16_at(payload, at + 2))
                        else {
                            return bad("truncated batch item");
                        };
                        route_flags(&mut scan, flags, hops);
                        at += 4 + 3 * hops;
                    }
                    Some(_) => {
                        scan.refused += 1;
                        at += 1;
                    }
                    None => return bad("truncated batch reply"),
                }
            }
            if at != payload.len() {
                return bad("batch reply does not end after its last item");
            }
        }
        Op::Fault(_) if ftype == FrameType::FaultOk as u8 => {
            if payload.len() != 12 {
                return bad("FAULT_OK is not 12 bytes");
            }
            scan.applied = u32_at(payload, 0).unwrap_or_default() as u32;
            let mut w = [0u8; 8];
            w.copy_from_slice(&payload[4..12]);
            scan.epoch = u64::from_le_bytes(w);
        }
        _ => return bad("unexpected reply type"),
    }
    Ok(scan)
}

/// Fully decodes a route reply and replays every route in it. Returns the
/// number of pairs checked.
///
/// # Errors
///
/// Describes the first route that does not decode, is refused, does not
/// reach its destination, or passes through a failed node.
pub fn verify_routes(pool: &Pool, frame: &Frame, ftype: u8, payload: &[u8]) -> Result<u64, String> {
    let Op::Route(range) = &frame.op else {
        return Ok(0);
    };
    let reply = decode_reply(WIRE_VERSION, ftype, payload)
        .map_err(|e| format!("reply does not decode: {}", e.as_str()))?;
    let paths = match reply {
        Reply::RouteOk { hops, .. } => vec![hops],
        Reply::RouteBatchOk(items) => {
            if items.iter().any(|i| i.status != 0) {
                return Err("sampled batch holds a refused pair".into());
            }
            items.into_iter().map(|i| i.hops).collect()
        }
        other => return Err(format!("sampled reply is not a route: {other:?}")),
    };
    let failed: &[NodeId] = &pool.fault_states[frame.state];
    let pairs = &pool.pairs[range.clone()];
    if paths.len() != pairs.len() {
        return Err("route count differs from the request".into());
    }
    for ((from, to), hops) in pairs.iter().zip(&paths) {
        let mut at = *from;
        for g in hops {
            at = g
                .apply(&at)
                .map_err(|e| format!("hop {g:?} does not apply: {e}"))?;
            if failed.binary_search(&(at.rank() as NodeId)).is_ok() {
                return Err(format!(
                    "route {from:?} -> {to:?} enters failed node {}",
                    at.rank()
                ));
            }
        }
        if at != *to {
            return Err(format!("route {from:?} -> {to:?} ends at {at:?}"));
        }
    }
    Ok(pairs.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate, Workload};
    use scg_core::RoutePlan;
    use scg_serve::wire::{encode_reply, peek_frame, BatchItem, FrameStatus};

    fn payload(frame: &[u8]) -> (u8, Vec<u8>) {
        match peek_frame(frame) {
            FrameStatus::Frame {
                ftype, start, end, ..
            } => (ftype, frame[start..end].to_vec()),
            other => panic!("does not frame: {other:?}"),
        }
    }

    #[test]
    fn correct_batch_replies_pass_and_tampered_ones_fail() {
        let spec = Workload::BatchK9.daemon_spec().expect("daemon workload");
        let pool = generate(spec, 3);
        let net = spec.net().to_net().expect("MS(4,2)");
        let plan = RoutePlan::build(&net).expect("plan");
        let frame = &pool.frames[0];
        let Op::Route(range) = &frame.op else {
            panic!("route frame")
        };
        let items: Vec<BatchItem> = pool.pairs[range.clone()]
            .iter()
            .map(|(f, t)| BatchItem {
                status: 0,
                flags: 0,
                hops: plan.route(f, t).expect("routes"),
            })
            .collect();
        let hops: u64 = items.iter().map(|i| i.hops.len() as u64).sum();
        let (ftype, body) = payload(&encode_reply(&Reply::RouteBatchOk(items.clone())));
        let scan = scan_reply(&frame.op, ftype, &body).expect("frames");
        assert_eq!(
            (scan.ok, scan.refused, scan.hops),
            (range.len() as u64, 0, hops)
        );
        assert_eq!(
            verify_routes(&pool, frame, ftype, &body),
            Ok(range.len() as u64)
        );

        // A wrong hop is caught by the replay, a truncated reply by the scan.
        let mut wrong = items.clone();
        wrong[5].hops.pop();
        let (ftype, body) = payload(&encode_reply(&Reply::RouteBatchOk(wrong)));
        assert!(scan_reply(&frame.op, ftype, &body).is_ok());
        assert!(verify_routes(&pool, frame, ftype, &body).is_err());
        let (ftype, body) = payload(&encode_reply(&Reply::RouteBatchOk(items)));
        assert!(scan_reply(&frame.op, ftype, &body[..body.len() - 1]).is_err());
    }

    #[test]
    fn routes_through_a_failed_node_are_rejected() {
        let spec = Workload::FaultsK9.daemon_spec().expect("daemon workload");
        let mut pool = generate(spec, 5);
        let net = spec.net().to_net().expect("MS(4,2)");
        let plan = RoutePlan::build(&net).expect("plan");
        let frame = pool
            .frames
            .iter()
            .find(|f| matches!(f.op, Op::Route(_)))
            .expect("route")
            .clone();
        let Op::Route(range) = frame.op.clone() else {
            unreachable!()
        };
        let (from, to) = pool.pairs[range.start];
        let hops = plan.route(&from, &to).expect("routes");
        let items: Vec<BatchItem> = pool.pairs[range.clone()]
            .iter()
            .map(|(f, t)| BatchItem {
                status: 0,
                flags: 0,
                hops: plan.route(f, t).expect("routes"),
            })
            .collect();
        let (ftype, body) = payload(&encode_reply(&Reply::RouteBatchOk(items)));
        // Fail the first intermediate node of the first route in the
        // frame's fault state: the replay must now reject it.
        let mid = hops[0].apply(&from).expect("applies").rank() as NodeId;
        let state = &mut pool.fault_states[frame.state];
        if let Err(at) = state.binary_search(&mid) {
            state.insert(at, mid);
        }
        let err = verify_routes(&pool, &frame, ftype, &body).expect_err("enters a failed node");
        assert!(err.contains("failed node"), "{err}");
    }

    #[test]
    fn error_replies_count_as_refusals_and_fault_acks_are_read() {
        let op = Op::Route(0..3);
        let (ftype, body) = payload(&encode_reply(&Reply::Error {
            code: scg_serve::ErrCode::NoRoute,
            detail: String::new(),
        }));
        assert_eq!(scan_reply(&op, ftype, &body).map(|s| s.refused), Ok(3));
        let (ftype, body) = payload(&encode_reply(&Reply::FaultOk {
            applied: 1,
            epoch: 9,
        }));
        let scan = scan_reply(&Op::Fault(Vec::new()), ftype, &body).expect("frames");
        assert_eq!((scan.applied, scan.epoch), (1, 9));
        assert!(
            scan_reply(&op, ftype, &body).is_err(),
            "fault ack to a route frame"
        );
    }
}
