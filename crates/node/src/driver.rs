//! Transport-agnostic streaming half of a requester session.
//!
//! [`SessionDriver`] is the decision layer over the sans-io
//! [`RequesterSession`] reassembly machine once a session is planned:
//! it owns the per-lane liveness bookkeeping, routes a lost supplier's
//! undelivered share through [`SelectionPolicy::replan`] over the
//! survivors, converts recovered shares into explicit wire
//! [`SessionPlan`]s, and decides when the session is complete or beyond
//! recovery ([`NodeError::SuppliersLost`] /
//! [`NodeError::IncompleteStream`]).
//!
//! Its lanes are the planned shares, in plan order. The
//! [`RequesterMachine`](crate::RequesterMachine) builds one when its §4.2
//! round admits and maps the lanes back to candidates; the epoll reactor
//! and the deterministic simulation harness (`p2ps-simnet`) both host
//! that machine, so every replan decision exercised by a simulated
//! schedule is the decision the live node makes.
//!
//! # Examples
//!
//! A two-supplier session losing one supplier mid-stream:
//!
//! ```
//! use bytes::Bytes;
//! use p2ps_core::PeerClass;
//! use p2ps_node::{DriverStep, SessionDriver};
//! use p2ps_proto::SessionPlan;
//!
//! let plan = |segments: Vec<u32>| SessionPlan {
//!     item: "demo".into(),
//!     segments,
//!     period: 2,
//!     total_segments: 4,
//!     dt_ms: 10,
//! };
//! let lanes = vec![
//!     (PeerClass::new(2)?, plan(vec![0])),
//!     (PeerClass::new(2)?, plan(vec![1])),
//! ];
//! let mut driver = SessionDriver::new(7, "demo", 4, 10, Default::default(), &lanes);
//! driver.on_segment(0, 0, Bytes::from(vec![0u8; 8]), 10);
//! driver.on_segment(1, 1, Bytes::from(vec![1u8; 8]), 12);
//! // Lane 1 dies owing segment 3: its share is replanned onto lane 0.
//! let DriverStep::Replanned(plans) = driver.on_failure(1) else { panic!() };
//! assert_eq!(plans.len(), 1);
//! assert_eq!(plans[0].0, 0, "survivor lane");
//! assert_eq!(plans[0].1.segments, vec![3]);
//! # Ok::<(), p2ps_core::Error>(())
//! ```

use bytes::Bytes;

use p2ps_core::PeerClass;
use p2ps_policy::{SessionContext, SharedPolicy};
use p2ps_proto::{RequesterSession, SessionPlan};

use crate::NodeError;

/// What the transport must do after feeding the driver one event.
#[derive(Debug)]
#[non_exhaustive]
pub enum DriverStep {
    /// Nothing to do; keep feeding events.
    Continue,
    /// A lost supplier's share was replanned: ship each `(lane, plan)`
    /// to that lane's supplier as an explicit `StartSession` (the
    /// supplier appends it to its running schedule).
    Replanned(Vec<(usize, SessionPlan)>),
    /// Every segment of the file has arrived.
    Complete,
    /// The session can no longer complete.
    Failed(NodeError),
}

/// The requester side of one streaming session, decoupled from its
/// transport: reassembly, lane liveness, policy-driven replanning and
/// the completion/failure verdict.
///
/// Lanes are indexed in construction order (matching
/// [`RequesterSession`]'s supplier indices). The transport reports
/// per-lane events — [`on_segment`](Self::on_segment),
/// [`on_end`](Self::on_end), [`on_failure`](Self::on_failure) — and
/// executes the returned [`DriverStep`].
pub struct SessionDriver {
    session: u64,
    item: String,
    dt_ms: u64,
    policy: SharedPolicy,
    classes: Vec<PeerClass>,
    /// Whether the lane's transport is still up (distinct from the state
    /// machine's own lane state: a lane whose connection never came up is
    /// dead in transport terms while still `Streaming` in the machine
    /// until [`on_failure`](Self::on_failure) settles it).
    live: Vec<bool>,
    /// Worst-case healthy ms between consecutive segments across lanes.
    stride_ms: u64,
    sm: RequesterSession,
}

impl SessionDriver {
    /// A driver over `lanes` (each supplier's class and its wire plan,
    /// in lane order) for a file of `total_segments` segments of
    /// `dt_ms` playback each.
    pub fn new(
        session: u64,
        item: &str,
        total_segments: u64,
        dt_ms: u64,
        policy: SharedPolicy,
        lanes: &[(PeerClass, SessionPlan)],
    ) -> Self {
        let mut sm = RequesterSession::new(total_segments);
        let mut classes = Vec::with_capacity(lanes.len());
        let mut stride_ms = dt_ms;
        for (class, plan) in lanes {
            classes.push(*class);
            sm.add_supplier(plan.expanded());
            // The healthy gap between a lane's segments: the slowest
            // lane's §3 pacing stride `spp · δt` (explicit one-shot plans
            // pace at the supplier's class rate).
            stride_ms =
                stride_ms.max(plan.stride_slots(u64::from(class.slots_per_segment())) * dt_ms);
        }
        SessionDriver {
            session,
            item: item.to_owned(),
            dt_ms,
            policy,
            classes,
            live: vec![true; lanes.len()],
            stride_ms,
            sm,
        }
    }

    /// The session identifier.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Segment playback time `δt` in milliseconds.
    pub fn dt_ms(&self) -> u64 {
        self.dt_ms
    }

    /// Worst-case healthy ms between consecutive segments of a lane —
    /// what [`RequesterMachine`](crate::RequesterMachine)'s per-lane
    /// progress deadline adds its grace to.
    pub fn stride_ms(&self) -> u64 {
        self.stride_ms
    }

    /// The supplier classes in lane order.
    pub fn classes(&self) -> &[PeerClass] {
        &self.classes
    }

    /// The underlying sans-io reassembly machine (read-only: progress,
    /// phase, owed totals for monitoring).
    pub fn machine(&self) -> &RequesterSession {
        &self.sm
    }

    /// Consumes the driver, yielding the reassembly machine (per-segment
    /// payloads and arrival times) and the lane classes.
    pub fn into_parts(self) -> (RequesterSession, Vec<PeerClass>) {
        (self.sm, self.classes)
    }

    /// Marks `lane`'s transport dead without settling its share yet.
    ///
    /// When several lanes die in one batch (e.g. multiple adoptions fail
    /// while launching), mark them all dead first, then settle each with
    /// [`on_failure`](Self::on_failure) — otherwise the first replan
    /// would count the other doomed lanes as survivors.
    pub fn mark_dead(&mut self, lane: usize) {
        self.live[lane] = false;
    }

    /// The session's current verdict with no new event: [`DriverStep::Complete`]
    /// when every segment has arrived (e.g. a zero-segment file right at
    /// launch), [`DriverStep::Failed`] when nothing can still make
    /// progress, [`DriverStep::Continue`] otherwise.
    pub fn status(&self) -> DriverStep {
        self.check_progress()
    }

    /// A segment arrived on `lane` at `at_us`, in µs since the hand-off
    /// on the transport's clock (the reactor's, or simnet's virtual
    /// one); the driver only stores it with the segment.
    pub fn on_segment(
        &mut self,
        lane: usize,
        index: u64,
        payload: Bytes,
        at_us: u64,
    ) -> DriverStep {
        self.sm.on_segment(lane, index, payload, at_us);
        if self.sm.is_complete() {
            DriverStep::Complete
        } else {
            DriverStep::Continue
        }
    }

    /// The supplier on `lane` ended its session cleanly. Leftovers (a
    /// replan racing an `EndSession` already in flight) are re-replanned
    /// across the remaining suppliers.
    pub fn on_end(&mut self, lane: usize) -> DriverStep {
        self.live[lane] = false;
        let leftovers = self.sm.on_end(lane);
        if leftovers.is_empty() {
            self.check_progress()
        } else {
            self.replan(&leftovers)
        }
    }

    /// The supplier on `lane` was lost (connection drop, corrupt stream,
    /// missed progress deadline, adoption failure). Its undelivered share is
    /// replanned over the surviving lanes.
    pub fn on_failure(&mut self, lane: usize) -> DriverStep {
        self.live[lane] = false;
        let missing = self.sm.on_failure(lane);
        if missing.is_empty() {
            self.check_progress()
        } else {
            self.replan(&missing)
        }
    }

    /// Lanes still expected to deliver: transport up *and* the machine
    /// still counts them as streaming.
    fn survivors(&self) -> Vec<usize> {
        self.sm
            .streaming_suppliers()
            .filter(|&lane| self.live[lane])
            .collect()
    }

    /// The completion/stall verdict after any lane settled.
    fn check_progress(&self) -> DriverStep {
        if self.sm.is_complete() {
            return DriverStep::Complete;
        }
        if self.survivors().is_empty() {
            return DriverStep::Failed(NodeError::IncompleteStream {
                received: self.sm.received(),
                expected: self.sm.total_segments(),
            });
        }
        DriverStep::Continue
    }

    /// Routes `missing` through the policy onto the survivors; fails the
    /// session when recovery is impossible.
    fn replan(&mut self, missing: &[u64]) -> DriverStep {
        let total = self.sm.total_segments();
        let outstanding = total - self.sm.received();
        let survivors = self.survivors();
        if survivors.is_empty() {
            return DriverStep::Failed(NodeError::SuppliersLost {
                missing: outstanding,
            });
        }
        let survivor_classes: Vec<PeerClass> =
            survivors.iter().map(|&lane| self.classes[lane]).collect();
        let rctx = SessionContext::full(&survivor_classes, total).with_seed(self.session);
        let plan = match self.policy.replan(&rctx, missing) {
            Ok(plan) => plan,
            Err(e) => {
                return DriverStep::Failed(NodeError::Protocol(format!("replan failed: {e}")))
            }
        };
        if plan.slot_count() != survivors.len() {
            return DriverStep::Failed(NodeError::Protocol(format!(
                "policy '{}' replanned {} slots for {} survivors",
                self.policy.name(),
                plan.slot_count(),
                survivors.len()
            )));
        }
        let Ok(period) = u32::try_from(total.max(1)) else {
            return DriverStep::Failed(NodeError::Protocol(
                "file too large for an explicit replan".into(),
            ));
        };
        let queues = plan.queues(0, total);
        let assigned: usize = queues.iter().map(Vec::len).sum();
        if assigned < missing.len() {
            // The policy could not place every lost segment; the session
            // can never complete.
            return DriverStep::Failed(NodeError::SuppliersLost {
                missing: outstanding,
            });
        }
        let mut shipped = Vec::new();
        for (j, queue) in queues.into_iter().enumerate() {
            if queue.is_empty() {
                continue;
            }
            let lane = survivors[j];
            let wire = SessionPlan {
                item: self.item.clone(),
                segments: queue.iter().map(|&s| s as u32).collect(),
                period,
                total_segments: total,
                dt_ms: self.dt_ms as u32,
            };
            self.sm.assign_more(lane, queue);
            shipped.push((lane, wire));
        }
        DriverStep::Replanned(shipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2ps_policy::RandomBaseline;

    fn payload(i: u64) -> Bytes {
        Bytes::from(vec![i as u8; 4])
    }

    fn periodic(segments: Vec<u32>, period: u32, total: u64) -> SessionPlan {
        SessionPlan {
            item: "t".into(),
            segments,
            period,
            total_segments: total,
            dt_ms: 5,
        }
    }

    fn class(k: u8) -> PeerClass {
        PeerClass::new(k).unwrap()
    }

    #[test]
    fn completes_without_incident() {
        let lanes = vec![
            (class(2), periodic(vec![0], 2, 4)),
            (class(2), periodic(vec![1], 2, 4)),
        ];
        let mut d = SessionDriver::new(1, "t", 4, 5, SharedPolicy::default(), &lanes);
        assert_eq!(d.stride_ms(), 10, "class-2 lanes pace at 2·δt");
        for (lane, seg) in [(0usize, 0u64), (1, 1), (0, 2)] {
            assert!(matches!(
                d.on_segment(lane, seg, payload(seg), seg * 5),
                DriverStep::Continue
            ));
        }
        assert!(matches!(
            d.on_segment(1, 3, payload(3), 20),
            DriverStep::Complete
        ));
        let (sm, classes) = d.into_parts();
        assert!(sm.is_complete());
        assert_eq!(classes.len(), 2);
    }

    #[test]
    fn last_supplier_loss_is_suppliers_lost() {
        let lanes = vec![(class(1), periodic(vec![0], 1, 4))];
        let mut d = SessionDriver::new(2, "t", 4, 5, SharedPolicy::default(), &lanes);
        d.on_segment(0, 0, payload(0), 1);
        match d.on_failure(0) {
            DriverStep::Failed(NodeError::SuppliersLost { missing }) => assert_eq!(missing, 3),
            other => panic!("expected SuppliersLost, got {other:?}"),
        }
    }

    #[test]
    fn clean_end_with_missing_segments_is_incomplete_stream() {
        // A single supplier whose plan never covered segment 3.
        let lanes = vec![(class(1), periodic(vec![0, 1, 2], 4, 4))];
        let mut d = SessionDriver::new(3, "t", 4, 5, SharedPolicy::default(), &lanes);
        for seg in 0..3u64 {
            d.on_segment(0, seg, payload(seg), seg);
        }
        match d.on_end(0) {
            DriverStep::Failed(NodeError::IncompleteStream { received, expected }) => {
                assert_eq!((received, expected), (3, 4));
            }
            other => panic!("expected IncompleteStream, got {other:?}"),
        }
    }

    #[test]
    fn replanned_shares_ride_explicit_plans_and_session_still_completes() {
        let lanes = vec![
            (class(2), periodic(vec![0], 2, 6)),
            (class(2), periodic(vec![1], 2, 6)),
        ];
        let mut d = SessionDriver::new(4, "t", 6, 5, SharedPolicy::default(), &lanes);
        d.on_segment(0, 0, payload(0), 1);
        d.on_segment(1, 1, payload(1), 2);
        let DriverStep::Replanned(plans) = d.on_failure(1) else {
            panic!("survivor must absorb the share");
        };
        assert_eq!(plans.len(), 1);
        let (lane, wire) = &plans[0];
        assert_eq!(*lane, 0);
        assert!(wire.is_explicit());
        assert_eq!(wire.segments, vec![3, 5]);
        // The survivor now owes its own share plus the replanned one.
        for seg in [2u64, 4, 3] {
            assert!(matches!(
                d.on_segment(0, seg, payload(seg), 10),
                DriverStep::Continue
            ));
        }
        assert!(matches!(
            d.on_segment(0, 5, payload(5), 20),
            DriverStep::Complete
        ));
    }

    #[test]
    fn adoption_failure_before_any_byte_replans_immediately() {
        let lanes = vec![
            (class(2), periodic(vec![0], 2, 4)),
            (class(2), periodic(vec![1], 2, 4)),
        ];
        let mut d = SessionDriver::new(5, "t", 4, 5, SharedPolicy::new(RandomBaseline), &lanes);
        let DriverStep::Replanned(plans) = d.on_failure(1) else {
            panic!("expected a replan");
        };
        let mut shipped: Vec<u64> = plans
            .iter()
            .flat_map(|(_, p)| p.segments.iter().map(|&s| u64::from(s)))
            .collect();
        shipped.sort_unstable();
        assert_eq!(shipped, vec![1, 3], "the dead lane's whole share moves");
    }
}
