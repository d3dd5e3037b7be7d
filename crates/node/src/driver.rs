//! A streaming-phase [`RequesterMachine`] under its former name.
//!
//! [`SessionDriver`] is kept for one caller: the repo benchmark's
//! `node.driver_ns_per_segment` probe, which builds one and feeds it
//! segments. It is a thin wrapper, not a second implementation — the
//! machine enters streaming through the same step its §4.2 round hands
//! off to, and each segment takes the machine's own frame path. ROADMAP
//! item 14(a) re-points that probe at [`RequesterMachine`] and deletes
//! this module.
//!
//! # Examples
//!
//! A two-supplier session fed to completion, one segment at a time:
//!
//! ```
//! use bytes::Bytes;
//! use p2ps_core::PeerClass;
//! use p2ps_node::SessionDriver;
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
//! assert!(!driver.on_segment(0, 0, Bytes::from(vec![0u8; 8]), 10));
//! assert!(!driver.on_segment(1, 1, Bytes::from(vec![1u8; 8]), 12));
//! assert!(!driver.on_segment(0, 2, Bytes::from(vec![2u8; 8]), 30));
//! // The last segment completes the session.
//! assert!(driver.on_segment(1, 3, Bytes::from(vec![3u8; 8]), 32));
//! # Ok::<(), p2ps_core::Error>(())
//! ```

use bytes::Bytes;

use p2ps_core::assignment::SegmentDuration;
use p2ps_core::PeerClass;
use p2ps_media::MediaInfo;
use p2ps_policy::SharedPolicy;
use p2ps_proto::{Message, SessionPlan};

use crate::{RequesterMachine, WatchdogConfig};

/// A [`RequesterMachine`] handed `lanes` as its plan, without a round.
pub struct SessionDriver(RequesterMachine);

impl SessionDriver {
    /// A machine streaming `lanes` (each supplier's class and its wire
    /// plan; lane `i` streams in slot `i`), handed off at time 0, for a
    /// file of `total_segments` (> 0) segments of `dt_ms` each. The
    /// machine never reads a segment's size, so the file's is a 1-byte
    /// placeholder.
    pub fn new(
        session: u64,
        item: &str,
        total_segments: u64,
        dt_ms: u64,
        policy: SharedPolicy,
        lanes: &[(PeerClass, SessionPlan)],
    ) -> Self {
        let info = MediaInfo::new(item, total_segments, SegmentDuration::from_millis(dt_ms), 1);
        let classes: Vec<PeerClass> = lanes.iter().map(|&(class, _)| class).collect();
        let plans = lanes
            .iter()
            .map(|(_, plan)| plan.clone())
            .enumerate()
            .collect();
        // No round runs, so the requester's own class is never sent.
        let (class, grace_ms) = (PeerClass::HIGHEST, WatchdogConfig::default().grace_ms);
        let mut machine = RequesterMachine::new(session, class, info, policy, &classes, grace_ms);
        machine.stream(plans, 0);
        SessionDriver(machine)
    }

    /// Segment `index` arrived on `lane` at `at_us` after the hand-off,
    /// as a `SegmentData` frame; the actions it queues are dropped.
    /// Returns whether the session has completed.
    pub fn on_segment(&mut self, lane: usize, index: u64, payload: Bytes, at_us: u64) -> bool {
        let session = self.0.session;
        let msg = Message::SegmentData {
            session,
            index,
            payload,
        };
        self.0.on_message(lane, msg, at_us);
        while self.0.pop_action().is_some() {}
        matches!(self.0.outcome(), Some(Ok(())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2ps_policy::RandomBaseline;

    use crate::{NodeError, RequesterAction};

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

    /// `lane`'s transport is gone; returns the `(lane, plan)` of every
    /// `StartSession` the machine ships in answer.
    fn lose(d: &mut SessionDriver, lane: usize) -> Vec<(usize, SessionPlan)> {
        d.0.on_lane_closed(lane, 0);
        std::iter::from_fn(|| d.0.pop_action())
            .filter_map(|action| match action {
                RequesterAction::Send {
                    lane,
                    msg: Message::StartSession { plan, .. },
                } => Some((lane, plan)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn completes_without_incident() {
        let lanes = vec![
            (class(2), periodic(vec![0], 2, 4)),
            (class(2), periodic(vec![1], 2, 4)),
        ];
        let mut d = SessionDriver::new(1, "t", 4, 5, SharedPolicy::default(), &lanes);
        assert_eq!(d.0.stride_ms(), Some(10), "class-2 lanes pace at 2·δt");
        for (lane, seg) in [(0usize, 0u64), (1, 1), (0, 2)] {
            assert!(!d.on_segment(lane, seg, payload(seg), seg * 5));
        }
        assert!(d.on_segment(1, 3, payload(3), 20));
        let Some(Ok((sm, classes))) = d.0.into_outcome() else {
            panic!("the session must complete");
        };
        assert!(sm.is_complete());
        assert_eq!(classes.len(), 2);
    }

    #[test]
    fn last_supplier_loss_is_suppliers_lost() {
        let lanes = vec![(class(1), periodic(vec![0], 1, 4))];
        let mut d = SessionDriver::new(2, "t", 4, 5, SharedPolicy::default(), &lanes);
        d.on_segment(0, 0, payload(0), 1);
        assert!(lose(&mut d, 0).is_empty(), "no survivor to ship to");
        match d.0.outcome() {
            Some(Err(NodeError::SuppliersLost { missing })) => assert_eq!(*missing, 3),
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
        d.0.on_message(0, Message::EndSession { session: 3 }, 3);
        match d.0.outcome() {
            Some(Err(NodeError::IncompleteStream { received, expected })) => {
                assert_eq!((*received, *expected), (3, 4));
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
        let plans = lose(&mut d, 1);
        assert_eq!(plans.len(), 1, "the survivor must absorb the share");
        let (lane, wire) = &plans[0];
        assert_eq!(*lane, 0);
        assert!(wire.is_explicit());
        assert_eq!(wire.segments, vec![3, 5]);
        // The survivor now owes its own share plus the replanned one.
        for seg in [2u64, 4, 3] {
            assert!(!d.on_segment(0, seg, payload(seg), 10));
        }
        assert!(d.on_segment(0, 5, payload(5), 20));
    }

    #[test]
    fn adoption_failure_before_any_byte_replans_immediately() {
        let lanes = vec![
            (class(2), periodic(vec![0], 2, 4)),
            (class(2), periodic(vec![1], 2, 4)),
        ];
        let mut d = SessionDriver::new(5, "t", 4, 5, SharedPolicy::new(RandomBaseline), &lanes);
        while d.0.pop_action().is_some() {}
        let plans = lose(&mut d, 1);
        assert!(!plans.is_empty(), "expected a replan");
        let mut shipped: Vec<u64> = plans
            .iter()
            .flat_map(|(_, p)| p.segments.iter().map(|&s| u64::from(s)))
            .collect();
        shipped.sort_unstable();
        assert_eq!(shipped, vec![1, 3], "the dead lane's whole share moves");
    }

    /// The benchmark probe's exact shape: 512 segments on one class-1
    /// lane complete the session.
    #[test]
    fn the_probe_s_session_completes() {
        const SEGMENTS: u64 = 512;
        let plan = SessionPlan {
            item: "video".into(),
            segments: vec![0],
            period: 1,
            total_segments: SEGMENTS,
            dt_ms: 1,
        };
        let lanes = [(PeerClass::HIGHEST, plan)];
        let payload = Bytes::from(vec![0u8; 256]);
        let mut driver =
            SessionDriver::new(7, "video", SEGMENTS, 1, SharedPolicy::default(), &lanes);
        for i in 0..SEGMENTS - 1 {
            assert!(!driver.on_segment(0, i, payload.clone(), i));
        }
        assert!(driver.on_segment(0, SEGMENTS - 1, payload, SEGMENTS - 1));
    }
}
