//! Sans-io requester session: multi-supplier reassembly + owed tracking.
//!
//! The receiving half of one streaming session as a pure state machine:
//! per-supplier transmission queues go in (derived from the
//! [`SessionPlan`](crate::SessionPlan)s the requester sent), decoded
//! `SegmentData` / `EndSession` / connection-loss events are fed as they
//! happen, and the machine answers the two questions every transport
//! (blocking loop, epoll reactor, in-memory test) must ask:
//!
//! * **Is the session complete?** — every segment of the file received,
//!   byte views retained with their arrival timestamps.
//! * **What does a lost supplier still owe?** — the undelivered segments
//!   of its queue, in transmission order, ready to hand to a selection
//!   policy's `replan` so the survivors absorb the share (the paper's
//!   departure-recovery story, PAPERS.md's P2P VoD surveys).
//!
//! The machine never performs I/O and never sleeps; pacing, timers and
//! sockets belong to the caller (`p2ps-node` drives one of these per
//! session on a `p2ps-net` reactor thread).
//!
//! # Examples
//!
//! A two-supplier session where one supplier dies mid-stream:
//!
//! ```
//! use bytes::Bytes;
//! use p2ps_proto::RequesterSession;
//!
//! let mut sm = RequesterSession::new(4);
//! let a = sm.add_supplier([0, 2]);
//! let b = sm.add_supplier([1, 3]);
//! sm.on_segment(a, 0, Bytes::from(vec![0u8; 8]), 10);
//! sm.on_segment(b, 1, Bytes::from(vec![1u8; 8]), 12);
//! let owed = sm.on_failure(b); // b vanishes owing segment 3
//! assert_eq!(owed, vec![3]);
//! sm.assign_more(a, owed); // a's replanned share
//! sm.on_segment(a, 2, Bytes::from(vec![2u8; 8]), 20);
//! sm.on_segment(a, 3, Bytes::from(vec![3u8; 8]), 30);
//! assert!(sm.is_complete());
//! ```

use std::collections::VecDeque;

use bytes::Bytes;

/// Lifecycle of one supplier lane within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneState {
    /// The supplier is (expected to be) transmitting.
    Streaming,
    /// The supplier sent `EndSession` cleanly.
    Done,
    /// The connection was lost or the supplier misbehaved.
    Failed,
}

#[derive(Debug)]
struct Lane {
    /// Segments this supplier still owes, in transmission order.
    owed: VecDeque<u64>,
    state: LaneState,
}

/// Coarse lifecycle of a whole [`RequesterSession`], derived from its
/// lane states and reassembly progress — the session-level tag an
/// observer (monitoring, a status endpoint) wants, as opposed to the
/// per-lane states the replan machinery works with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// No supplier registered yet (admission probing still running).
    Probing,
    /// At least one supplier is expected to be transmitting.
    Streaming,
    /// No supplier is transmitting and segments are still missing: the
    /// caller must replan (or the session failed).
    Reassembling,
    /// Every segment of the file has arrived.
    Complete,
}

impl SessionPhase {
    /// Stable lowercase name, matching the monitoring `state` label.
    pub fn name(self) -> &'static str {
        match self {
            SessionPhase::Probing => "probing",
            SessionPhase::Streaming => "streaming",
            SessionPhase::Reassembling => "reassembling",
            SessionPhase::Complete => "complete",
        }
    }
}

/// The requester half of one streaming session as a sans-io state
/// machine: reassembly, per-supplier owed queues, and completion.
///
/// See the module docs above for the protocol walk-through.
#[derive(Debug)]
pub struct RequesterSession {
    /// `segments[i]` holds segment `i`'s payload and arrival timestamp
    /// (caller-defined clock) once received.
    segments: Vec<Option<(Bytes, u64)>>,
    received: u64,
    lanes: Vec<Lane>,
}

impl RequesterSession {
    /// A session expecting a file of `total_segments` segments, no
    /// suppliers yet.
    pub fn new(total_segments: u64) -> Self {
        RequesterSession {
            segments: vec![None; total_segments as usize],
            received: 0,
            lanes: Vec::new(),
        }
    }

    /// Registers one supplier with its transmission queue (e.g.
    /// [`SessionPlan::expanded`](crate::SessionPlan::expanded)) and
    /// returns its lane index — the `supplier` argument of every other
    /// method.
    pub fn add_supplier<I: IntoIterator<Item = u64>>(&mut self, queue: I) -> usize {
        self.lanes.push(Lane {
            owed: queue.into_iter().collect(),
            state: LaneState::Streaming,
        });
        self.lanes.len() - 1
    }

    /// Appends replanned segments to a surviving supplier's owed queue
    /// (the caller also ships the matching explicit `SessionPlan` on the
    /// wire). No-op on a lane that already ended or failed.
    pub fn assign_more<I: IntoIterator<Item = u64>>(&mut self, supplier: usize, extra: I) {
        let lane = &mut self.lanes[supplier];
        if lane.state == LaneState::Streaming {
            lane.owed.extend(extra);
        }
    }

    /// Records one received segment from `supplier` at `at_us`, in µs
    /// since the hand-off (the instant the `StartSession` frames went
    /// out). Returns `true` when the segment was new (first arrival);
    /// duplicates and out-of-range indices are tolerated and ignored.
    pub fn on_segment(&mut self, supplier: usize, index: u64, payload: Bytes, at_us: u64) -> bool {
        // Suppliers transmit their queue in order, so the owed entry is
        // almost always the front; the scan only runs on replan overlap.
        let lane = &mut self.lanes[supplier];
        if let Some(pos) = lane.owed.iter().position(|&s| s == index) {
            lane.owed.remove(pos);
        }
        let Some(slot) = self.segments.get_mut(index as usize) else {
            return false;
        };
        if slot.is_some() {
            return false;
        }
        *slot = Some((payload, at_us));
        self.received += 1;
        true
    }

    /// The supplier ended its session cleanly. Returns any segments it
    /// still owed that nobody delivered — normally empty, but a replan
    /// raced against an `EndSession` already in flight leaves leftovers
    /// the caller must re-replan across the remaining suppliers.
    pub fn on_end(&mut self, supplier: usize) -> Vec<u64> {
        self.settle(supplier, LaneState::Done)
    }

    /// The supplier's connection was lost (close, I/O error, protocol
    /// violation, read timeout). Returns the undelivered segments of its
    /// queue, in transmission order — the `missing` input of
    /// `SelectionPolicy::replan`.
    pub fn on_failure(&mut self, supplier: usize) -> Vec<u64> {
        self.settle(supplier, LaneState::Failed)
    }

    fn settle(&mut self, supplier: usize, state: LaneState) -> Vec<u64> {
        let lane = &mut self.lanes[supplier];
        if lane.state != LaneState::Streaming {
            return Vec::new();
        }
        lane.state = state;
        lane.owed
            .drain(..)
            .filter(|&s| {
                self.segments
                    .get(s as usize)
                    .is_some_and(|slot| slot.is_none())
            })
            .collect()
    }

    /// Whether `supplier` is still expected to transmit.
    pub fn is_streaming(&self, supplier: usize) -> bool {
        self.lanes[supplier].state == LaneState::Streaming
    }

    /// Whether `supplier` still owes segments of its queue: streaming,
    /// with something left to transmit.
    pub fn owes(&self, supplier: usize) -> bool {
        let lane = &self.lanes[supplier];
        lane.state == LaneState::Streaming && !lane.owed.is_empty()
    }

    /// Lane indices still streaming — the candidate set for a replan.
    pub fn streaming_suppliers(&self) -> impl Iterator<Item = usize> + '_ {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.state == LaneState::Streaming)
            .map(|(i, _)| i)
    }

    /// Number of registered supplier lanes.
    pub fn supplier_count(&self) -> usize {
        self.lanes.len()
    }

    /// Segments received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Total segments the session expects.
    pub fn total_segments(&self) -> u64 {
        self.segments.len() as u64
    }

    /// Whether every segment of the file has arrived.
    pub fn is_complete(&self) -> bool {
        self.received == self.segments.len() as u64
    }

    /// Segments still owed across all streaming lanes — the live
    /// backlog an observer compares against wall-clock progress to spot
    /// a pacing stall (settled lanes owe nothing by definition; their
    /// leftovers were returned to the caller to replan).
    pub fn owed_total(&self) -> u64 {
        self.lanes
            .iter()
            .filter(|l| l.state == LaneState::Streaming)
            .map(|l| l.owed.len() as u64)
            .sum()
    }

    /// The session's coarse lifecycle tag. See [`SessionPhase`].
    pub fn phase(&self) -> SessionPhase {
        if self.is_complete() {
            SessionPhase::Complete
        } else if self.lanes.is_empty() {
            SessionPhase::Probing
        } else if self.lanes.iter().any(|l| l.state == LaneState::Streaming) {
            SessionPhase::Streaming
        } else {
            SessionPhase::Reassembling
        }
    }

    /// Theorem 1's start-up delay as these arrivals measure it, in µs:
    /// the smallest delay `S` after the hand-off at which play-out never
    /// stalls, `S = max_i(at_i − i·δt)` over each segment's earliest
    /// arrival `at_i` ([`startup_term_us`]), for segments of `dt_us`
    /// play-out each. `None` while a segment is missing.
    pub fn startup_us(&self, dt_us: u64) -> Option<u64> {
        self.segments
            .iter()
            .enumerate()
            .try_fold(0, |startup, (index, slot)| {
                let &(_, at_us) = slot.as_ref()?;
                Some(startup.max(startup_term_us(at_us, index as u64, dt_us)))
            })
    }

    /// Consumes the machine, yielding per-segment `(payload, at_us)`
    /// entries (`None` where nothing arrived).
    pub fn into_segments(self) -> Vec<Option<(Bytes, u64)>> {
        self.segments
    }
}

/// What segment `index`, arrived at `at_us` after the hand-off, alone
/// demands of the start-up delay: how far past its play-out offset
/// `index · dt_us` it came, 0 when it came before. The start-up delay is
/// the largest of these ([`RequesterSession::startup_us`]).
pub fn startup_term_us(at_us: u64, index: u64, dt_us: u64) -> u64 {
    at_us.saturating_sub(index * dt_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(i: u64) -> Bytes {
        Bytes::from(vec![i as u8; 16])
    }

    #[test]
    fn in_order_single_supplier_completes() {
        let mut sm = RequesterSession::new(4);
        let s = sm.add_supplier(0..4);
        for i in 0..4 {
            assert!(sm.on_segment(s, i, payload(i), i * 10));
        }
        assert!(sm.is_complete());
        assert!(sm.on_end(s).is_empty());
        let segs = sm.into_segments();
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[3].as_ref().unwrap().1, 30);
    }

    #[test]
    fn duplicates_and_out_of_range_are_ignored() {
        let mut sm = RequesterSession::new(2);
        let s = sm.add_supplier([0, 1]);
        assert!(sm.on_segment(s, 0, payload(0), 1));
        assert!(!sm.on_segment(s, 0, payload(9), 2), "duplicate");
        assert!(!sm.on_segment(s, 7, payload(7), 3), "out of range");
        assert_eq!(sm.received(), 1);
        assert_eq!(sm.startup_us(10), None, "segment 1 is missing");
        // Segment 1 arrives 5 µs ahead of its play-out offset 1·δt: it
        // demands nothing, so segment 0's 1 µs sets the start-up delay.
        assert!(sm.on_segment(s, 1, payload(1), 5));
        assert_eq!(startup_term_us(5, 1, 10), 0);
        assert_eq!(sm.startup_us(10), Some(1));
        // A later duplicate does not count: playback waits for the
        // earliest arrival.
        assert!(!sm.on_segment(s, 0, payload(0), 500));
        assert_eq!(sm.startup_us(10), Some(1));
        assert_eq!(sm.startup_us(0), Some(5), "with δt = 0 the last arrival");
        // First arrival wins: the payload was not overwritten.
        let segs = sm.into_segments();
        assert_eq!(segs[0].as_ref().unwrap().0, payload(0));
    }

    #[test]
    fn failure_returns_undelivered_share_in_order() {
        let mut sm = RequesterSession::new(6);
        let a = sm.add_supplier([0, 2, 4]);
        let _b = sm.add_supplier([1, 3, 5]);
        sm.on_segment(a, 0, payload(0), 1);
        assert_eq!(sm.on_failure(a), vec![2, 4]);
        assert!(!sm.is_streaming(a));
        assert_eq!(sm.streaming_suppliers().collect::<Vec<_>>(), vec![1]);
        // A settled lane settles once.
        assert!(sm.on_failure(a).is_empty());
        assert!(sm.on_end(a).is_empty());
    }

    #[test]
    fn end_after_replan_race_surfaces_leftovers() {
        let mut sm = RequesterSession::new(4);
        let a = sm.add_supplier([0, 1]);
        assert!(sm.owes(a));
        sm.on_segment(a, 0, payload(0), 1);
        sm.on_segment(a, 1, payload(1), 2);
        assert!(!sm.owes(a), "a drained lane owes nothing");
        // A replan lands on `a` just as its EndSession is in flight.
        sm.assign_more(a, [2, 3]);
        assert!(sm.owes(a));
        assert_eq!(sm.on_end(a), vec![2, 3], "unserved replan share returns");
        assert!(!sm.owes(a), "a settled lane owes nothing");
        // Settled lanes silently refuse further work.
        sm.assign_more(a, [2]);
        assert!(sm.on_end(a).is_empty());
    }

    #[test]
    fn segments_delivered_elsewhere_are_not_owed() {
        let mut sm = RequesterSession::new(3);
        let a = sm.add_supplier([0, 1, 2]);
        let b = sm.add_supplier([2]); // overlap: 2 assigned twice
        sm.on_segment(b, 2, payload(2), 5);
        assert_eq!(sm.on_failure(a), vec![0, 1], "2 already arrived via b");
        assert_eq!(sm.received(), 1);
    }

    #[test]
    fn phase_follows_the_session_lifecycle() {
        let mut sm = RequesterSession::new(2);
        assert_eq!(sm.phase(), SessionPhase::Probing);
        let a = sm.add_supplier([0, 1]);
        assert_eq!(sm.phase(), SessionPhase::Streaming);
        assert_eq!(sm.owed_total(), 2);
        sm.on_segment(a, 0, payload(0), 1);
        assert_eq!(sm.owed_total(), 1);
        let owed = sm.on_failure(a);
        assert_eq!(owed, vec![1]);
        assert_eq!(sm.phase(), SessionPhase::Reassembling);
        assert_eq!(sm.owed_total(), 0, "settled lanes owe nothing");
        let b = sm.add_supplier(owed);
        assert_eq!(sm.phase(), SessionPhase::Streaming);
        sm.on_segment(b, 1, payload(1), 2);
        assert_eq!(sm.phase(), SessionPhase::Complete);
        assert_eq!(sm.phase().name(), "complete");
    }

    #[test]
    fn completion_tracks_across_replans() {
        let mut sm = RequesterSession::new(4);
        let a = sm.add_supplier([0, 1]);
        let b = sm.add_supplier([2, 3]);
        sm.on_segment(a, 0, payload(0), 1);
        sm.on_segment(b, 2, payload(2), 1);
        let owed = sm.on_failure(b);
        assert_eq!(owed, vec![3]);
        sm.assign_more(a, owed);
        sm.on_segment(a, 1, payload(1), 2);
        assert!(!sm.is_complete());
        sm.on_segment(a, 3, payload(3), 3);
        assert!(sm.is_complete());
    }
}
