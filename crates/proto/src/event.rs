//! The flight-recorder event catalog: every structured protocol event a
//! session can witness, with a stable wire-free encoding.
//!
//! The recorder itself (`p2ps-monitor`) stores raw `(at_ms, code, a, b)`
//! tuples so it needs no protocol knowledge; this module is the shared
//! vocabulary both ends speak. Every `lane` is the candidate's position
//! in the requester's §4.2 round, in every phase. Producers
//! (`p2ps-node`'s requester machine, its per-lane progress deadlines
//! included, which the reactor and `p2ps-simnet`'s deterministic world
//! both host) call
//! [`SessionEvent::code`]/[`SessionEvent::fields`] when recording;
//! consumers (`p2psd status --trace`, tests) call
//! [`SessionEvent::decode`] to turn a dumped ring back into a readable
//! timeline.
//!
//! Codes are part of the observable surface (they appear in trace dumps
//! and in simnet's deterministic trace hash): never renumber an existing
//! variant, only append.

use std::fmt;

/// One structured protocol event on a session's timeline.
///
/// The `(code, a, b)` encoding is lossless: `decode(code(), fields())`
/// round-trips every variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionEvent {
    /// `StreamRequest` left on an admission lane.
    AdmissionRequest {
        /// Candidate lane index within the round.
        lane: u64,
    },
    /// A `Grant` arrived on an admission lane.
    AdmissionGrant {
        /// Candidate lane index within the round.
        lane: u64,
    },
    /// A `Deny` arrived on an admission lane.
    AdmissionDeny {
        /// Candidate lane index within the round.
        lane: u64,
    },
    /// A `Reminder` left for a denying candidate (paper §4.2).
    AdmissionReminder {
        /// Candidate lane index within the round.
        lane: u64,
    },
    /// The round admitted and a lane's `StartSession` plan shipped.
    PlanSent {
        /// Candidate lane index within the round.
        lane: u64,
        /// Number of segments in the lane's share.
        segments: u64,
    },
    /// A media segment arrived and was accepted into reassembly.
    SegmentArrived {
        /// Candidate lane index that delivered it.
        lane: u64,
        /// Segment index within the media item.
        index: u64,
    },
    /// A surviving lane received a replanned share (`StartSession`
    /// append) after another lane failed.
    Replanned {
        /// Surviving candidate lane index.
        lane: u64,
        /// Number of segments in the reassigned share.
        segments: u64,
    },
    /// A streaming lane missed its progress deadline: no new segment
    /// within the plan's stride plus the grace.
    StallFlagged {
        /// Milliseconds since the lane's last progress.
        lag_ms: u64,
    },
    /// Stall recovery is cutting the late lane to force a replan.
    RecoveryStarted {
        /// The candidate lane being cut.
        lane: u64,
        /// 1-based count of the session's stalled lanes so far.
        attempt: u64,
    },
    /// A recovery attempt shipped a replan; the session is streaming
    /// again (pending fresh data).
    Recovered {
        /// The attempt number that produced the replan.
        attempt: u64,
    },
    /// The session failed structurally with `SuppliersLost`: no
    /// surviving supplier could take a lost supplier's share.
    GaveUp {
        /// Segments still missing at give-up.
        missing: u64,
    },
    /// The session reassembled every segment.
    Completed {
        /// Total segments received.
        received: u64,
    },
}

impl SessionEvent {
    /// The stable one-byte discriminant used in recorded tuples.
    pub fn code(&self) -> u8 {
        match self {
            SessionEvent::AdmissionRequest { .. } => 1,
            SessionEvent::AdmissionGrant { .. } => 2,
            SessionEvent::AdmissionDeny { .. } => 3,
            SessionEvent::AdmissionReminder { .. } => 4,
            SessionEvent::PlanSent { .. } => 5,
            SessionEvent::SegmentArrived { .. } => 6,
            SessionEvent::Replanned { .. } => 7,
            SessionEvent::StallFlagged { .. } => 8,
            SessionEvent::RecoveryStarted { .. } => 9,
            SessionEvent::Recovered { .. } => 10,
            SessionEvent::GaveUp { .. } => 11,
            SessionEvent::Completed { .. } => 12,
        }
    }

    /// The `(a, b)` payload words for the recorded tuple; unused words
    /// are zero.
    pub fn fields(&self) -> (u64, u64) {
        match *self {
            SessionEvent::AdmissionRequest { lane }
            | SessionEvent::AdmissionGrant { lane }
            | SessionEvent::AdmissionDeny { lane }
            | SessionEvent::AdmissionReminder { lane } => (lane, 0),
            SessionEvent::PlanSent { lane, segments } => (lane, segments),
            SessionEvent::SegmentArrived { lane, index } => (lane, index),
            SessionEvent::Replanned { lane, segments } => (lane, segments),
            SessionEvent::StallFlagged { lag_ms } => (lag_ms, 0),
            SessionEvent::RecoveryStarted { lane, attempt } => (lane, attempt),
            SessionEvent::Recovered { attempt } => (attempt, 0),
            SessionEvent::GaveUp { missing } => (missing, 0),
            SessionEvent::Completed { received } => (received, 0),
        }
    }

    /// Rebuilds the event from a recorded `(code, a, b)` tuple; `None`
    /// for codes this build does not know (a newer producer's ring read
    /// by an older consumer).
    pub fn decode(code: u8, a: u64, b: u64) -> Option<SessionEvent> {
        Some(match code {
            1 => SessionEvent::AdmissionRequest { lane: a },
            2 => SessionEvent::AdmissionGrant { lane: a },
            3 => SessionEvent::AdmissionDeny { lane: a },
            4 => SessionEvent::AdmissionReminder { lane: a },
            5 => SessionEvent::PlanSent {
                lane: a,
                segments: b,
            },
            6 => SessionEvent::SegmentArrived { lane: a, index: b },
            7 => SessionEvent::Replanned {
                lane: a,
                segments: b,
            },
            8 => SessionEvent::StallFlagged { lag_ms: a },
            9 => SessionEvent::RecoveryStarted {
                lane: a,
                attempt: b,
            },
            10 => SessionEvent::Recovered { attempt: a },
            11 => SessionEvent::GaveUp { missing: a },
            12 => SessionEvent::Completed { received: a },
            _ => return None,
        })
    }
}

impl fmt::Display for SessionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SessionEvent::AdmissionRequest { lane } => write!(f, "admission-request lane={lane}"),
            SessionEvent::AdmissionGrant { lane } => write!(f, "admission-grant lane={lane}"),
            SessionEvent::AdmissionDeny { lane } => write!(f, "admission-deny lane={lane}"),
            SessionEvent::AdmissionReminder { lane } => write!(f, "admission-reminder lane={lane}"),
            SessionEvent::PlanSent { lane, segments } => {
                write!(f, "plan-sent lane={lane} segments={segments}")
            }
            SessionEvent::SegmentArrived { lane, index } => {
                write!(f, "segment lane={lane} index={index}")
            }
            SessionEvent::Replanned { lane, segments } => {
                write!(f, "replanned lane={lane} segments={segments}")
            }
            SessionEvent::StallFlagged { lag_ms } => write!(f, "stall-flagged lag_ms={lag_ms}"),
            SessionEvent::RecoveryStarted { lane, attempt } => {
                write!(f, "recovery-started lane={lane} attempt={attempt}")
            }
            SessionEvent::Recovered { attempt } => write!(f, "recovered attempt={attempt}"),
            SessionEvent::GaveUp { missing } => write!(f, "gave-up missing={missing}"),
            SessionEvent::Completed { received } => write!(f, "completed received={received}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[SessionEvent] = &[
        SessionEvent::AdmissionRequest { lane: 3 },
        SessionEvent::AdmissionGrant { lane: 2 },
        SessionEvent::AdmissionDeny { lane: 1 },
        SessionEvent::AdmissionReminder { lane: 0 },
        SessionEvent::PlanSent {
            lane: 1,
            segments: 8,
        },
        SessionEvent::SegmentArrived { lane: 0, index: 7 },
        SessionEvent::Replanned {
            lane: 1,
            segments: 4,
        },
        SessionEvent::StallFlagged { lag_ms: 1_234 },
        SessionEvent::RecoveryStarted {
            lane: 0,
            attempt: 1,
        },
        SessionEvent::Recovered { attempt: 1 },
        SessionEvent::GaveUp { missing: 5 },
        SessionEvent::Completed { received: 16 },
    ];

    #[test]
    fn codes_are_unique_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for ev in ALL {
            assert!(seen.insert(ev.code()), "duplicate code {}", ev.code());
            let (a, b) = ev.fields();
            assert_eq!(SessionEvent::decode(ev.code(), a, b), Some(*ev));
        }
    }

    #[test]
    fn unknown_codes_decode_to_none() {
        assert_eq!(SessionEvent::decode(0, 0, 0), None);
        assert_eq!(SessionEvent::decode(200, 1, 2), None);
    }

    #[test]
    fn display_is_grep_friendly() {
        let ev = SessionEvent::RecoveryStarted {
            lane: 2,
            attempt: 3,
        };
        assert_eq!(ev.to_string(), "recovery-started lane=2 attempt=3");
    }
}
