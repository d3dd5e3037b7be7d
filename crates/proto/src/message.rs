//! Protocol message types.

use bytes::Bytes;

use p2ps_core::{PeerClass, PeerId};

/// One candidate in a directory response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CandidateRecord {
    /// The candidate's identity.
    pub id: PeerId,
    /// The candidate's advertised class.
    pub class: PeerClass,
    /// The candidate's listening port on the loopback interface (the node
    /// runtime is single-host; a production deployment would carry a full
    /// socket address here).
    pub port: u16,
}

/// The session parameters a requester sends each participating supplier.
///
/// `segments` are the supplier's per-period segment numbers computed by
/// `OTSp2p`; the supplier streams segment `s + j·period` for every period
/// `j` while `s + j·period < total_segments`, pacing one segment per
/// `2^(class-1) · δt`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionPlan {
    /// Media item to stream.
    pub item: String,
    /// Per-period segment numbers assigned to this supplier, ascending.
    pub segments: Vec<u32>,
    /// The assignment period `2^(ℓ-1)`.
    pub period: u32,
    /// Total number of segments in the media file.
    pub total_segments: u64,
    /// Segment playback time `δt` in milliseconds.
    pub dt_ms: u32,
}

impl SessionPlan {
    /// Whether this is an *explicit* (one-shot) plan: its period spans the
    /// whole file, so [`expanded`](Self::expanded) yields `segments` once,
    /// verbatim. Periodic §3 plans repeat per period instead. The supplier
    /// paces explicit plans at its own class rate.
    pub fn is_explicit(&self) -> bool {
        u64::from(self.period) == self.total_segments.max(1)
    }

    /// The segment transmission ordinal `p` carries under this plan —
    /// `(p / len) · period + segments[p % len]` — or `None` once the
    /// session is over (the first out-of-range segment ends it). This is
    /// **the** wire expansion rule: the supplier's pacing loop, the
    /// requester's owed-queue bookkeeping and `p2ps-policy`'s
    /// `PolicyPlan::queues` must all agree with it.
    pub fn nth_segment(&self, p: u64) -> Option<u64> {
        let len = self.segments.len() as u64;
        if len == 0 {
            return None; // empty plan: ends immediately
        }
        let seg = (p / len) * u64::from(self.period) + u64::from(self.segments[(p % len) as usize]);
        (seg < self.total_segments).then_some(seg)
    }

    /// The plan's whole transmission queue:
    /// [`nth_segment`](Self::nth_segment) for `p = 0, 1, …` until the
    /// session ends. The requester's session state machine uses this to
    /// know what every supplier still owes.
    pub fn expanded(&self) -> impl Iterator<Item = u64> + '_ {
        (0u64..).map_while(move |p| self.nth_segment(p))
    }

    /// The plan's pacing stride in slots of `δt`, floored at one: an
    /// explicit plan paces at the supplier's own class rate (`class_spp`,
    /// its `2^(k-1)` slots per segment), a periodic §3 plan at its
    /// per-period share `period / len`. This is the requester's *healthy
    /// bound* on the gap between consecutive segments (what a streaming
    /// lane's progress deadline adds its grace to); the supplier side additionally requires
    /// periodic plans to tile exactly
    /// ([`SupplierSchedule::new`](crate::SupplierSchedule::new)).
    pub fn stride_slots(&self, class_spp: u64) -> u64 {
        let spp = if self.is_explicit() {
            class_spp
        } else {
            u64::from(self.period)
                .checked_div(self.segments.len() as u64)
                .unwrap_or(u64::from(self.period))
        };
        spp.max(1)
    }
}

/// Every message exchanged between peers and the directory server.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Message {
    // ---- lookup plane -------------------------------------------------
    /// Announce this peer as a supplier of `item`.
    Register {
        /// Media item being supplied.
        item: String,
        /// The supplier's identity.
        peer: PeerId,
        /// The supplier's bandwidth class.
        class: PeerClass,
        /// The supplier's listening port.
        port: u16,
    },
    /// Ask the directory for up to `m` random candidates for `item`.
    QueryCandidates {
        /// Media item requested.
        item: String,
        /// Maximum number of candidates (the paper's `M`).
        m: u16,
    },
    /// Directory response to [`Message::QueryCandidates`].
    Candidates {
        /// The sampled candidate suppliers.
        list: Vec<CandidateRecord>,
    },

    // ---- admission plane ----------------------------------------------
    /// A class-`class` requesting peer asks to be served (paper §4.2).
    StreamRequest {
        /// Requester-chosen session identifier.
        session: u64,
        /// The requester's pledged class.
        class: PeerClass,
    },
    /// The supplier grants its out-bound bandwidth (passed the
    /// probabilistic admission test and is idle).
    Grant {
        /// Echoed session identifier.
        session: u64,
        /// The supplier's class (determines its bandwidth offer).
        class: PeerClass,
    },
    /// The supplier declines.
    Deny {
        /// Echoed session identifier.
        session: u64,
        /// Whether the supplier was busy (vs. failed the probability test).
        busy: bool,
        /// Whether the requester's class is currently favored — the
        /// precondition for leaving a reminder.
        favored: bool,
    },
    /// The requester releases an unused grant (attempt failed overall).
    Release {
        /// Echoed session identifier.
        session: u64,
    },
    /// The requester leaves a reminder with a busy, favoring supplier.
    Reminder {
        /// Echoed session identifier.
        session: u64,
        /// The reminding requester's class.
        class: PeerClass,
    },

    // ---- streaming plane ----------------------------------------------
    /// The requester confirms admission and starts the session with this
    /// supplier's share of the `OTSp2p` assignment.
    StartSession {
        /// Echoed session identifier.
        session: u64,
        /// The supplier's streaming plan.
        plan: SessionPlan,
    },
    /// One media segment.
    SegmentData {
        /// Echoed session identifier.
        session: u64,
        /// Global segment index.
        index: u64,
        /// Segment payload.
        payload: Bytes,
    },
    /// The sender is done with the session (all segments delivered, or the
    /// requester aborts).
    EndSession {
        /// Echoed session identifier.
        session: u64,
    },
}

impl Message {
    /// The frame tag byte identifying this message on the wire.
    pub fn tag(&self) -> u8 {
        match self {
            Message::Register { .. } => 0x01,
            Message::QueryCandidates { .. } => 0x02,
            Message::Candidates { .. } => 0x03,
            Message::StreamRequest { .. } => 0x10,
            Message::Grant { .. } => 0x11,
            Message::Deny { .. } => 0x12,
            Message::Release { .. } => 0x13,
            Message::Reminder { .. } => 0x14,
            Message::StartSession { .. } => 0x20,
            Message::SegmentData { .. } => 0x21,
            Message::EndSession { .. } => 0x22,
        }
    }

    /// Short human-readable name for logs.
    pub fn name(&self) -> &'static str {
        match self {
            Message::Register { .. } => "register",
            Message::QueryCandidates { .. } => "query-candidates",
            Message::Candidates { .. } => "candidates",
            Message::StreamRequest { .. } => "stream-request",
            Message::Grant { .. } => "grant",
            Message::Deny { .. } => "deny",
            Message::Release { .. } => "release",
            Message::Reminder { .. } => "reminder",
            Message::StartSession { .. } => "start-session",
            Message::SegmentData { .. } => "segment-data",
            Message::EndSession { .. } => "end-session",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique() {
        let msgs = [
            Message::Register {
                item: String::new(),
                peer: PeerId::new(0),
                class: PeerClass::HIGHEST,
                port: 0,
            },
            Message::QueryCandidates {
                item: String::new(),
                m: 0,
            },
            Message::Candidates { list: vec![] },
            Message::StreamRequest {
                session: 0,
                class: PeerClass::HIGHEST,
            },
            Message::Grant {
                session: 0,
                class: PeerClass::HIGHEST,
            },
            Message::Deny {
                session: 0,
                busy: false,
                favored: false,
            },
            Message::Release { session: 0 },
            Message::Reminder {
                session: 0,
                class: PeerClass::HIGHEST,
            },
            Message::StartSession {
                session: 0,
                plan: SessionPlan {
                    item: String::new(),
                    segments: vec![],
                    period: 1,
                    total_segments: 1,
                    dt_ms: 1,
                },
            },
            Message::SegmentData {
                session: 0,
                index: 0,
                payload: Bytes::new(),
            },
            Message::EndSession { session: 0 },
        ];
        let mut tags: Vec<u8> = msgs.iter().map(Message::tag).collect();
        let names: Vec<&str> = msgs.iter().map(Message::name).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), msgs.len(), "duplicate message tags");
        assert!(names.iter().all(|n| !n.is_empty()));
    }
}
