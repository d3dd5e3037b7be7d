//! What one simulated run reports back to the sweep.

use p2ps_monitor::RawEvent;

use crate::ScenarioKind;

/// How a simulated session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimOutcome {
    /// Every segment arrived; `byte_exact` records whether the
    /// reassembled payloads matched the source file bit for bit.
    Completed {
        /// Reassembly matched `MediaFile::synthesize` exactly.
        byte_exact: bool,
    },
    /// Supplier losses exhausted the survivor set (the node's structured
    /// `SuppliersLost` failure).
    SuppliersLost {
        /// Segments still missing when recovery became impossible.
        missing: u64,
    },
    /// Every lane settled cleanly but segments were never assigned or
    /// delivered (the node's `IncompleteStream` failure).
    Incomplete {
        /// Segments received.
        received: u64,
        /// Segments expected.
        expected: u64,
    },
    /// The driver reported a protocol-level failure (should not happen
    /// with the built-in policies; surfaced so the sweep can flag it).
    ProtocolError(String),
    /// The event queue drained with the session unsettled — a harness
    /// bug by construction, never a legitimate outcome.
    Stalled {
        /// Segments received.
        received: u64,
        /// Segments expected.
        expected: u64,
    },
    /// The §4.2 admission round came up short of `R0`: the requester
    /// released its grants, left its reminders, and never streamed —
    /// the node's structured `Rejected` error.
    Rejected {
        /// Reminders the requester left with busy-but-favored suppliers.
        reminders: u64,
    },
}

impl SimOutcome {
    /// Whether this outcome is acceptable for a sweep run: byte-exact
    /// completion, or a *structured* failure (`SuppliersLost` /
    /// `Incomplete` / `Rejected`) — never a stall, protocol error or
    /// corrupt reassembly.
    pub fn is_acceptable(&self) -> bool {
        matches!(
            self,
            SimOutcome::Completed { byte_exact: true }
                | SimOutcome::SuppliersLost { .. }
                | SimOutcome::Incomplete { .. }
                | SimOutcome::Rejected { .. }
        )
    }

    /// Stable tag folded into the trace digest.
    pub(crate) fn tag(&self) -> u64 {
        match self {
            SimOutcome::Completed { byte_exact: true } => 1,
            SimOutcome::Completed { byte_exact: false } => 2,
            SimOutcome::SuppliersLost { .. } => 3,
            SimOutcome::Incomplete { .. } => 4,
            SimOutcome::ProtocolError(_) => 5,
            SimOutcome::Stalled { .. } => 6,
            SimOutcome::Rejected { .. } => 7,
        }
    }
}

/// Everything one run reports: outcome, determinism digest and the
/// counters a sweep aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// The run's seed.
    pub seed: u64,
    /// The run's adversity profile.
    pub scenario: ScenarioKind,
    /// How the session ended.
    pub outcome: SimOutcome,
    /// Word-fold digest ([`TraceHasher`](crate::TraceHasher)) of the full
    /// event trace — identical across runs of the same `(seed, scenario)`.
    pub trace_hash: u64,
    /// Events processed.
    pub events: u64,
    /// `SegmentData` messages decoded by the requester.
    pub segments_delivered: u64,
    /// Raw bytes pushed across links (both directions).
    pub bytes_on_wire: u64,
    /// Replanned `(lane, plan)` shares shipped after supplier losses.
    pub replans: u64,
    /// Suppliers that died mid-run.
    pub deaths: u64,
    /// `Grant` frames the suppliers sent during admission.
    pub grants: u64,
    /// `Deny` frames the suppliers sent during admission.
    pub denials: u64,
    /// `Reminder` frames that reached a supplier after a rejection.
    pub reminders: u64,
    /// The session's flight-recorder timeline, virtual-clock stamped —
    /// the same [`SessionEvent`](p2ps_proto::SessionEvent) stream the
    /// live requester records, compared whole by the sweep's run-twice
    /// determinism check (and folded event-by-event into
    /// [`trace_hash`](Self::trace_hash)).
    pub recorder: Vec<RawEvent>,
}

impl SimReport {
    /// One-line command reproducing this run, for failure messages.
    pub fn repro_hint(&self) -> String {
        repro_hint(self.seed, self.scenario)
    }
}

/// One-line repro command for a `(seed, scenario)` pair: re-running the
/// sweep with `SIMNET_SEED` pinned replays exactly this schedule.
pub fn repro_hint(seed: u64, scenario: ScenarioKind) -> String {
    format!(
        "repro: SIMNET_SEED={seed} cargo test -p p2ps-simnet --test seed_sweep (scenario: {})",
        scenario.name()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptability_splits_structured_from_broken() {
        assert!(SimOutcome::Completed { byte_exact: true }.is_acceptable());
        assert!(SimOutcome::SuppliersLost { missing: 3 }.is_acceptable());
        assert!(SimOutcome::Incomplete {
            received: 1,
            expected: 2
        }
        .is_acceptable());
        assert!(SimOutcome::Rejected { reminders: 1 }.is_acceptable());
        assert!(!SimOutcome::Completed { byte_exact: false }.is_acceptable());
        assert!(!SimOutcome::ProtocolError("x".into()).is_acceptable());
        assert!(!SimOutcome::Stalled {
            received: 0,
            expected: 1
        }
        .is_acceptable());
    }

    #[test]
    fn repro_hint_names_the_seed_and_scenario() {
        let hint = repro_hint(42, ScenarioKind::Churn);
        assert!(hint.contains("SIMNET_SEED=42"));
        assert!(hint.contains("churn"));
    }
}
