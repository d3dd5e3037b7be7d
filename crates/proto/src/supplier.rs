//! Sans-io supplier schedule: the transmitting half of one session.
//!
//! [`SupplierSchedule`] is the supplier-side counterpart of
//! [`RequesterSession`](crate::RequesterSession): it owns *what to send
//! next and when it is due* — the base [`SessionPlan`]'s periodic
//! expansion, any explicit replan shares the requester appended
//! mid-stream, and the §3 pacing stride — while the caller owns the
//! transport and the clock. The epoll-reactor serving path (`p2ps-node`)
//! and the deterministic simulation harness (`p2ps-simnet`) drive the
//! same machine, so every schedule decision tested under simulated
//! adversity is the decision the live node makes.
//!
//! # Examples
//!
//! A two-segment-per-period plan paced over an 8-segment file:
//!
//! ```
//! use p2ps_proto::{SessionPlan, SupplierSchedule};
//!
//! let plan = SessionPlan {
//!     item: "demo".into(),
//!     segments: vec![0, 1],
//!     period: 4,
//!     total_segments: 8,
//!     dt_ms: 10,
//! };
//! let mut sched = SupplierSchedule::new(plan, 2)?;
//! assert_eq!(sched.stride_slots(), 2); // period 4 tiled by 2 segments
//! assert_eq!(sched.next_deadline_ms(100), 100 + 2 * 10);
//! assert_eq!(sched.next_unsent(8), Some(0));
//! sched.consume();
//! assert_eq!(sched.next_unsent(8), Some(1));
//! # Ok::<(), p2ps_proto::ScheduleError>(())
//! ```

use std::collections::VecDeque;
use std::fmt;

use crate::SessionPlan;

/// Why a [`SessionPlan`] cannot be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The plan has no segments or a zero period.
    EmptyPlan,
    /// A periodic plan whose per-period list does not tile its period:
    /// the §3 stride `period / len` would drift off the deadline grid.
    NonTilingPeriod,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::EmptyPlan => write!(f, "malformed session plan"),
            ScheduleError::NonTilingPeriod => {
                write!(f, "periodic session plan does not tile its period")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The supplier half of one streaming session as a sans-io state
/// machine: what to transmit next, what it owes after a mid-stream
/// append, and when the next transmission is due.
///
/// The machine never performs I/O and never reads a clock; the caller
/// asks [`next_deadline_ms`](Self::next_deadline_ms) against its own
/// time base (reactor wheel, virtual clock) and marks transmissions with
/// [`consume`](Self::consume). See the module docs for the walk-through.
#[derive(Debug)]
pub struct SupplierSchedule {
    plan: SessionPlan,
    /// Slots of `δt` between consecutive transmissions (the §3 stride).
    spp: u64,
    /// Next transmission ordinal `p` (0-based, §3 numbering) — drives the
    /// pacing deadline across base and appended segments alike.
    p: u64,
    /// Next index into the base plan's periodic expansion.
    base_p: u64,
    /// The base plan reached its first out-of-range segment.
    base_done: bool,
    /// Mid-stream replan shares (explicit plans the requester appended
    /// after losing another supplier), served after the base plan at the
    /// same pacing stride.
    appended: VecDeque<u32>,
}

impl SupplierSchedule {
    /// Validates `plan` and derives the pacing stride.
    ///
    /// A periodic (§3) plan tiles its period exactly, so the stride is
    /// the per-period share `period / len`. An explicit one-shot plan
    /// (period spans the whole file, arbitrary list length — the
    /// non-periodic selection policies) paces at the supplier's own
    /// class rate `class_spp` instead; for rate-matched periodic plans
    /// the two formulas agree.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::EmptyPlan`] for an empty segment list or zero
    /// period; [`ScheduleError::NonTilingPeriod`] when a periodic plan's
    /// list length does not divide its period.
    pub fn new(plan: SessionPlan, class_spp: u64) -> Result<Self, ScheduleError> {
        let per_period = plan.segments.len() as u64;
        if per_period == 0 || plan.period == 0 {
            return Err(ScheduleError::EmptyPlan);
        }
        let spp = if plan.is_explicit() {
            class_spp.max(1)
        } else if (u64::from(plan.period)).is_multiple_of(per_period) {
            u64::from(plan.period) / per_period
        } else {
            return Err(ScheduleError::NonTilingPeriod);
        };
        Ok(SupplierSchedule {
            plan,
            spp,
            p: 0,
            base_p: 0,
            base_done: false,
            appended: VecDeque::new(),
        })
    }

    /// The wire plan this schedule was built from.
    pub fn plan(&self) -> &SessionPlan {
        &self.plan
    }

    /// Pacing stride in slots of `δt`.
    pub fn stride_slots(&self) -> u64 {
        self.spp
    }

    /// Transmissions consumed so far (the §3 ordinal of the next send).
    pub fn transmitted(&self) -> u64 {
        self.p
    }

    /// The §3 deadline of the next transmission: `(p+1) · spp · δt` past
    /// `start_ms` on the caller's clock.
    pub fn next_deadline_ms(&self, start_ms: u64) -> u64 {
        start_ms + (self.p + 1) * self.spp * u64::from(self.plan.dt_ms)
    }

    /// The next segment due for transmission, skipping out-of-range
    /// entries, or `None` when the whole schedule (base + appended) is
    /// exhausted. `cap` bounds what the caller can actually serve (a
    /// local file copy shorter than the plan's extent). Does not
    /// consume; pair with [`consume`](Self::consume) after the send.
    pub fn next_unsent(&mut self, cap: u64) -> Option<u64> {
        loop {
            if !self.base_done {
                match self.plan.nth_segment(self.base_p) {
                    Some(seg) if seg < cap => return Some(seg),
                    _ => self.base_done = true,
                }
            } else {
                match self.appended.front() {
                    Some(&seg) if u64::from(seg) < self.plan.total_segments.min(cap) => {
                        return Some(u64::from(seg))
                    }
                    Some(_) => {
                        self.appended.pop_front();
                    }
                    None => return None,
                }
            }
        }
    }

    /// Marks the segment returned by [`next_unsent`](Self::next_unsent)
    /// as transmitted.
    pub fn consume(&mut self) {
        if self.base_done {
            self.appended.pop_front();
        } else {
            self.base_p += 1;
        }
        self.p += 1;
    }

    /// Appends an explicit replan share (the wire-level replan extension:
    /// the requester lost another supplier and this one absorbs part of
    /// the owed segments). Served after the base plan at the same pacing
    /// stride. Indices past the plan's `total_segments` could never be
    /// sent and are dropped here, so the queue only ever holds real work.
    pub fn append<I: IntoIterator<Item = u32>>(&mut self, extra: I) {
        let total = self.plan.total_segments;
        self.appended
            .extend(extra.into_iter().filter(|&seg| u64::from(seg) < total));
    }

    /// Appended segments not yet transmitted.
    pub fn pending_appended(&self) -> usize {
        self.appended.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(segments: Vec<u32>, period: u32, total: u64) -> SessionPlan {
        SessionPlan {
            item: "t".into(),
            segments,
            period,
            total_segments: total,
            dt_ms: 10,
        }
    }

    #[test]
    fn periodic_plan_paces_at_the_tiled_stride() {
        let mut s = SupplierSchedule::new(plan(vec![0, 1], 4, 10), 7).unwrap();
        assert_eq!(s.stride_slots(), 2, "period 4 over 2 segments");
        assert_eq!(s.next_deadline_ms(1_000), 1_020);
        let mut sent = Vec::new();
        while let Some(seg) = s.next_unsent(10) {
            sent.push(seg);
            s.consume();
        }
        assert_eq!(sent, vec![0, 1, 4, 5, 8, 9]);
        assert_eq!(s.transmitted(), 6);
        assert_eq!(s.next_deadline_ms(0), 7 * 2 * 10);
    }

    #[test]
    fn explicit_plan_paces_at_the_class_rate() {
        let mut s = SupplierSchedule::new(plan(vec![3, 1, 4], 6, 6), 4).unwrap();
        assert_eq!(s.stride_slots(), 4, "explicit plans pace per class");
        let mut sent = Vec::new();
        while let Some(seg) = s.next_unsent(6) {
            sent.push(seg);
            s.consume();
        }
        assert_eq!(
            sent,
            vec![3, 1, 4],
            "explicit lists transmit once, verbatim"
        );
    }

    #[test]
    fn appended_shares_serve_after_the_base_plan() {
        let mut s = SupplierSchedule::new(plan(vec![0], 2, 4), 1).unwrap();
        s.append([3, 9]); // 9 is out of range and must be dropped, not queued
        assert_eq!(s.pending_appended(), 1);
        let mut sent = Vec::new();
        while let Some(seg) = s.next_unsent(4) {
            sent.push(seg);
            s.consume();
        }
        assert_eq!(sent, vec![0, 2, 3]);
    }

    #[test]
    fn cap_bounds_what_a_short_copy_can_serve() {
        let mut s = SupplierSchedule::new(plan(vec![0, 1], 2, 8), 1).unwrap();
        let mut sent = Vec::new();
        while let Some(seg) = s.next_unsent(3) {
            sent.push(seg);
            s.consume();
        }
        assert_eq!(sent, vec![0, 1, 2], "segment 3 is past the local copy");
    }

    #[test]
    fn malformed_plans_are_rejected() {
        assert_eq!(
            SupplierSchedule::new(plan(vec![], 4, 8), 1).unwrap_err(),
            ScheduleError::EmptyPlan
        );
        assert_eq!(
            SupplierSchedule::new(plan(vec![0], 0, 8), 1).unwrap_err(),
            ScheduleError::EmptyPlan
        );
        assert_eq!(
            SupplierSchedule::new(plan(vec![0, 1, 2], 4, 8), 1).unwrap_err(),
            ScheduleError::NonTilingPeriod
        );
        assert!(!ScheduleError::NonTilingPeriod.to_string().is_empty());
        assert!(!ScheduleError::EmptyPlan.to_string().is_empty());
    }

    #[test]
    fn zero_class_rate_is_floored_for_explicit_plans() {
        let s = SupplierSchedule::new(plan(vec![0], 4, 4), 0).unwrap();
        assert_eq!(s.stride_slots(), 1);
    }
}
