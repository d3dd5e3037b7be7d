//! Supplier-side `DACp2p` state machine (paper §4.1).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{PeerClass, Result};

use super::{AdmissionVector, Protocol};

/// Static protocol parameters of a supplying peer.
///
/// # Examples
///
/// ```
/// use p2ps_core::admission::{Protocol, SupplierConfig};
///
/// // The paper's defaults: 4 classes, T_out = 20 min (in seconds here).
/// let cfg = SupplierConfig::new(4, 20 * 60, Protocol::Dac)?;
/// assert_eq!(cfg.num_classes(), 4);
/// # Ok::<(), p2ps_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupplierConfig {
    num_classes: u8,
    idle_timeout: u64,
    protocol: Protocol,
    reminders_enabled: bool,
    session_relax_enabled: bool,
}

impl SupplierConfig {
    /// Creates a configuration.
    ///
    /// `idle_timeout` is the paper's `T_out` in the caller's tick unit
    /// (the simulator uses seconds); `0` disables idle relaxation.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidClassCount`] for an invalid class
    /// count.
    pub fn new(num_classes: u8, idle_timeout: u64, protocol: Protocol) -> Result<Self> {
        // Validate eagerly so a bad count fails here, not at first use.
        let _ = AdmissionVector::all_ones(num_classes)?;
        Ok(SupplierConfig {
            num_classes,
            idle_timeout,
            protocol,
            reminders_enabled: true,
            session_relax_enabled: true,
        })
    }

    /// Ablation switch: disables the *reminder* mechanism (paper §4.1(c)
    /// tightening). Reminders are still accepted but ignored at session
    /// end. Enabled by default.
    pub fn reminders(mut self, enabled: bool) -> Self {
        self.reminders_enabled = enabled;
        self
    }

    /// Ablation switch: disables the end-of-session relaxation step
    /// (paper §4.1(c) first case). Idle-timeout relaxation is controlled
    /// separately via `idle_timeout = 0`. Enabled by default.
    pub fn session_relax(mut self, enabled: bool) -> Self {
        self.session_relax_enabled = enabled;
        self
    }

    /// Number of peer classes in the system.
    pub fn num_classes(&self) -> u8 {
        self.num_classes
    }

    /// The idle relaxation timeout `T_out` (0 = disabled).
    pub fn idle_timeout(&self) -> u64 {
        self.idle_timeout
    }

    /// The admission protocol in force.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Whether the reminder mechanism is active (ablation switch).
    pub fn reminders_enabled(&self) -> bool {
        self.reminders_enabled
    }

    /// Whether end-of-session relaxation is active (ablation switch).
    pub fn session_relax_enabled(&self) -> bool {
        self.session_relax_enabled
    }
}

/// Outcome of a streaming request arriving at a supplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestDecision {
    /// The supplier is idle, passed the probabilistic admission test and
    /// grants its out-bound bandwidth to the requester.
    Granted,
    /// The supplier is idle but the probabilistic admission test failed.
    Refused,
    /// The supplier is busy in another streaming session. `favored` tells
    /// the requester whether this supplier currently favors its class —
    /// the precondition for leaving a reminder (paper §4.2).
    Busy {
        /// Whether the requester's class is currently favored.
        favored: bool,
    },
}

impl RequestDecision {
    /// Whether the request was granted.
    pub fn is_granted(self) -> bool {
        matches!(self, RequestDecision::Granted)
    }
}

/// The admission-control state of one supplying peer.
///
/// Drives the paper's §4.1 rules: initialization, idle relaxation after
/// every `T_out`, and the end-of-session update (tighten around the highest
/// reminding class, or relax when no favored-class request was seen).
/// Idle relaxation is applied *lazily*: instead of waking on a timer, the
/// state folds in all pending relaxation steps whenever it is touched,
/// which is observationally equivalent (verified in tests) and keeps the
/// simulator's event queue small.
///
/// # Examples
///
/// ```
/// use p2ps_core::admission::{Protocol, RequestDecision, SupplierConfig, SupplierState};
/// use p2ps_core::PeerClass;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let cfg = SupplierConfig::new(4, 1_200, Protocol::Dac)?;
/// let mut rng = SmallRng::seed_from_u64(7);
/// let mut s = SupplierState::new(PeerClass::new(1)?, cfg, 0)?;
/// // A class-1 supplier always grants class-1 requests when idle.
/// let d = s.handle_request(0, PeerClass::new(1)?, &mut rng);
/// assert_eq!(d, RequestDecision::Granted);
/// # Ok::<(), p2ps_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupplierState {
    class: PeerClass,
    config: SupplierConfig,
    vector: AdmissionVector,
    /// `Some(start)` while participating in a streaming session.
    busy_since: Option<u64>,
    /// Last tick at which idle relaxation was accounted for.
    relax_anchor: u64,
    /// Did a favored-class request arrive while busy in this session?
    saw_favored_request: bool,
    /// The highest class that left a reminder during the current session
    /// — all §4.1(c) ever reads, so a remote peer cannot grow it.
    reminder: Option<PeerClass>,
}

impl SupplierState {
    /// Creates the state of a peer that just became a supplier at tick
    /// `now` (paper §4.1(a) initialization; `NDACp2p` pins all ones).
    ///
    /// # Errors
    ///
    /// Returns an error if `class` is outside the configured class count.
    pub fn new(class: PeerClass, config: SupplierConfig, now: u64) -> Result<Self> {
        let vector = match config.protocol {
            Protocol::Dac => AdmissionVector::initial(class, config.num_classes)?,
            Protocol::Ndac => AdmissionVector::all_ones(config.num_classes)?,
        };
        Ok(SupplierState {
            class,
            config,
            vector,
            busy_since: None,
            relax_anchor: now,
            saw_favored_request: false,
            reminder: None,
        })
    }

    /// This supplier's own class.
    pub fn class(&self) -> PeerClass {
        self.class
    }

    /// The configuration the supplier was created with.
    pub fn config(&self) -> &SupplierConfig {
        &self.config
    }

    /// Whether the supplier is currently serving a streaming session.
    pub fn is_busy(&self) -> bool {
        self.busy_since.is_some()
    }

    /// Read access to the admission vector *after* folding in idle
    /// relaxation up to tick `now`.
    pub fn vector_at(&mut self, now: u64) -> &AdmissionVector {
        self.sync(now);
        &self.vector
    }

    /// The lowest favored class at tick `now` (paper Fig. 7's metric).
    pub fn lowest_favored_at(&mut self, now: u64) -> PeerClass {
        self.sync(now);
        self.vector.lowest_favored()
    }

    /// Folds pending idle relaxation steps into the vector (paper §4.1(b)).
    fn sync(&mut self, now: u64) {
        if self.config.protocol == Protocol::Ndac {
            self.relax_anchor = now.max(self.relax_anchor);
            return;
        }
        if self.is_busy() || self.config.idle_timeout == 0 {
            return;
        }
        if now <= self.relax_anchor {
            return;
        }
        let steps = (now - self.relax_anchor) / self.config.idle_timeout;
        if steps > 0 {
            self.vector.relax_times(steps);
            self.relax_anchor += steps * self.config.idle_timeout;
        }
    }

    /// Handles a streaming request from a class-`from` requester at tick
    /// `now` (paper §4.1/§4.2).
    ///
    /// When idle, runs the probabilistic admission test; a grant does *not*
    /// make the supplier busy — the requester confirms with
    /// [`begin_session`](Self::begin_session) only if it secured the full
    /// playback rate. When busy, records whether a favored-class request
    /// arrived (input to the end-of-session rule) and reports `Busy`.
    pub fn handle_request<R: Rng + ?Sized>(
        &mut self,
        now: u64,
        from: PeerClass,
        rng: &mut R,
    ) -> RequestDecision {
        self.sync(now);
        if self.is_busy() {
            let favored = self.vector.favors(from);
            if favored {
                self.saw_favored_request = true;
            }
            return RequestDecision::Busy { favored };
        }
        if self.vector.decide(from, rng) {
            RequestDecision::Granted
        } else {
            RequestDecision::Refused
        }
    }

    /// Records a reminder left by a rejected class-`from` requester
    /// (paper §4.2). Reminders are only meaningful while busy; calls on an
    /// idle supplier are ignored (the requester raced a session end).
    pub fn leave_reminder(&mut self, from: PeerClass) {
        if self.is_busy() {
            self.reminder = Some(self.reminder.map_or(from, |held| held.min(from)));
        }
    }

    /// Marks the supplier busy: its granted bandwidth is now committed to a
    /// streaming session (paper §2(1): at most one session at a time).
    ///
    /// # Panics
    ///
    /// Panics if the supplier is already busy — the admission layer must
    /// never double-book a supplier.
    pub fn begin_session(&mut self, now: u64) {
        self.sync(now);
        assert!(
            self.busy_since.is_none(),
            "supplier double-booked into a second session"
        );
        self.busy_since = Some(now);
        self.saw_favored_request = false;
        self.reminder = None;
    }

    /// Ends the current session and applies the paper's §4.1(c) update:
    ///
    /// * no favored-class request arrived during the session → relax once;
    /// * reminders were left → tighten around the highest reminding class;
    /// * a favored-class request arrived but left no reminder → unchanged
    ///   (the paper does not specify this case; see DESIGN.md).
    ///
    /// # Panics
    ///
    /// Panics if the supplier is not busy.
    pub fn end_session(&mut self, now: u64) {
        assert!(self.busy_since.is_some(), "end_session on an idle supplier");
        self.busy_since = None;
        if self.config.protocol == Protocol::Dac {
            if !self.saw_favored_request {
                if self.config.session_relax_enabled {
                    self.vector.relax();
                }
            } else if self.config.reminders_enabled {
                if let Some(highest) = self.reminder {
                    self.vector.tighten(highest);
                }
            }
        }
        self.saw_favored_request = false;
        self.reminder = None;
        self.relax_anchor = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn class(k: u8) -> PeerClass {
        PeerClass::new(k).unwrap()
    }

    fn dac_config(timeout: u64) -> SupplierConfig {
        SupplierConfig::new(4, timeout, Protocol::Dac).unwrap()
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(12345)
    }

    #[test]
    fn config_accessors() {
        let cfg = dac_config(1200);
        assert_eq!(cfg.num_classes(), 4);
        assert_eq!(cfg.idle_timeout(), 1200);
        assert_eq!(cfg.protocol(), Protocol::Dac);
        assert!(SupplierConfig::new(0, 1, Protocol::Dac).is_err());
    }

    #[test]
    fn grants_favored_class_when_idle() {
        let mut s = SupplierState::new(class(2), dac_config(1200), 0).unwrap();
        let mut r = rng();
        assert_eq!(
            s.handle_request(0, class(1), &mut r),
            RequestDecision::Granted
        );
        assert_eq!(
            s.handle_request(0, class(2), &mut r),
            RequestDecision::Granted
        );
    }

    #[test]
    fn low_class_requests_are_sometimes_refused() {
        let mut s = SupplierState::new(class(1), dac_config(0), 0).unwrap();
        let mut r = rng();
        let mut refused = 0;
        let mut granted = 0;
        for _ in 0..1000 {
            match s.handle_request(0, class(4), &mut r) {
                RequestDecision::Refused => refused += 1,
                RequestDecision::Granted => granted += 1,
                RequestDecision::Busy { .. } => unreachable!(),
            }
        }
        // P = 0.125: both outcomes must occur, refusals dominate.
        assert!(granted > 50, "granted {granted}");
        assert!(refused > 700, "refused {refused}");
    }

    #[test]
    fn busy_supplier_reports_favored_flag() {
        let mut s = SupplierState::new(class(2), dac_config(1200), 0).unwrap();
        let mut r = rng();
        s.begin_session(0);
        assert_eq!(
            s.handle_request(1, class(2), &mut r),
            RequestDecision::Busy { favored: true }
        );
        assert_eq!(
            s.handle_request(1, class(4), &mut r),
            RequestDecision::Busy { favored: false }
        );
    }

    #[test]
    fn idle_relaxation_is_lazy_but_exact() {
        let timeout = 100;
        let mut s = SupplierState::new(class(1), dac_config(timeout), 0).unwrap();
        // After 2.5 timeouts, exactly two relaxation steps must have applied.
        let v = s.vector_at(250).clone();
        let mut expect = AdmissionVector::initial(class(1), 4).unwrap();
        expect.relax_times(2);
        assert_eq!(v, expect);
        // The residual 50 ticks carry over: at t=300 the third step lands.
        let v = s.vector_at(300).clone();
        expect.relax();
        assert_eq!(v, expect);
    }

    #[test]
    fn relaxation_freezes_while_busy() {
        let timeout = 100;
        let mut s = SupplierState::new(class(1), dac_config(timeout), 0).unwrap();
        s.begin_session(10);
        // Long busy stretch: no relaxation may occur.
        let v = s.vector_at(10_000).clone();
        assert_eq!(v, AdmissionVector::initial(class(1), 4).unwrap());
        s.end_session(10_000);
        // Session saw no favored request -> exactly one relax step.
        let mut expect = AdmissionVector::initial(class(1), 4).unwrap();
        expect.relax();
        assert_eq!(*s.vector_at(10_000), expect);
    }

    #[test]
    fn end_session_without_favored_request_relaxes() {
        let mut s = SupplierState::new(class(2), dac_config(0), 0).unwrap();
        let mut r = rng();
        s.begin_session(0);
        // Non-favored (class 3/4) requests arrive while busy.
        let _ = s.handle_request(1, class(3), &mut r);
        let _ = s.handle_request(1, class(4), &mut r);
        s.end_session(100);
        let mut expect = AdmissionVector::initial(class(2), 4).unwrap();
        expect.relax();
        assert_eq!(*s.vector_at(100), expect);
    }

    #[test]
    fn end_session_with_reminder_tightens_to_highest() {
        let mut s = SupplierState::new(class(4), dac_config(0), 0).unwrap();
        let mut r = rng();
        s.begin_session(0);
        let d = s.handle_request(1, class(3), &mut r);
        assert_eq!(d, RequestDecision::Busy { favored: true });
        s.leave_reminder(class(3));
        let d = s.handle_request(2, class(2), &mut r);
        assert_eq!(d, RequestDecision::Busy { favored: true });
        s.leave_reminder(class(2));
        s.end_session(100);
        // Tightened around class 2: [1, 1, 0.5, 0.25].
        let mut expect = AdmissionVector::all_ones(4).unwrap();
        expect.tighten(class(2));
        assert_eq!(*s.vector_at(100), expect);
    }

    #[test]
    fn favored_request_without_reminder_leaves_vector_unchanged() {
        let mut s = SupplierState::new(class(4), dac_config(0), 0).unwrap();
        let mut r = rng();
        s.begin_session(0);
        let _ = s.handle_request(1, class(1), &mut r); // favored, no reminder
        s.end_session(100);
        assert_eq!(*s.vector_at(100), AdmissionVector::all_ones(4).unwrap());
    }

    #[test]
    fn a_flood_of_reminders_is_the_single_highest_one() {
        let mut flooded = SupplierState::new(class(4), dac_config(0), 0).unwrap();
        let mut single = flooded.clone();
        let mut r = rng();
        for s in [&mut flooded, &mut single] {
            s.begin_session(0);
            let _ = s.handle_request(1, class(2), &mut r); // favored while busy
        }
        for i in 0..100_000u32 {
            flooded.leave_reminder(class(2 + (i % 3) as u8));
        }
        single.leave_reminder(class(2));
        assert_eq!(flooded, single, "state must not grow with the frame count");
        flooded.end_session(100);
        single.end_session(100);
        let mut expect = AdmissionVector::all_ones(4).unwrap();
        expect.tighten(class(2));
        assert_eq!(*flooded.vector_at(100), expect);
    }

    #[test]
    fn reminders_on_idle_supplier_are_ignored() {
        let mut s = SupplierState::new(class(4), dac_config(0), 0).unwrap();
        s.leave_reminder(class(1));
        s.begin_session(0);
        s.end_session(1);
        // The stale reminder did not tighten anything; the no-favored rule
        // relaxed instead (already fully relaxed for a class-4 supplier).
        assert!(s.vector_at(1).is_fully_relaxed());
    }

    #[test]
    fn ndac_never_differentiates() {
        let cfg = SupplierConfig::new(4, 100, Protocol::Ndac).unwrap();
        let mut s = SupplierState::new(class(1), cfg, 0).unwrap();
        let mut r = rng();
        for _ in 0..200 {
            assert!(s.handle_request(0, class(4), &mut r).is_granted());
        }
        s.begin_session(0);
        let _ = s.handle_request(1, class(1), &mut r);
        s.leave_reminder(class(1));
        s.end_session(50);
        assert!(s.vector_at(1_000_000).is_fully_relaxed());
    }

    #[test]
    #[should_panic(expected = "double-booked")]
    fn double_begin_session_panics() {
        let mut s = SupplierState::new(class(1), dac_config(0), 0).unwrap();
        s.begin_session(0);
        s.begin_session(1);
    }

    #[test]
    #[should_panic(expected = "idle supplier")]
    fn end_session_when_idle_panics() {
        let mut s = SupplierState::new(class(1), dac_config(0), 0).unwrap();
        s.end_session(0);
    }

    #[test]
    fn ablation_disabling_reminders_skips_tightening() {
        let cfg = dac_config(0).reminders(false);
        assert!(!cfg.reminders_enabled());
        let mut s = SupplierState::new(class(4), cfg, 0).unwrap();
        let mut r = rng();
        s.begin_session(0);
        let _ = s.handle_request(1, class(1), &mut r); // favored while busy
        s.leave_reminder(class(1));
        s.end_session(100);
        // Without the mechanism the vector stays fully relaxed instead of
        // tightening around class 1.
        assert!(s.vector_at(100).is_fully_relaxed());
    }

    #[test]
    fn ablation_disabling_session_relax_freezes_vector() {
        let cfg = dac_config(0).session_relax(false);
        assert!(!cfg.session_relax_enabled());
        let mut s = SupplierState::new(class(1), cfg, 0).unwrap();
        s.begin_session(0);
        s.end_session(100); // no favored request, but relaxation disabled
        assert_eq!(
            *s.vector_at(100),
            AdmissionVector::initial(class(1), 4).unwrap()
        );
    }

    #[test]
    fn lowest_favored_tracks_relaxation() {
        let mut s = SupplierState::new(class(1), dac_config(10), 0).unwrap();
        assert_eq!(s.lowest_favored_at(0), class(1));
        assert_eq!(s.lowest_favored_at(10), class(2));
        assert_eq!(s.lowest_favored_at(30), class(4));
    }
}
