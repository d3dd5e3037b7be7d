//! Sans-io requester machine: one streaming session from the §4.2 probe
//! to the last segment.
//!
//! [`RequesterMachine`] is the requesting peer's half of a session as
//! one state machine over its candidate lanes:
//!
//! ```text
//! probing ─ AdmissionDriver verdict ─┬ Admitted ▶ §3 plan ─▶ streaming ─ SessionDriver ─┬▶ complete
//!   (StreamRequest burst,            │            (StartSession per     (segments, ends, ├▶ failed
//!    Grant/Deny fold)                │             used grant, Release   losses → replan)│
//!                                    │             per unused one)                      │
//!                                    └ Rejected ▶ rejected (Releases + Reminders sent)  │
//! ```
//!
//! It composes the pieces that already were sans-io — the pipelined
//! [`AdmissionDriver`] fold, the [`SelectionPolicy`] plan and the
//! [`SessionDriver`]'s reassembly and replans — and owns what used to be
//! written twice, once per host: which granted lane streams which share,
//! the `Release` of a grant the plan leaves unused, what happens to a
//! lane that dies between its grant and the hand-off, and which
//! [`SessionEvent`] each step puts on the session's timeline.
//!
//! The host owns the transport and the clock. Every lane index the
//! machine takes or emits is the candidate's position in the list it was
//! built with, in every phase. The host feeds decoded frames
//! ([`on_message`](RequesterMachine::on_message)) and transport losses
//! ([`on_lane_closed`](RequesterMachine::on_lane_closed)), then drains
//! [`pop_action`](RequesterMachine::pop_action) after each call. The
//! epoll reactor (`crate::requester`) and the deterministic harness
//! (`p2ps-simnet`) host this same machine.
//!
//! # Examples
//!
//! One class-1 candidate grants; the machine plans, streams and
//! completes:
//!
//! ```
//! use bytes::Bytes;
//! use p2ps_core::assignment::SegmentDuration;
//! use p2ps_core::PeerClass;
//! use p2ps_media::MediaInfo;
//! use p2ps_node::{RequesterAction, RequesterMachine};
//! use p2ps_proto::Message;
//!
//! let class1 = PeerClass::new(1)?;
//! let info = MediaInfo::new("clip", 2, SegmentDuration::from_millis(10), 4);
//! let mut m = RequesterMachine::new(7, class1, info, Default::default(), &[class1]);
//! m.start();
//! m.on_message(0, Message::Grant { session: 7, class: class1 }, 0);
//! let mut plans = 0;
//! while let Some(action) = m.pop_action() {
//!     if let RequesterAction::Send { msg: Message::StartSession { .. }, .. } = action {
//!         plans += 1;
//!     }
//! }
//! assert_eq!(plans, 1);
//! for index in 0..2 {
//!     let payload = Bytes::from(vec![0u8; 4]);
//!     m.on_message(0, Message::SegmentData { session: 7, index, payload }, 10 * index);
//! }
//! assert!(matches!(m.outcome(), Some(Ok(()))));
//! # Ok::<(), p2ps_core::Error>(())
//! ```

use std::collections::VecDeque;

use p2ps_core::PeerClass;
use p2ps_media::MediaInfo;
use p2ps_policy::{SelectionPolicy, SessionContext, SharedPolicy};
use p2ps_proto::{
    AdmissionAction, AdmissionDriver, AdmissionVerdict, Flow, Message, SessionEvent, SessionPlan,
};

use crate::{DriverStep, NodeError, SessionDriver};

/// A transport instruction or timeline entry drained from the machine
/// via [`RequesterMachine::pop_action`], in the order it must happen.
#[derive(Debug, PartialEq)]
pub enum RequesterAction {
    /// Send `msg` on candidate lane `lane`.
    Send {
        /// Candidate lane index.
        lane: usize,
        /// The frame to put on the wire.
        msg: Message,
    },
    /// The machine is done with `lane`: close its transport once the
    /// frames already queued on it (a `Release`, a `Reminder`) have
    /// flushed.
    Close {
        /// Candidate lane index.
        lane: usize,
    },
    /// Put `event` on the session's timeline (the flight recorder).
    Record(SessionEvent),
}

/// One candidate lane as the machine sees it.
#[derive(Debug)]
struct Lane {
    class: PeerClass,
    /// The transport is up: the host has not reported it gone and the
    /// machine has not closed it.
    open: bool,
    /// The [`SessionDriver`] lane this candidate streams as, once its
    /// grant was planned a share.
    stream: Option<usize>,
}

/// The admitted session: the driver and where its lanes came from.
struct Streaming {
    driver: SessionDriver,
    /// Driver lane → candidate lane.
    candidate: Vec<usize>,
    /// The plan's minimum feasible delay in slots of `δt` (Theorem 1's
    /// `n` for `Otsp2p`).
    theoretical_slots: u64,
}

/// The requesting peer's whole session as a sans-io state machine (see
/// the module docs).
pub struct RequesterMachine {
    session: u64,
    info: MediaInfo,
    policy: SharedPolicy,
    lanes: Vec<Lane>,
    adm: AdmissionDriver,
    started: bool,
    stream: Option<Streaming>,
    /// The final verdict, once there is one.
    end: Option<Result<(), NodeError>>,
    actions: VecDeque<RequesterAction>,
}

impl RequesterMachine {
    /// A machine for `session`, requesting `info` as a class-`class` peer
    /// from one lane per candidate (index = position in `candidates`),
    /// planning with `policy`. Report lanes whose transport never came up
    /// with [`on_lane_closed`](Self::on_lane_closed), then call
    /// [`start`](Self::start).
    pub fn new(
        session: u64,
        class: PeerClass,
        info: MediaInfo,
        policy: SharedPolicy,
        candidates: &[PeerClass],
    ) -> Self {
        RequesterMachine {
            session,
            info,
            policy,
            lanes: candidates
                .iter()
                .map(|&class| Lane {
                    class,
                    open: true,
                    stream: None,
                })
                .collect(),
            adm: AdmissionDriver::new(session, class, candidates),
            started: false,
            stream: None,
            end: None,
            actions: VecDeque::new(),
        }
    }

    /// Opens the round: a `StreamRequest` on every open lane at once.
    /// Lanes already reported closed settle as refused. With no candidate
    /// left the round is rejected on the spot.
    pub fn start(&mut self) {
        self.started = true;
        self.adm.start();
        for lane in 0..self.lanes.len() {
            if !self.lanes[lane].open {
                self.adm.on_lane_error(lane);
            }
        }
        self.pump_admission();
    }

    /// The media item being requested.
    pub(crate) fn info(&self) -> &MediaInfo {
        &self.info
    }

    /// Whether `lane`'s transport is still wanted: neither reported gone
    /// nor closed by the machine.
    pub fn is_open(&self, lane: usize) -> bool {
        self.lanes[lane].open
    }

    /// Whether `lane` carries a planned share of the stream (as opposed
    /// to a candidate still answering the §4.2 round).
    pub fn streams_on(&self, lane: usize) -> bool {
        self.lanes[lane].stream.is_some()
    }

    /// Whether `lane` streams a share with segments still to come — the
    /// lanes a host holds to a progress deadline.
    pub fn owes(&self, lane: usize) -> bool {
        match (self.lanes[lane].stream, &self.stream) {
            (Some(slot), Some(stream)) => stream.driver.machine().owes(slot),
            _ => false,
        }
    }

    /// The streaming session once the round admitted: reassembly
    /// progress, the plan's stride, the lane classes.
    pub fn driver(&self) -> Option<&SessionDriver> {
        self.stream.as_ref().map(|s| &s.driver)
    }

    /// Theorem 1's start-up delay for the admitted plan (`n·δt` under
    /// `Otsp2p`), in ms; 0 before admission.
    pub fn theoretical_delay_ms(&self) -> u64 {
        self.stream.as_ref().map_or(0, |s| {
            s.theoretical_slots * self.info.segment_duration().as_millis()
        })
    }

    /// `None` while the session runs, then how it ended: complete, or the
    /// error it failed with (`Rejected` when the round came up short).
    pub fn outcome(&self) -> Option<Result<(), &NodeError>> {
        self.end.as_ref().map(|r| r.as_ref().map(|_| ()))
    }

    /// Consumes a finished machine: the streaming session with every
    /// payload and arrival time when it completed, the error otherwise;
    /// `None` while it still runs.
    pub fn into_outcome(self) -> Option<Result<SessionDriver, NodeError>> {
        match self.end? {
            Ok(()) => Some(Ok(self
                .stream
                .expect("completion implies streaming")
                .driver)),
            Err(e) => Some(Err(e)),
        }
    }

    /// Next transport instruction or timeline entry, if any.
    pub fn pop_action(&mut self) -> Option<RequesterAction> {
        self.actions.pop_front()
    }

    /// Feeds one decoded frame from `lane`, received at `at_us`: the
    /// time a segment is stored with, in µs since the hand-off — the
    /// first instant [`driver`](Self::driver) is `Some`, when the
    /// `StartSession` frames go out — on the reactor's clock or simnet's
    /// virtual one. Returns what becomes of the lane:
    /// [`Flow::Close`] when its supplier ended the stream or broke the
    /// protocol — drop the transport now; [`Flow::Keep`] otherwise.
    pub fn on_message(&mut self, lane: usize, msg: Message, at_us: u64) -> Flow {
        if self.end.is_some() || !self.lanes[lane].open {
            return Flow::Close;
        }
        let Some(slot) = self.lanes[lane].stream else {
            // A reply to the round — or a late one after it admitted,
            // which the fold answers with a Release and a close.
            let event = match &msg {
                Message::Grant { .. } => Some(SessionEvent::AdmissionGrant { lane: lane as u64 }),
                Message::Deny { .. } => Some(SessionEvent::AdmissionDeny { lane: lane as u64 }),
                _ => None,
            };
            self.actions.extend(event.map(RequesterAction::Record));
            self.adm.on_message(lane, &msg);
            self.pump_admission();
            return Flow::Keep;
        };
        let stream = self.stream.as_mut().expect("a share implies streaming");
        let step = match msg {
            Message::SegmentData {
                session,
                index,
                payload,
            } if session == self.session => {
                self.actions
                    .push_back(RequesterAction::Record(SessionEvent::SegmentArrived {
                        lane: lane as u64,
                        index,
                    }));
                let step = stream.driver.on_segment(slot, index, payload, at_us);
                self.apply(step);
                return Flow::Keep;
            }
            Message::EndSession { session } if session == self.session => {
                stream.driver.on_end(slot)
            }
            // Anything else mid-stream is a protocol violation by this
            // supplier alone.
            _ => stream.driver.on_failure(slot),
        };
        self.lanes[lane].open = false;
        self.apply(step);
        Flow::Close
    }

    /// `lane`'s transport is gone — refused connect, peer close, missed
    /// progress deadline, undecodable bytes. During the round the lane settles as
    /// refused; once it streams, its undelivered share is replanned over
    /// the survivors. The host closes its own end.
    pub fn on_lane_closed(&mut self, lane: usize) {
        if !std::mem::replace(&mut self.lanes[lane].open, false)
            || !self.started
            || self.end.is_some()
        {
            return;
        }
        match self.lanes[lane].stream {
            Some(slot) => {
                let stream = self.stream.as_mut().expect("a share implies streaming");
                let step = stream.driver.on_failure(slot);
                self.apply(step);
            }
            None => {
                self.adm.on_lane_error(lane);
                self.pump_admission();
            }
        }
    }

    /// Moves the admission driver's actions into the queue — lanes whose
    /// transport is gone get nothing — and acts on its verdict.
    fn pump_admission(&mut self) {
        while let Some(action) = self.adm.pop_action() {
            match action {
                AdmissionAction::Send { lane, msg } if self.lanes[lane].open => {
                    let event = match &msg {
                        Message::StreamRequest { .. } => {
                            Some(SessionEvent::AdmissionRequest { lane: lane as u64 })
                        }
                        Message::Reminder { .. } => {
                            Some(SessionEvent::AdmissionReminder { lane: lane as u64 })
                        }
                        _ => None,
                    };
                    self.actions.push_back(RequesterAction::Send { lane, msg });
                    self.actions.extend(event.map(RequesterAction::Record));
                }
                AdmissionAction::Close { lane } if self.lanes[lane].open => {
                    self.lanes[lane].open = false;
                    self.actions.push_back(RequesterAction::Close { lane });
                }
                _ => {}
            }
        }
        if self.stream.is_some() || self.end.is_some() {
            return;
        }
        match self.adm.verdict() {
            AdmissionVerdict::Pending => {}
            AdmissionVerdict::Admitted { granted } => {
                let granted = granted.clone();
                self.hand_off(&granted);
            }
            AdmissionVerdict::Rejected { reminders, .. } => {
                self.end = Some(Err(NodeError::Rejected {
                    reminders_left: reminders.len(),
                }));
            }
        }
    }

    /// `R0` secured: plan the session over the granted lanes, ship each
    /// used grant its `StartSession` and release the rest. A lane that
    /// died after granting is failed right away, so its share is
    /// replanned like any other loss.
    fn hand_off(&mut self, granted: &[usize]) {
        let classes: Vec<PeerClass> = granted.iter().map(|&l| self.lanes[l].class).collect();
        let (slot_plans, theoretical_slots) =
            match plan_session(&classes, self.session, &self.info, &*self.policy) {
                Ok(planned) => planned,
                Err(e) => {
                    for &lane in granted {
                        self.release(lane);
                    }
                    self.end = Some(Err(e));
                    return;
                }
            };
        let mut specs: Vec<(PeerClass, SessionPlan)> = Vec::with_capacity(granted.len());
        let mut candidate = Vec::with_capacity(granted.len());
        for (&lane, plan) in granted.iter().zip(slot_plans) {
            match plan {
                Some(plan) => {
                    self.lanes[lane].stream = Some(specs.len());
                    candidate.push(lane);
                    specs.push((self.lanes[lane].class, plan));
                }
                // The policy left this grant unused: its bandwidth
                // reservation must not linger.
                None => self.release(lane),
            }
        }
        let mut driver = SessionDriver::new(
            self.session,
            self.info.name(),
            self.info.segment_count(),
            self.info.segment_duration().as_millis(),
            self.policy.clone(),
            &specs,
        );
        let mut dead = Vec::new();
        for (slot, (_, plan)) in specs.into_iter().enumerate() {
            let lane = candidate[slot];
            if !self.lanes[lane].open {
                // Every doomed lane is marked before any is settled, so
                // the first replan does not count the others as
                // survivors.
                driver.mark_dead(slot);
                dead.push(slot);
                continue;
            }
            let segments = plan.segments.len() as u64;
            self.actions.push_back(RequesterAction::Send {
                lane,
                msg: Message::StartSession {
                    session: self.session,
                    plan,
                },
            });
            self.actions
                .push_back(RequesterAction::Record(SessionEvent::PlanSent {
                    lane: lane as u64,
                    segments,
                }));
        }
        self.stream = Some(Streaming {
            driver,
            candidate,
            theoretical_slots,
        });
        for slot in dead {
            if self.end.is_some() {
                return;
            }
            let step = self
                .stream
                .as_mut()
                .expect("just set")
                .driver
                .on_failure(slot);
            self.apply(step);
        }
        if self.end.is_none() {
            // A zero-segment file is complete right at launch.
            let step = self.stream.as_ref().expect("just set").driver.status();
            self.apply(step);
        }
    }

    /// Frees `lane`'s grant and closes it.
    fn release(&mut self, lane: usize) {
        if std::mem::replace(&mut self.lanes[lane].open, false) {
            let session = self.session;
            self.actions.push_back(RequesterAction::Send {
                lane,
                msg: Message::Release { session },
            });
            self.actions.push_back(RequesterAction::Close { lane });
        }
    }

    /// Queues what a [`DriverStep`] asks for: replanned shares ride
    /// explicit `StartSession`s to the survivors, `Complete`/`Failed`
    /// settle the session.
    fn apply(&mut self, step: DriverStep) {
        match step {
            DriverStep::Continue => {}
            DriverStep::Replanned(plans) => {
                let stream = self.stream.as_ref().expect("replans imply streaming");
                for (slot, plan) in plans {
                    let lane = stream.candidate[slot];
                    let segments = plan.segments.len() as u64;
                    self.actions.push_back(RequesterAction::Send {
                        lane,
                        msg: Message::StartSession {
                            session: self.session,
                            plan,
                        },
                    });
                    self.actions
                        .push_back(RequesterAction::Record(SessionEvent::Replanned {
                            lane: lane as u64,
                            segments,
                        }));
                }
            }
            DriverStep::Complete => {
                let received = self.driver().map_or(0, |d| d.machine().received());
                self.actions
                    .push_back(RequesterAction::Record(SessionEvent::Completed {
                        received,
                    }));
                self.end = Some(Ok(()));
            }
            DriverStep::Failed(e) => {
                if let NodeError::SuppliersLost { missing } = e {
                    self.actions
                        .push_back(RequesterAction::Record(SessionEvent::GaveUp { missing }));
                }
                self.end = Some(Err(e));
            }
        }
    }
}

/// Runs the [`SelectionPolicy`] over the granted classes: one
/// `SessionPlan` per supplier slot (`None` when the policy left that
/// grant unused — its reservation must be released), plus the plan's
/// theoretical delay in slots.
///
/// With the default `Otsp2p` policy the emitted `SessionPlan`s are the
/// §3 assignment, back-mapped to the granted order; other policies ship
/// explicit one-shot plans over the same wire format.
fn plan_session(
    classes: &[PeerClass],
    session: u64,
    info: &MediaInfo,
    policy: &dyn SelectionPolicy,
) -> Result<(Vec<Option<SessionPlan>>, u64), NodeError> {
    let ctx = SessionContext::full(classes, info.segment_count()).with_seed(session);
    let plan = policy
        .plan(&ctx)
        .map_err(|e| NodeError::Protocol(format!("policy '{}' failed: {e}", policy.name())))?;
    if plan.slot_count() != classes.len() {
        return Err(NodeError::Protocol(format!(
            "policy '{}' planned {} slots for {} suppliers",
            policy.name(),
            plan.slot_count(),
            classes.len()
        )));
    }
    let theoretical_slots = plan.min_delay_slots(&ctx);
    let dt_ms = info.segment_duration().as_millis();
    let slot_plans: Vec<Option<SessionPlan>> = (0..classes.len())
        .map(|slot| {
            let segments = plan.slot(slot);
            (!segments.is_empty()).then(|| SessionPlan {
                item: info.name().to_owned(),
                segments: segments.to_vec(),
                period: plan.period(),
                total_segments: info.segment_count(),
                dt_ms: dt_ms as u32,
            })
        })
        .collect();
    if slot_plans.iter().all(Option::is_none) {
        return Err(NodeError::Protocol(format!(
            "policy '{}' assigned no segments to any supplier",
            policy.name()
        )));
    }
    Ok((slot_plans, theoretical_slots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use p2ps_core::assignment::SegmentDuration;
    use p2ps_policy::{PolicyError, PolicyPlan};

    use RequesterAction::{Close, Record, Send};

    const S: u64 = 9;

    fn class(k: u8) -> PeerClass {
        PeerClass::new(k).unwrap()
    }

    fn info(segments: u64) -> MediaInfo {
        MediaInfo::new("clip", segments, SegmentDuration::from_millis(10), 4)
    }

    fn machine(segments: u64, candidates: &[u8], policy: SharedPolicy) -> RequesterMachine {
        let classes: Vec<PeerClass> = candidates.iter().map(|&k| class(k)).collect();
        RequesterMachine::new(S, class(1), info(segments), policy, &classes)
    }

    fn drain(m: &mut RequesterMachine) -> Vec<RequesterAction> {
        std::iter::from_fn(|| m.pop_action()).collect()
    }

    fn grant(m: &mut RequesterMachine, lane: usize) -> Flow {
        let class = m.lanes[lane].class;
        m.on_message(lane, Message::Grant { session: S, class }, 0)
    }

    fn segment(m: &mut RequesterMachine, lane: usize, index: u64) -> Flow {
        let payload = Bytes::from(vec![index as u8; 4]);
        m.on_message(
            lane,
            Message::SegmentData {
                session: S,
                index,
                payload,
            },
            index,
        )
    }

    /// The lanes that carry a frame or a timeline entry naming them.
    fn lanes_touched(actions: &[RequesterAction]) -> Vec<usize> {
        let mut lanes: Vec<usize> = actions
            .iter()
            .filter_map(|a| match a {
                Send { lane, .. } | Close { lane } => Some(*lane),
                Record(
                    SessionEvent::Replanned { lane, .. } | SessionEvent::PlanSent { lane, .. },
                ) => Some(*lane as usize),
                Record(_) => None,
            })
            .collect();
        lanes.sort_unstable();
        lanes.dedup();
        lanes
    }

    /// Gives every segment to the first slot and none to the others.
    struct FirstSlotOnly;

    impl SelectionPolicy for FirstSlotOnly {
        fn name(&self) -> &'static str {
            "first-slot-only"
        }
        fn plan(&self, ctx: &SessionContext) -> Result<PolicyPlan, PolicyError> {
            let mut slots = vec![Vec::new(); ctx.supplier_count()];
            slots[0] = (0..ctx.total_segments()).collect();
            PolicyPlan::explicit(ctx.total_segments(), slots)
        }
    }

    /// Never plans anything.
    struct Refuses;

    impl SelectionPolicy for Refuses {
        fn name(&self) -> &'static str {
            "refuses"
        }
        fn plan(&self, _ctx: &SessionContext) -> Result<PolicyPlan, PolicyError> {
            Err(PolicyError::NoSuppliers)
        }
    }

    #[test]
    fn probe_plan_and_receive_are_one_timeline_in_candidate_lanes() {
        let mut m = machine(4, &[2, 2], SharedPolicy::default());
        m.start();
        let request = Message::StreamRequest {
            session: S,
            class: class(1),
        };
        assert_eq!(
            drain(&mut m),
            vec![
                Send {
                    lane: 0,
                    msg: request.clone()
                },
                Record(SessionEvent::AdmissionRequest { lane: 0 }),
                Send {
                    lane: 1,
                    msg: request
                },
                Record(SessionEvent::AdmissionRequest { lane: 1 }),
            ]
        );
        // Lane 1 first: the fold waits for lane 0, nothing ships yet.
        assert_eq!(grant(&mut m, 1), Flow::Keep);
        assert_eq!(
            drain(&mut m),
            vec![Record(SessionEvent::AdmissionGrant { lane: 1 })]
        );
        assert!(m.driver().is_none());
        grant(&mut m, 0);
        let handoff = drain(&mut m);
        assert_eq!(handoff[0], Record(SessionEvent::AdmissionGrant { lane: 0 }));
        let plans: Vec<(usize, Vec<u32>)> = handoff
            .iter()
            .filter_map(|a| match a {
                Send {
                    lane,
                    msg: Message::StartSession { session: S, plan },
                } => Some((*lane, plan.segments.clone())),
                _ => None,
            })
            .collect();
        // OTSp2p over two class-2 grants: one segment of every period of
        // two each.
        assert_eq!(plans, vec![(0, vec![1]), (1, vec![0])]);
        assert!(handoff.contains(&Record(SessionEvent::PlanSent {
            lane: 1,
            segments: 1
        })));
        assert_eq!(m.theoretical_delay_ms(), 20, "Theorem 1: n·δt = 2 · 10 ms");
        for (lane, index) in [(1, 0), (0, 1), (1, 2)] {
            assert_eq!(segment(&mut m, lane, index), Flow::Keep);
        }
        assert!(m.outcome().is_none());
        segment(&mut m, 0, 3);
        assert_eq!(
            drain(&mut m)[3..],
            [
                Record(SessionEvent::SegmentArrived { lane: 0, index: 3 }),
                Record(SessionEvent::Completed { received: 4 }),
            ]
        );
        assert!(matches!(m.outcome(), Some(Ok(()))));
        let driver = m.into_outcome().unwrap().unwrap();
        assert!(driver.machine().is_complete());
        assert_eq!(driver.classes(), [class(2), class(2)]);
    }

    #[test]
    fn a_lane_that_never_connected_gets_no_request() {
        let mut m = machine(4, &[1, 1, 1], SharedPolicy::default());
        m.on_lane_closed(1);
        m.start();
        let actions = drain(&mut m);
        assert_eq!(lanes_touched(&actions), vec![0, 2]);
        assert!(!actions.contains(&Record(SessionEvent::AdmissionRequest { lane: 1 })));
        assert!(!m.is_open(1));
    }

    #[test]
    fn a_rejected_round_releases_its_grants_and_reminds_the_favouring_busy() {
        let mut m = machine(4, &[2, 2, 3], SharedPolicy::default());
        m.start();
        drain(&mut m);
        grant(&mut m, 0);
        m.on_message(
            1,
            Message::Deny {
                session: S,
                busy: true,
                favored: true,
            },
            0,
        );
        m.on_lane_closed(2);
        let actions = drain(&mut m);
        assert!(actions.contains(&Send {
            lane: 0,
            msg: Message::Release { session: S }
        }));
        assert!(actions.contains(&Send {
            lane: 1,
            msg: Message::Reminder {
                session: S,
                class: class(1)
            }
        }));
        assert!(actions.contains(&Record(SessionEvent::AdmissionReminder { lane: 1 })));
        assert!(actions.contains(&Close { lane: 0 }) && actions.contains(&Close { lane: 1 }));
        assert!(
            !actions.contains(&Close { lane: 2 }),
            "a lane whose transport is gone is not closed again"
        );
        assert!(matches!(
            m.outcome(),
            Some(Err(NodeError::Rejected { reminders_left: 1 }))
        ));
    }

    #[test]
    fn granted_lanes_lost_before_the_hand_off_never_receive_a_share() {
        // Four class-3 grants make R0 together; two die after granting.
        // Each lane owes four segments, more than the two survivors can
        // take without a third lane, had the replan counted one.
        let mut m = machine(16, &[3, 3, 3, 3], SharedPolicy::default());
        m.start();
        for lane in [2, 3] {
            grant(&mut m, lane);
            m.on_lane_closed(lane);
        }
        drain(&mut m);
        grant(&mut m, 0);
        grant(&mut m, 1);
        let handoff = drain(&mut m);
        assert_eq!(
            lanes_touched(&handoff),
            vec![0, 1],
            "both doomed lanes are dead before the first replan: {handoff:?}"
        );
        let replanned: u64 = handoff
            .iter()
            .filter_map(|a| match a {
                Record(SessionEvent::Replanned { segments, .. }) => Some(*segments),
                _ => None,
            })
            .sum();
        assert_eq!(replanned, 8, "the dead lanes' whole shares move");
        assert!(m.outcome().is_none());
    }

    #[test]
    fn a_grant_the_plan_leaves_unused_is_released() {
        let mut m = machine(4, &[2, 2], SharedPolicy::new(FirstSlotOnly));
        m.start();
        drain(&mut m);
        grant(&mut m, 0);
        grant(&mut m, 1);
        let handoff = drain(&mut m);
        assert!(handoff.contains(&Send {
            lane: 1,
            msg: Message::Release { session: S }
        }));
        assert!(handoff.contains(&Close { lane: 1 }));
        assert!(!m.streams_on(1) && m.streams_on(0));
        assert_eq!(m.driver().unwrap().classes(), [class(2)]);
    }

    #[test]
    fn a_plan_that_fails_releases_every_grant() {
        let mut m = machine(4, &[2, 2], SharedPolicy::new(Refuses));
        m.start();
        drain(&mut m);
        grant(&mut m, 0);
        grant(&mut m, 1);
        let actions = drain(&mut m);
        for lane in [0, 1] {
            assert!(actions.contains(&Send {
                lane,
                msg: Message::Release { session: S }
            }));
            assert!(actions.contains(&Close { lane }));
        }
        assert!(matches!(m.outcome(), Some(Err(NodeError::Protocol(_)))));
    }

    #[test]
    fn a_grant_arriving_after_the_hand_off_is_released() {
        // The class-1 lane alone secures R0; the class-2 one is late.
        let mut m = machine(4, &[1, 2], SharedPolicy::default());
        m.start();
        grant(&mut m, 0);
        drain(&mut m);
        assert!(m.driver().is_some());
        assert_eq!(grant(&mut m, 1), Flow::Keep);
        assert_eq!(
            drain(&mut m),
            vec![
                Record(SessionEvent::AdmissionGrant { lane: 1 }),
                Send {
                    lane: 1,
                    msg: Message::Release { session: S }
                },
                Close { lane: 1 },
            ]
        );
        assert!(m.outcome().is_none(), "the stream goes on");
    }

    #[test]
    fn an_end_or_a_violation_closes_only_its_own_lane() {
        let mut m = machine(6, &[2, 2], SharedPolicy::default());
        m.start();
        grant(&mut m, 0);
        grant(&mut m, 1);
        segment(&mut m, 0, 1);
        segment(&mut m, 1, 0);
        drain(&mut m);
        // Lane 1 breaks the protocol mid-stream: its share (2, 4) moves.
        let junk = m.on_message(1, Message::Release { session: S }, 0);
        assert_eq!(junk, Flow::Close);
        assert!(!m.is_open(1));
        assert!(drain(&mut m).contains(&Record(SessionEvent::Replanned {
            lane: 0,
            segments: 2
        })));
        for index in [3, 5, 2, 4] {
            segment(&mut m, 0, index);
        }
        assert!(matches!(m.outcome(), Some(Ok(()))));
        let mut m = machine(2, &[1], SharedPolicy::default());
        m.start();
        grant(&mut m, 0);
        segment(&mut m, 0, 0);
        // An early end leaves segment 1 owed, with no survivor to take it.
        let end = m.on_message(0, Message::EndSession { session: S }, 0);
        assert_eq!(end, Flow::Close);
        assert!(matches!(
            m.outcome(),
            Some(Err(NodeError::SuppliersLost { missing: 1 }))
        ));
    }

    /// What a host's progress deadline relies on: a lane owes while its
    /// share has segments to come, and cutting the last one that owes
    /// gives the session up with what is still missing.
    #[test]
    fn losing_the_last_owing_lane_gives_up_with_what_is_still_missing() {
        let mut m = machine(4, &[1], SharedPolicy::default());
        m.start();
        assert!(!m.owes(0), "a candidate in the round owes nothing");
        grant(&mut m, 0);
        segment(&mut m, 0, 0);
        drain(&mut m);
        assert!(m.owes(0));
        m.on_lane_closed(0);
        assert!(!m.owes(0), "a lost lane owes nothing");
        assert_eq!(
            drain(&mut m),
            vec![Record(SessionEvent::GaveUp { missing: 3 })]
        );
        assert!(matches!(
            m.outcome(),
            Some(Err(NodeError::SuppliersLost { missing: 3 }))
        ));
        assert_eq!(
            segment(&mut m, 0, 1),
            Flow::Close,
            "a settled session hears nothing"
        );
    }

    /// A seeded LCG: the sweep below needs no stream compatibility, only
    /// reproducible cases.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n.max(1)
        }
    }

    /// What a host sees of one lane while it runs the machine.
    #[derive(Default)]
    struct Seen {
        /// The machine closed the lane, or the host reported it gone.
        closed: bool,
        /// The host reported the transport gone.
        lost: bool,
        granted: bool,
        released: bool,
        planned: bool,
        /// Segments the lane was asked to send, in order.
        owed: VecDeque<u64>,
    }

    /// The host reports `lane`'s transport gone.
    fn lose(m: &mut RequesterMachine, seen: &mut [Seen], lane: usize) {
        m.on_lane_closed(lane);
        seen[lane].closed = true;
        seen[lane].lost = true;
    }

    /// Drains `m`, checking that nothing targets a lane after its close
    /// and that a replan only reaches a lane that was sent a plan.
    fn drain_checked(m: &mut RequesterMachine, seen: &mut [Seen], case: u64) {
        while let Some(action) = m.pop_action() {
            match action {
                Send { lane, msg } => {
                    assert!(
                        !seen[lane].closed,
                        "case {case}: {msg:?} on closed lane {lane}"
                    );
                    match msg {
                        Message::Release { .. } => seen[lane].released = true,
                        Message::StartSession { plan, .. } => {
                            seen[lane].owed.extend(plan.expanded());
                        }
                        _ => {}
                    }
                }
                Close { lane } => {
                    assert!(!seen[lane].closed, "case {case}: lane {lane} closed twice");
                    seen[lane].closed = true;
                }
                Record(SessionEvent::PlanSent { lane, .. }) => seen[lane as usize].planned = true,
                Record(SessionEvent::Replanned { lane, .. }) => assert!(
                    seen[lane as usize].planned && !seen[lane as usize].closed,
                    "case {case}: replanned onto lane {lane}, which is not streaming"
                ),
                Record(_) => {}
            }
        }
    }

    /// Random rounds — every reply kind, any arrival order, lanes lost
    /// before the round, after their grant and mid-stream — driven to
    /// the end: no frame or close ever targets a closed lane, every grant
    /// the session does not stream from is released unless its transport
    /// went first, a replan only reaches a streaming lane, and the
    /// session always settles.
    #[test]
    fn random_rounds_settle_and_never_touch_a_closed_lane() {
        for case in 0..3_000u64 {
            let mut rng = Lcg(case);
            let n = 1 + rng.below(6) as usize;
            let classes: Vec<u8> = (0..n).map(|_| 1 + rng.below(4) as u8).collect();
            let segments = 1 + rng.below(12);
            let mut m = machine(segments, &classes, SharedPolicy::default());
            let mut seen: Vec<Seen> = (0..n).map(|_| Seen::default()).collect();
            for lane in 0..n {
                if rng.below(8) == 0 {
                    lose(&mut m, &mut seen, lane); // the connect failed
                }
            }
            m.start();
            drain_checked(&mut m, &mut seen, case);
            // The round: replies in a random order, some lanes lost.
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for lane in order {
                if !m.is_open(lane) || m.outcome().is_some() {
                    // A settled session's host tears every lane down.
                    continue;
                }
                let msg = match rng.below(8) {
                    0..=4 => {
                        seen[lane].granted = true;
                        Message::Grant {
                            session: S,
                            class: class(classes[lane]),
                        }
                    }
                    5 | 6 => Message::Deny {
                        session: S,
                        busy: true,
                        favored: rng.below(2) == 0,
                    },
                    _ => {
                        lose(&mut m, &mut seen, lane);
                        drain_checked(&mut m, &mut seen, case);
                        continue;
                    }
                };
                m.on_message(lane, msg, 0);
                drain_checked(&mut m, &mut seen, case);
                if rng.below(6) == 0 && m.is_open(lane) {
                    lose(&mut m, &mut seen, lane); // lost right after answering
                    drain_checked(&mut m, &mut seen, case);
                }
            }
            // The stream: open lanes send what they owe, one segment at a
            // time in a random interleaving, then end; now and then one
            // dies instead.
            let mut at = 0;
            while m.outcome().is_none() {
                let live: Vec<usize> = (0..n)
                    .filter(|&l| m.streams_on(l) && m.is_open(l))
                    .collect();
                assert!(!live.is_empty(), "case {case}: unsettled with no live lane");
                let lane = live[rng.below(live.len() as u64) as usize];
                at += 1;
                if rng.below(40) == 0 {
                    lose(&mut m, &mut seen, lane);
                } else if let Some(index) = seen[lane].owed.pop_front() {
                    segment(&mut m, lane, index);
                } else {
                    let flow = m.on_message(lane, Message::EndSession { session: S }, at);
                    assert_eq!(flow, Flow::Close);
                    seen[lane].closed = true;
                }
                drain_checked(&mut m, &mut seen, case);
            }
            for (lane, lane_seen) in seen.iter().enumerate() {
                if lane_seen.granted && !m.streams_on(lane) {
                    assert!(
                        lane_seen.released || lane_seen.lost,
                        "case {case}: lane {lane}'s unused grant was never released"
                    );
                }
            }
            if let Some(Ok(())) = m.outcome() {
                assert!(m.driver().unwrap().machine().is_complete());
            }
        }
    }
}
