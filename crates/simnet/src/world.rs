//! The simulated world: virtual clock, event queue, and the real stack.
//!
//! [`SimWorld`] hosts one streaming session end to end with **zero**
//! threads, sockets or wall-clock reads. The protocol code is the real
//! thing — the same types the live node runs on its epoll reactor:
//!
//! * the session opens with the real §4.2 round: a pipelined
//!   [`AdmissionDriver`] sends `StreamRequest` on every lane, each
//!   supplier machine's `Grant`/`Deny` travels back over its link, and
//!   the round's verdict (including `Release`s and `Reminder`s on
//!   rejection) is the driver's own greedy fold;
//! * the requester side is a [`SessionDriver`] (reassembly, lane
//!   liveness, policy replans, completion/failure verdicts) fed through
//!   a per-lane [`FrameDecoder`];
//! * each supplier side is a [`SupplierConn`] — the per-connection
//!   machine the reactor hosts: handshake phases, the grant reservation,
//!   reminder validation, §3 pacing with appended replan shares — fed
//!   through its own [`FrameDecoder`], its frames leaving through
//!   [`FrameEncoder`] framing; only its *decision* is scripted
//!   ([`AdmissionReply`] behind the [`SupplierAdmission`] seam);
//! * plans come from a real `p2ps-policy` [`SharedPolicy`].
//!
//! Only the transport is simulated: per-lane [`Link`]s impose latency,
//! jitter and bandwidth, the byte stream is fragmented at arbitrary
//! boundaries, and scheduled deaths cut a frame mid-byte before the
//! close lands. Everything is driven by one event queue keyed on virtual
//! milliseconds, with a strictly increasing sequence number breaking
//! ties — two runs of the same [`Schedule`] replay the identical event
//! order, asserted via the run's [`trace_hash`](SimReport::trace_hash).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use p2ps_core::admission::RequestDecision;
use p2ps_core::assignment::SegmentDuration;
use p2ps_core::PeerClass;
use p2ps_media::{MediaFile, MediaInfo};
use p2ps_monitor::Recorder;
use p2ps_node::{DriverStep, NodeError, SessionDriver};
use p2ps_policy::{SessionContext, SharedPolicy};
use p2ps_proto::{
    AdmissionAction, AdmissionDriver, AdmissionVerdict, FrameDecoder, FrameEncoder, Message, Pace,
    SessionEvent, SessionPlan, SupplierAdmission, SupplierConn,
};

use crate::link::Link;
use crate::schedule::AdmissionReply;
use crate::{Schedule, SimOutcome, SimReport, TraceHasher};

/// Which way bytes travel on a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Supplier → requester (admission replies and the stream).
    ToRequester = 0,
    /// Requester → supplier (admission requests, session setup, replans).
    ToSupplier = 1,
}

/// One thing that happens at a virtual instant.
#[derive(Debug)]
enum Event {
    /// Supplier `lane`'s next §3 pacing deadline.
    SupplierTick { lane: usize },
    /// A chunk of raw bytes reaches one end of `lane`'s connection.
    Deliver {
        lane: usize,
        dir: Dir,
        chunk: Vec<u8>,
    },
    /// The requester observes `lane`'s connection close.
    Closed { lane: usize },
    /// Supplier `lane` dies now.
    Die { lane: usize },
}

/// Queue entry: min-ordered by `(at, seq)` so equal-time events replay
/// in scheduling order.
#[derive(Debug)]
struct Scheduled {
    at: u64,
    seq: u64,
    ev: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Trace record tags (folded into the run digest).
const T_SEND: u8 = 1;
const T_CHUNK: u8 = 2;
const T_SEGMENT: u8 = 3;
const T_END: u8 = 4;
const T_START: u8 = 5;
const T_DIE: u8 = 6;
const T_CLOSED: u8 = 7;
const T_REPLAN: u8 = 8;
const T_OUTCOME: u8 = 9;
const T_ADM_TX: u8 = 10;
const T_ADM_RX: u8 = 11;
/// A flight-recorder event: the simulated session records the same
/// [`SessionEvent`] catalog the live requester does, and each one folds
/// into the digest so a recorder divergence breaks determinism loudly.
const T_EVENT: u8 = 12;

/// Small stable code for an admission-phase frame in the trace.
fn adm_code(msg: &Message) -> u64 {
    match msg {
        Message::StreamRequest { .. } => 1,
        Message::Grant { .. } => 2,
        Message::Deny { .. } => 3,
        Message::Reminder { .. } => 4,
        Message::Release { .. } => 5,
        _ => 0,
    }
}

/// One supplier's in-world state around its real [`SupplierConn`].
#[derive(Debug)]
struct SimSupplier {
    class: PeerClass,
    conn: SupplierConn,
    adm: Scripted,
    dec: FrameDecoder,
    alive: bool,
}

/// The node behind a simulated supplier: its §4.2 decision is the
/// schedule's script, it is never double-booked (one requester), and it
/// owns the whole file.
#[derive(Debug)]
struct Scripted {
    reply: AdmissionReply,
    segment_count: u64,
}

impl SupplierAdmission for Scripted {
    fn decide(&mut self, _class: PeerClass) -> RequestDecision {
        match self.reply {
            AdmissionReply::Grant => RequestDecision::Granted,
            AdmissionReply::Deny {
                busy: true,
                favored,
            } => RequestDecision::Busy { favored },
            AdmissionReply::Deny { busy: false, .. } => RequestDecision::Refused,
        }
    }
    fn release(&mut self) {}
    fn begin_session(&mut self) -> u64 {
        self.segment_count
    }
    fn end_session(&mut self) {}
    fn leave_reminder(&mut self, _class: PeerClass) {}
}

/// How the session ended, before outcome mapping.
enum RawOutcome {
    Complete,
    Failed(NodeError),
}

/// One deterministic run: virtual clock, event queue, links, and the
/// real admission/requester/supplier/policy stack. Build with
/// [`SimWorld::new`], consume with [`SimWorld::run`].
pub struct SimWorld {
    schedule: Schedule,
    now: u64,
    seq: u64,
    queue: BinaryHeap<Scheduled>,
    rng: SmallRng,
    trace: TraceHasher,
    /// The session's flight recorder, virtual-clock stamped — the same
    /// ring type the live requester publishes on its monitor scope.
    recorder: Recorder,

    session: u64,
    file: MediaFile,
    policy: SharedPolicy,
    suppliers: Vec<SimSupplier>,
    /// Per lane: `[to_requester, to_supplier]`. Lane = mix position.
    links: Vec<[Link; 2]>,
    /// Transport-open flag per lane (requester's view).
    lane_open: Vec<bool>,
    req_decs: Vec<FrameDecoder>,
    /// The §4.2 round, live until its verdict lands.
    adm: Option<AdmissionDriver>,
    /// The streaming session, built when the round admits.
    driver: Option<SessionDriver>,
    /// Which driver lane (if any) each mix lane streams as.
    driver_lane_of_mix: Vec<Option<usize>>,
    /// The mix lane behind each driver lane.
    mix_of_driver_lane: Vec<usize>,
    /// Reminders the verdict left, once the round was rejected.
    rejected: Option<u64>,
    outcome: Option<RawOutcome>,

    events: u64,
    segments_delivered: u64,
    bytes_on_wire: u64,
    replans: u64,
    deaths: u64,
    grants: u64,
    denials: u64,
    reminders: u64,
}

/// A message's full wire bytes (header chunk + zero-copy payload chunk,
/// concatenated — byte-identical to what the reactor writes).
fn wire_bytes(msg: &Message) -> Vec<u8> {
    let (head, payload) = FrameEncoder::frame(msg);
    let mut v = Vec::with_capacity(head.len() + payload.as_ref().map_or(0, |p| p.len()));
    v.extend_from_slice(&head);
    if let Some(p) = payload {
        v.extend_from_slice(&p);
    }
    v
}

impl SimWorld {
    /// Builds the world for one schedule: synthesizes the media file,
    /// constructs the admission driver and supplier machines, queues the
    /// `StreamRequest` burst plus every scheduled death. Planning and
    /// the [`SessionDriver`] wait for the round's verdict, exactly like
    /// the live node.
    pub fn new(schedule: Schedule) -> SimWorld {
        let session = schedule.seed;
        let info = MediaInfo::new(
            format!("simnet-{:016x}", schedule.seed),
            schedule.segment_count,
            SegmentDuration::from_millis(schedule.dt_ms),
            schedule.segment_bytes,
        );
        let file = MediaFile::synthesize(info);

        let classes: Vec<PeerClass> = schedule
            .mix
            .iter()
            .map(|&k| PeerClass::new(k).expect("mix classes are valid"))
            .collect();
        let req_class = PeerClass::new(schedule.req_class).expect("req_class is valid");

        let suppliers: Vec<SimSupplier> = classes
            .iter()
            .zip(&schedule.replies)
            .map(|(&class, &reply)| SimSupplier {
                class,
                conn: SupplierConn::new(class, 0),
                adm: Scripted {
                    reply,
                    segment_count: schedule.segment_count,
                },
                dec: FrameDecoder::new(),
                alive: true,
            })
            .collect();
        let links: Vec<[Link; 2]> = schedule
            .links
            .iter()
            .map(|&spec| [Link::new(spec), Link::new(spec)])
            .collect();
        let lane_count = classes.len();
        let segment_capacity = schedule.segment_count as usize * 2 + 64;
        let rng_seed = schedule.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ schedule.scenario.salt();
        let scheduled_deaths = schedule.deaths.clone();

        let mut adm = AdmissionDriver::new(session, req_class, &classes);
        adm.start();

        let mut world = SimWorld {
            schedule,
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            rng: SmallRng::seed_from_u64(rng_seed),
            trace: TraceHasher::new(),
            // Sized to retain the whole run (one arrival per segment
            // plus the admission/replan bookends) — the report carries
            // the full timeline, not a wrapped tail.
            recorder: Recorder::standalone(segment_capacity),
            session,
            file,
            policy: SharedPolicy::default(),
            suppliers,
            links,
            lane_open: vec![true; lane_count],
            req_decs: (0..lane_count).map(|_| FrameDecoder::new()).collect(),
            adm: Some(adm),
            driver: None,
            driver_lane_of_mix: vec![None; lane_count],
            mix_of_driver_lane: Vec::new(),
            rejected: None,
            outcome: None,
            events: 0,
            segments_delivered: 0,
            bytes_on_wire: 0,
            replans: 0,
            deaths: 0,
            grants: 0,
            denials: 0,
            reminders: 0,
        };

        // The opening StreamRequest burst travels the wire like
        // everything else, framed and fragmented per lane.
        world.pump_admission();
        for &(mix_idx, at) in &scheduled_deaths {
            world.push(at, Event::Die { lane: mix_idx });
        }
        world
    }

    /// Runs the world to quiescence and reports.
    pub fn run(mut self) -> SimReport {
        while self.outcome.is_none() {
            let Some(s) = self.queue.pop() else { break };
            debug_assert!(s.at >= self.now, "virtual time must be monotone");
            self.now = s.at;
            self.events += 1;
            self.dispatch(s.ev);
        }
        let outcome = match self.outcome.take() {
            Some(RawOutcome::Complete) => {
                let mut byte_exact = true;
                let driver = self.driver.take().expect("completion implies streaming");
                let (sm, _classes) = driver.into_parts();
                for (i, entry) in sm.into_segments().into_iter().enumerate() {
                    let expect = self.file.segment(i as u64).into_payload();
                    match entry {
                        Some((payload, _at)) if payload[..] == expect[..] => {}
                        _ => {
                            byte_exact = false;
                            break;
                        }
                    }
                }
                SimOutcome::Completed { byte_exact }
            }
            Some(RawOutcome::Failed(e)) => match e {
                NodeError::SuppliersLost { missing } => SimOutcome::SuppliersLost { missing },
                NodeError::IncompleteStream { received, expected } => {
                    SimOutcome::Incomplete { received, expected }
                }
                other => SimOutcome::ProtocolError(other.to_string()),
            },
            None => match (self.rejected, &self.driver) {
                // The round was rejected: the queue drained after the
                // releases and reminders landed — the structured end.
                (Some(reminders), _) => SimOutcome::Rejected { reminders },
                (None, Some(driver)) => SimOutcome::Stalled {
                    received: driver.machine().received(),
                    expected: driver.machine().total_segments(),
                },
                // Admission never resolved — a harness bug by
                // construction (every lane replies or dies).
                (None, None) => SimOutcome::Stalled {
                    received: 0,
                    expected: self.file.info().segment_count(),
                },
            },
        };
        self.trace.record(T_OUTCOME, &[outcome.tag()]);
        SimReport {
            seed: self.schedule.seed,
            scenario: self.schedule.scenario,
            outcome,
            trace_hash: self.trace.digest(),
            events: self.events,
            segments_delivered: self.segments_delivered,
            bytes_on_wire: self.bytes_on_wire,
            replans: self.replans,
            deaths: self.deaths,
            grants: self.grants,
            denials: self.denials,
            reminders: self.reminders,
            recorder: self.recorder.events(),
        }
    }

    /// Records `ev` into the flight recorder (virtual-clock stamped) and
    /// folds it into the trace digest: the recorder stream is part of
    /// the determinism contract, so a divergence in *what the session
    /// observed* breaks the seed sweep even when the wire bytes agree.
    fn event(&mut self, ev: SessionEvent) {
        let (a, b) = ev.fields();
        self.recorder.record_at(self.now, ev.code(), a, b);
        self.trace
            .record(T_EVENT, &[self.now, u64::from(ev.code()), a, b]);
    }

    /// Schedules `ev` at virtual time `at` (tie-broken by push order).
    fn push(&mut self, at: u64, ev: Event) {
        self.seq += 1;
        self.queue.push(Scheduled {
            at,
            seq: self.seq,
            ev,
        });
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::SupplierTick { lane } => self.tick(lane),
            Event::Deliver {
                lane,
                dir: Dir::ToRequester,
                chunk,
            } => self.deliver_to_requester(lane, &chunk),
            Event::Deliver {
                lane,
                dir: Dir::ToSupplier,
                chunk,
            } => self.deliver_to_supplier(lane, &chunk),
            Event::Closed { lane } => self.closed(lane),
            Event::Die { lane } => self.die(lane),
        }
    }

    /// Fragments `bytes` at arbitrary boundaries and schedules each
    /// chunk's FIFO delivery over the lane's link.
    fn send_stream(&mut self, lane: usize, dir: Dir, bytes: &[u8]) {
        self.bytes_on_wire += bytes.len() as u64;
        let max_chunk = self.schedule.max_chunk.max(1);
        let mut off = 0;
        while off < bytes.len() {
            let cap = (bytes.len() - off).min(max_chunk);
            let take = if cap == 1 {
                1
            } else {
                self.rng.gen_range(1..=cap)
            };
            let chunk = bytes[off..off + take].to_vec();
            off += take;
            let at = self.links[lane][dir as usize].send(self.now, chunk.len(), &mut self.rng);
            self.push(at, Event::Deliver { lane, dir, chunk });
        }
    }

    /// Executes the admission driver's queued transport actions and acts
    /// on its verdict: admitted rounds plan and start streaming,
    /// rejected rounds record the structured end (their releases and
    /// reminders are already on the wire).
    fn pump_admission(&mut self) {
        let Some(mut adm) = self.adm.take() else {
            return;
        };
        while let Some(action) = adm.pop_action() {
            match action {
                AdmissionAction::Send { lane, msg } => {
                    self.trace
                        .record(T_ADM_TX, &[self.now, lane as u64, adm_code(&msg)]);
                    match &msg {
                        Message::StreamRequest { .. } => {
                            self.event(SessionEvent::AdmissionRequest { lane: lane as u64 })
                        }
                        Message::Reminder { .. } => {
                            self.event(SessionEvent::AdmissionReminder { lane: lane as u64 })
                        }
                        _ => {}
                    }
                    let bytes = wire_bytes(&msg);
                    self.send_stream(lane, Dir::ToSupplier, &bytes);
                }
                AdmissionAction::Close { lane } => {
                    self.trace.record(T_CLOSED, &[self.now, lane as u64]);
                    self.lane_open[lane] = false;
                }
            }
        }
        match adm.verdict().clone() {
            AdmissionVerdict::Pending => self.adm = Some(adm),
            AdmissionVerdict::Admitted { granted } => self.begin_streaming(&granted),
            AdmissionVerdict::Rejected { reminders, .. } => {
                self.rejected = Some(reminders.len() as u64);
            }
        }
    }

    /// The round admitted: run the real policy over the granted classes,
    /// build the [`SessionDriver`], and open every granted lane with its
    /// `StartSession` — the sim's copy of the reactor's adopted-lane
    /// hand-off.
    fn begin_streaming(&mut self, granted: &[usize]) {
        let classes: Vec<PeerClass> = granted.iter().map(|&m| self.suppliers[m].class).collect();
        let total = self.file.info().segment_count();
        let dt_ms = self.schedule.dt_ms;
        let ctx = SessionContext::full(&classes, total).with_seed(self.session);
        let plan = self
            .policy
            .plan(&ctx)
            .expect("the default policy plans rate-matched mixes");
        assert_eq!(plan.slot_count(), classes.len(), "one slot per grant");

        // Driver lanes are the slots the policy actually used; a grant
        // the policy left empty is closed, like the reactor's Release.
        let mut lanes: Vec<(PeerClass, SessionPlan)> = Vec::new();
        for (slot, &mix_idx) in granted.iter().enumerate() {
            let segments = plan.slot(slot);
            if segments.is_empty() {
                self.lane_open[mix_idx] = false;
                continue;
            }
            self.driver_lane_of_mix[mix_idx] = Some(lanes.len());
            self.mix_of_driver_lane.push(mix_idx);
            lanes.push((
                classes[slot],
                SessionPlan {
                    item: self.file.info().name().to_owned(),
                    segments: segments.to_vec(),
                    period: plan.period(),
                    total_segments: total,
                    dt_ms: dt_ms as u32,
                },
            ));
        }

        let driver = SessionDriver::new(
            self.session,
            self.file.info().name(),
            total,
            dt_ms,
            self.policy.clone(),
            &lanes,
        );
        for (driver_lane, (_, plan)) in lanes.into_iter().enumerate() {
            let mix_idx = self.mix_of_driver_lane[driver_lane];
            if !self.lane_open[mix_idx] {
                continue; // granted, then died mid-round: failed below
            }
            self.event(SessionEvent::PlanSent {
                lane: mix_idx as u64,
                segments: plan.segments.len() as u64,
            });
            let bytes = wire_bytes(&Message::StartSession {
                session: self.session,
                plan,
            });
            self.send_stream(mix_idx, Dir::ToSupplier, &bytes);
        }
        self.driver = Some(driver);
        let step = self.driver.as_mut().expect("just set").status();
        self.apply(step);
        // A lane can grant and then die before the hand-off, with its
        // close observed while the round was still pending: the grant
        // stood (the fold keeps settled grants), but the transport is
        // gone. The reactor discovers exactly this on its first write to
        // the adopted connection; the sim fails those lanes here so the
        // driver replans their shares instead of waiting forever.
        for mix_idx in 0..self.lane_open.len() {
            if self.outcome.is_some() {
                break;
            }
            if let Some(driver_lane) = self.driver_lane_of_mix[mix_idx] {
                if !self.lane_open[mix_idx] {
                    let step = self
                        .driver
                        .as_mut()
                        .expect("just set")
                        .on_failure(driver_lane);
                    self.apply(step);
                }
            }
        }
    }

    /// Supplier pacing deadline: transmit the segment the machine says is
    /// due (one per tick — virtual time never runs late), or
    /// `EndSession` when its schedule (base + appends) is exhausted.
    fn tick(&mut self, lane: usize) {
        let s = &mut self.suppliers[lane];
        if !s.alive {
            return;
        }
        let session = self.session;
        match s.conn.on_timer(self.now * 1_000, 0, &mut s.adm) {
            Pace::Send(index) => {
                let next = s.conn.deadline_us().expect("still streaming") / 1_000;
                self.trace.record(T_SEND, &[self.now, lane as u64, index]);
                let payload = self.file.segment(index).into_payload();
                let bytes = wire_bytes(&Message::SegmentData {
                    session,
                    index,
                    payload,
                });
                self.send_stream(lane, Dir::ToRequester, &bytes);
                self.push(next.max(self.now), Event::SupplierTick { lane });
            }
            Pace::End => {
                let bytes = wire_bytes(&Message::EndSession { session });
                self.send_stream(lane, Dir::ToRequester, &bytes);
            }
            Pace::Wait(_) | Pace::Yield | Pace::Close => {}
        }
    }

    /// Bytes reach the requester: feed the lane's real decoder, then
    /// drive whichever phase the session is in — the admission driver
    /// before the verdict, the session driver after.
    fn deliver_to_requester(&mut self, lane: usize, chunk: &[u8]) {
        if !self.lane_open[lane] {
            return;
        }
        self.trace
            .record(T_CHUNK, &[self.now, lane as u64, 0, chunk.len() as u64]);
        self.req_decs[lane].feed(chunk);
        if self.adm.is_some() {
            self.admission_rx(lane);
            return;
        }
        while self.outcome.is_none() && self.lane_open[lane] {
            let Some(driver_lane) = self.driver_lane_of_mix[lane] else {
                return; // a lane the round never adopted (rejected tail)
            };
            match self.req_decs[lane].poll() {
                Ok(Some(Message::SegmentData {
                    session,
                    index,
                    payload,
                })) if session == self.session => {
                    self.segments_delivered += 1;
                    self.trace.record(
                        T_SEGMENT,
                        &[self.now, lane as u64, index, payload.len() as u64],
                    );
                    self.event(SessionEvent::SegmentArrived {
                        lane: lane as u64,
                        index,
                    });
                    let step = self.driver.as_mut().expect("streaming phase").on_segment(
                        driver_lane,
                        index,
                        payload,
                        self.now,
                    );
                    self.apply(step);
                }
                Ok(Some(Message::EndSession { session })) if session == self.session => {
                    self.trace.record(T_END, &[self.now, lane as u64]);
                    self.lane_open[lane] = false;
                    let step = self
                        .driver
                        .as_mut()
                        .expect("streaming phase")
                        .on_end(driver_lane);
                    self.apply(step);
                }
                Ok(None) => return,
                Ok(Some(_)) | Err(_) => {
                    // A frame this harness never sends, or a corrupt
                    // stream: the reactor treats both as a structured
                    // per-lane failure, so does the simulation.
                    self.lane_open[lane] = false;
                    let step = self
                        .driver
                        .as_mut()
                        .expect("streaming phase")
                        .on_failure(driver_lane);
                    self.apply(step);
                }
            }
        }
    }

    /// Admission-phase frames reaching the requester: `Grant`/`Deny`
    /// replies feed the admission driver's fold (anything else refuses
    /// the lane, inside the driver itself).
    fn admission_rx(&mut self, lane: usize) {
        while self.adm.is_some() && self.lane_open[lane] {
            match self.req_decs[lane].poll() {
                Ok(Some(msg)) => {
                    self.trace
                        .record(T_ADM_RX, &[self.now, lane as u64, adm_code(&msg)]);
                    match &msg {
                        Message::Grant { .. } => {
                            self.event(SessionEvent::AdmissionGrant { lane: lane as u64 })
                        }
                        Message::Deny { .. } => {
                            self.event(SessionEvent::AdmissionDeny { lane: lane as u64 })
                        }
                        _ => {}
                    }
                    let mut adm = self.adm.take().expect("checked above");
                    adm.on_message(lane, &msg);
                    self.adm = Some(adm);
                    self.pump_admission();
                }
                Ok(None) => return,
                Err(_) => {
                    self.lane_open[lane] = false;
                    let mut adm = self.adm.take().expect("checked above");
                    adm.on_lane_error(lane);
                    self.adm = Some(adm);
                    self.pump_admission();
                    return;
                }
            }
        }
    }

    /// Admission, setup and replan bytes reach a supplier: decode with
    /// the real decoder and let the real machine answer. The handshake
    /// deadlines it asks for are not scheduled — no simulated peer goes
    /// quiet for [`GRANT_TTL_MS`](p2ps_proto::GRANT_TTL_MS), it answers
    /// or dies — so only a started stream's first §3 deadline becomes an
    /// event.
    fn deliver_to_supplier(&mut self, lane: usize, chunk: &[u8]) {
        if !self.suppliers[lane].alive {
            return;
        }
        self.trace
            .record(T_CHUNK, &[self.now, lane as u64, 1, chunk.len() as u64]);
        self.suppliers[lane].dec.feed(chunk);
        while let Ok(Some(msg)) = self.suppliers[lane].dec.poll() {
            match &msg {
                Message::StartSession { plan, .. } => self.trace.record(
                    T_START,
                    &[self.now, lane as u64, plan.segments.len() as u64],
                ),
                Message::Reminder { .. } => {
                    self.reminders += 1;
                    self.trace
                        .record(T_ADM_RX, &[self.now, lane as u64, adm_code(&msg)]);
                }
                _ => {}
            }
            let s = &mut self.suppliers[lane];
            let step = s.conn.on_message(msg, self.now * 1_000, &mut s.adm);
            let first_tick = step.timer_us.filter(|_| s.conn.is_streaming());
            if let Some(reply) = step.reply {
                match reply {
                    Message::Grant { .. } => self.grants += 1,
                    _ => self.denials += 1,
                }
                self.trace
                    .record(T_ADM_TX, &[self.now, lane as u64, adm_code(&reply)]);
                let bytes = wire_bytes(&reply);
                self.send_stream(lane, Dir::ToRequester, &bytes);
            }
            if let Some(at_us) = first_tick {
                self.push(at_us / 1_000, Event::SupplierTick { lane });
            }
        }
    }

    /// A scheduled death: the dying supplier's next frame is cut at an
    /// arbitrary byte boundary (the truncated prefix still arrives,
    /// stressing the decoder), then the close lands on the same FIFO.
    fn die(&mut self, lane: usize) {
        if !self.suppliers[lane].alive {
            return;
        }
        self.suppliers[lane].alive = false;
        self.deaths += 1;
        self.trace.record(T_DIE, &[self.now, lane as u64]);
        let s = &mut self.suppliers[lane];
        let partial = s.conn.peek_unsent();
        s.conn.close(&mut s.adm);
        if let Some(seg) = partial {
            let bytes = wire_bytes(&Message::SegmentData {
                session: self.session,
                index: seg,
                payload: self.file.segment(seg).into_payload(),
            });
            let cut = self.rng.gen_range(0..bytes.len());
            if cut > 0 {
                self.send_stream(lane, Dir::ToRequester, &bytes[..cut]);
            }
        }
        let at = self.links[lane][Dir::ToRequester as usize].send(self.now, 0, &mut self.rng);
        self.push(at + 1, Event::Closed { lane });
    }

    /// The requester observes a lane's connection close — a mid-round
    /// death settles the admission lane, a mid-stream one fails the
    /// session lane.
    fn closed(&mut self, lane: usize) {
        if !self.lane_open[lane] {
            return;
        }
        self.trace.record(T_CLOSED, &[self.now, lane as u64]);
        self.lane_open[lane] = false;
        if self.adm.is_some() {
            let mut adm = self.adm.take().expect("checked above");
            adm.on_lane_error(lane);
            self.adm = Some(adm);
            self.pump_admission();
            return;
        }
        if let Some(driver_lane) = self.driver_lane_of_mix[lane] {
            let step = self
                .driver
                .as_mut()
                .expect("streaming phase")
                .on_failure(driver_lane);
            self.apply(step);
        }
    }

    /// Executes a [`DriverStep`], shipping replanned shares back over
    /// the wire exactly as the reactor does.
    fn apply(&mut self, step: DriverStep) {
        match step {
            DriverStep::Continue => {}
            DriverStep::Replanned(plans) => {
                self.replans += plans.len() as u64;
                for (driver_lane, plan) in plans {
                    let mix_idx = self.mix_of_driver_lane[driver_lane];
                    self.trace.record(
                        T_REPLAN,
                        &[self.now, mix_idx as u64, plan.segments.len() as u64],
                    );
                    self.event(SessionEvent::Replanned {
                        lane: mix_idx as u64,
                        segments: plan.segments.len() as u64,
                    });
                    let bytes = wire_bytes(&Message::StartSession {
                        session: self.session,
                        plan,
                    });
                    self.send_stream(mix_idx, Dir::ToSupplier, &bytes);
                }
            }
            DriverStep::Complete => {
                self.event(SessionEvent::Completed {
                    received: self.segments_delivered,
                });
                self.outcome = Some(RawOutcome::Complete);
            }
            DriverStep::Failed(e) => {
                if let NodeError::SuppliersLost { missing } = &e {
                    let missing = *missing;
                    self.event(SessionEvent::GaveUp { missing });
                }
                self.outcome = Some(RawOutcome::Failed(e));
            }
            _ => unreachable!("non-exhaustive DriverStep grew a variant"),
        }
    }
}
