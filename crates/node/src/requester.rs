//! Requester side: session planning and the reactor-hosted session.
//!
//! The §4.2 admission handshake itself is reactor-hosted too (see
//! [`crate::admission_host`]): every candidate lane is probed
//! concurrently by a sans-io
//! [`AdmissionDriver`](p2ps_proto::AdmissionDriver), so the caller's
//! thread never blocks on a slow candidate. Once the round is admitted,
//! [`plan_session`] runs the [`SelectionPolicy`] over the granted
//! classes and the already-adopted connections transition straight into
//! a receiving session ([`ReqSessions::start_adopted`]) where a sans-io
//! [`RequesterSession`] state machine receives the paced stream —
//! **no reader threads, no blocking reads**. One reactor thread hosts any
//! number of receiving sessions; a [`ReactorPool`](p2ps_net::ReactorPool)
//! spreads them across cores by session hash.
//!
//! Mid-stream supplier loss is a structured per-supplier event, not a
//! session abort: the lost supplier's undelivered share feeds
//! [`SelectionPolicy::replan`] over the survivors, and the recovered
//! shares ride the wire as *explicit* `SessionPlan`s that surviving
//! suppliers append to their schedules. Only when no survivor remains
//! (or a replan cannot cover the gap) does the session fail, with
//! [`NodeError::SuppliersLost`].

use std::collections::HashMap;
use std::sync::mpsc::Sender;

use p2ps_core::PeerClass;
use p2ps_media::{MediaInfo, Segment, SegmentStore};
use p2ps_monitor::{monotonic_ms, Counter, Gauge, Monitor, Recorder, StateCell};
use p2ps_net::{ConnId, Ctx};
use p2ps_policy::{SelectionPolicy, SessionContext, SharedPolicy};
use p2ps_proto::{FrameDecoder, Message, RequesterSession, SessionEvent, SessionPlan};

use crate::serve::send;
use crate::{DriverStep, NodeError, SessionDriver, StreamOutcome};

/// A supplier that goes quiet for this long mid-stream is treated as
/// departed. One read timer per lane sits on the reactor wheel: inbound
/// bytes only move the lane's `last_ms`, and the timer, when it fires,
/// re-arms itself for what is left of the quiet period.
const STREAM_READ_TIMEOUT_MS: u64 = 30_000;

/// The requester-side read-progress timer kind.
const K_REQ_READ: u32 = 0;

/// How many watchdog-driven recovery rounds a session may burn without a
/// single segment arriving before it is written off as
/// [`NodeError::SuppliersLost`]. Any real segment arrival resets the
/// budget — the bound caps *fruitless* recoveries, not lifetime ones.
const MAX_RECOVERY_ATTEMPTS: u32 = 3;

/// Every state a session probe can report: the four
/// [`SessionPhase`](p2ps_proto::SessionPhase) names plus the watchdog's
/// `stalled` verdict.
const SESSION_STATES: &[&str] = &[
    "probing",
    "streaming",
    "reassembling",
    "complete",
    "stalled",
];

/// One session's monitor scope: the gauges and state cell the status
/// endpoint and the stall watchdog read.
///
/// Created on the caller's thread *before* admission (so the `probing`
/// phase is visible while the §4.2 handshake runs) and carried into the
/// reactor with the admission launch. The handles keep the
/// `reactor={shard} / session={id}` scope alive; dropping the probe —
/// admission failure, session finish — removes the subtree from
/// subsequent snapshots. Every update is a relaxed atomic store.
pub(crate) struct SessionProbe {
    state: StateCell,
    received: Gauge,
    total: Gauge,
    owed: Gauge,
    /// [`monotonic_ms`] of the last received segment (or of launch).
    last_progress_ms: Gauge,
    /// Worst-case healthy ms between consecutive segments (§3: the
    /// largest per-supplier `spp · δt` stride in the plan).
    stride_ms: Gauge,
    bytes_received: Counter,
    /// How far the start-up delay the arrivals so far demand
    /// (`max_s(arrival_s − s·δt)`) is past Theorem 1's `n·δt`, in µs;
    /// negative until the segment that sets the delay has arrived.
    startup_lateness_us: Gauge,
    /// The session's flight recorder: the structured protocol timeline
    /// (`p2ps_proto::SessionEvent` codes) served as `/trace/<session>`.
    events: Recorder,
}

impl SessionProbe {
    /// Registers the session's scope under the reactor shard that will
    /// host it.
    pub(crate) fn register(monitor: &Monitor, shard: usize, session: u64) -> SessionProbe {
        let scope = monitor.child("reactor", shard).child("session", session);
        let probe = SessionProbe {
            state: scope.state("state", "session lifecycle phase", SESSION_STATES),
            received: scope.gauge("received_segments", "segments received so far"),
            total: scope.gauge("total_segments", "segments the session must deliver"),
            owed: scope.gauge(
                "owed_segments",
                "segments still owed by streaming suppliers",
            ),
            last_progress_ms: scope.gauge(
                "last_progress_ms",
                "monotonic ms of the last received segment (or of launch)",
            ),
            stride_ms: scope.gauge(
                "stride_ms",
                "worst-case healthy ms between consecutive segments",
            ),
            bytes_received: scope.counter("bytes_received_total", "segment payload bytes received"),
            startup_lateness_us: scope.gauge(
                "startup_lateness_us",
                "start-up delay demanded by the arrivals so far minus Theorem 1's n*dt, in us",
            ),
            events: scope.events("events", "structured protocol events recorded"),
        };
        probe.last_progress_ms.set(monotonic_ms() as i64);
        probe
    }

    /// The session's flight recorder (the admission host records the
    /// §4.2 handshake through it too).
    pub(crate) fn record(&self, ev: SessionEvent) {
        record(&self.events, ev);
    }

    /// The reactor adopted the lanes: record the plan's worst stride and
    /// reset the progress clock so the watchdog measures from launch.
    fn launched(&self, sm: &RequesterSession, stride_ms: u64, theoretical_us: u64) {
        self.stride_ms.set(stride_ms as i64);
        self.startup_lateness_us.set(-(theoretical_us as i64));
        self.last_progress_ms.set(monotonic_ms() as i64);
        self.sync(sm);
    }

    /// Segments arrived: refresh every per-session row, once per read
    /// burst however many segments it carried. Also the stall *recovery*
    /// path — the state write moves a `stalled` session back to its live
    /// phase.
    fn progress(&self, sm: &RequesterSession, payload_bytes: u64) {
        self.bytes_received.add(payload_bytes);
        self.last_progress_ms.set(monotonic_ms() as i64);
        self.sync(sm);
    }

    /// A segment arrived for the first time, `lateness_us` past its
    /// play-out offset `s·δt`.
    fn arrived(&self, lateness_us: u64, theoretical_us: u64) {
        let past = lateness_us as i64 - theoretical_us as i64;
        // Only the hosting reactor thread writes this gauge.
        if past > self.startup_lateness_us.get() {
            self.startup_lateness_us.set(past);
        }
    }

    /// Re-publishes phase, received and owed after any state-machine
    /// transition (lane end, failure, replan).
    fn sync(&self, sm: &RequesterSession) {
        self.received.set(sm.received() as i64);
        self.total.set(sm.total_segments() as i64);
        self.owed.set(sm.owed_total() as i64);
        self.state.set(sm.phase().name());
    }
}

/// Encodes one [`SessionEvent`] into a flight-recorder ring.
fn record(events: &Recorder, ev: SessionEvent) {
    let (a, b) = ev.fields();
    events.record(ev.code(), a, b);
}

/// What a finished reactor-hosted session delivers back to the caller.
pub(crate) type SessionResult = Result<FinishedSession, NodeError>;

/// A completed session as the reactor left it: the reassembly machine
/// with every payload and arrival time (µs since launch), plus what the
/// outcome report needs. The reactor only moves it into the result
/// channel; [`into_outcome`](Self::into_outcome) — building the store and
/// folding the arrivals into the start-up delay — runs on the thread that
/// waits for the session.
pub(crate) struct FinishedSession {
    info: MediaInfo,
    machine: RequesterSession,
    supplier_classes: Vec<PeerClass>,
    theoretical_delay_ms: u64,
    /// Reactor time from launch to the last segment.
    duration_ms: u64,
}

impl FinishedSession {
    /// Builds the outcome + store.
    pub(crate) fn into_outcome(self) -> (StreamOutcome, SegmentStore) {
        let dt_ms = self.info.segment_duration().as_millis();
        let mut store = SegmentStore::new(self.machine.total_segments());
        // The smallest delay under which playback would have been smooth,
        // as `PlaybackBuffer::min_feasible_delay_ms` defines it: the
        // machine kept each segment's earliest arrival.
        let mut measured_delay_us = 0;
        for (index, entry) in self.machine.into_segments().into_iter().enumerate() {
            if let Some((payload, at_us)) = entry {
                measured_delay_us = measured_delay_us.max(lateness_us(at_us, index as u64, dt_ms));
                store.insert(Segment::new(index as u64, payload));
            }
        }
        let outcome = StreamOutcome {
            supplier_count: self.supplier_classes.len(),
            supplier_classes: self.supplier_classes,
            measured_delay_us,
            measured_delay_ms: measured_delay_us / 1_000,
            theoretical_delay_ms: self.theoretical_delay_ms,
            duration_ms: self.duration_ms,
        };
        (outcome, store)
    }
}

/// How long after its play-out offset `index · δt` a segment arrived
/// (`at_us` since launch) — what it alone demands of the start-up delay.
fn lateness_us(at_us: u64, index: u64, dt_ms: u64) -> u64 {
    at_us.saturating_sub(index * dt_ms * 1_000)
}

/// One granted supplier ready for session launch: its already-adopted
/// connection and the wire plan the reactor will send as `StartSession`.
pub(crate) struct AdoptedLane {
    pub class: PeerClass,
    /// `None` when the lane's connection died between grant and
    /// hand-off; the lane is marked dead at launch and replanned like
    /// any other loss.
    pub conn: Option<ConnId>,
    pub plan: SessionPlan,
}

/// An admitted, planned session ready to start receiving — produced by
/// the admission host once the §4.2 round settles, consumed by
/// [`ReqSessions::start_adopted`] on the same reactor shard.
pub(crate) struct ReadyLaunch {
    pub session: u64,
    pub info: MediaInfo,
    pub policy: SharedPolicy,
    pub lanes: Vec<AdoptedLane>,
    /// The plan's minimum feasible delay in slots of `δt` (Theorem 1 for
    /// `Otsp2p`), for the outcome report.
    pub theoretical_slots: u64,
    /// The session's monitor scope, registered by the caller while
    /// probing.
    pub probe: SessionProbe,
    pub done: Sender<SessionResult>,
}

/// Runs the [`SelectionPolicy`] over the granted classes: one
/// `SessionPlan` per supplier slot (`None` when the policy left that
/// grant unused — its reservation must be released), plus the plan's
/// theoretical delay.
///
/// With the default `Otsp2p` policy the emitted `SessionPlan`s are
/// byte-identical to the pre-policy code path (the plan *is* the §3
/// assignment, back-mapped to the granted order); other policies ship
/// explicit one-shot plans over the same wire format.
pub(crate) fn plan_session(
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

    let mut slot_plans: Vec<Option<SessionPlan>> = Vec::with_capacity(classes.len());
    for slot in 0..classes.len() {
        let segments = plan.slot(slot);
        if segments.is_empty() {
            slot_plans.push(None);
            continue;
        }
        slot_plans.push(Some(SessionPlan {
            item: info.name().to_owned(),
            segments: segments.to_vec(),
            period: plan.period(),
            total_segments: info.segment_count(),
            dt_ms: dt_ms as u32,
        }));
    }
    if slot_plans.iter().all(Option::is_none) {
        return Err(NodeError::Protocol(format!(
            "policy '{}' assigned no segments to any supplier",
            policy.name()
        )));
    }
    Ok((slot_plans, theoretical_slots))
}

/// One reactor-hosted receiving session: the transport-agnostic
/// [`SessionDriver`] plus the connection bookkeeping around it. All
/// streaming *decisions* (replan routing, completion, failure) live in
/// the driver — this struct only maps lanes to reactor connections and
/// ships what the driver says to ship.
struct ReqSession {
    info: MediaInfo,
    driver: SessionDriver,
    /// Lane → live connection (None once ended or failed).
    lane_conns: Vec<Option<ConnId>>,
    /// The plan's minimum feasible delay (Theorem 1's `n·δt` for
    /// `Otsp2p`), in ms.
    theoretical_delay_ms: u64,
    /// Reactor time of the launch, in µs: segment arrivals are recorded
    /// relative to it.
    start_us: u64,
    /// Watchdog-driven recovery rounds burned since the last segment
    /// arrival (any arrival resets it; `MAX_RECOVERY_ATTEMPTS` caps it).
    recovery_attempts: u32,
    probe: SessionProbe,
    done: Sender<SessionResult>,
}

/// A requester-side connection's reactor bookkeeping.
struct ReqConn {
    session: u64,
    lane: usize,
    dec: FrameDecoder,
    /// Reactor time of the lane's last inbound bytes (or of launch):
    /// per-lane staleness for stall recovery's pick-the-worst-lane step.
    last_ms: u64,
}

/// All receiving sessions hosted on one reactor shard. Owned by the
/// node's serve handler; every callback is dispatched here when the
/// connection belongs to a requester lane.
#[derive(Default)]
pub(crate) struct ReqSessions {
    sessions: HashMap<u64, ReqSession>,
    conns: HashMap<ConnId, ReqConn>,
}

impl ReqSessions {
    /// Whether `conn` is a requester-side connection on this shard.
    pub(crate) fn owns(&self, conn: ConnId) -> bool {
        self.conns.contains_key(&conn)
    }

    /// Hosts a new session over connections the admission phase already
    /// adopted: sends each lane's `StartSession` and arms the read
    /// timers (replacing the admission-phase timer in place — same
    /// kind). Lanes that lost their connection between grant and
    /// hand-off are immediate departures (replanned like any other
    /// loss).
    pub(crate) fn start_adopted(&mut self, ctx: &mut Ctx<'_>, launch: ReadyLaunch) {
        let ReadyLaunch {
            session,
            info,
            policy,
            lanes,
            theoretical_slots,
            probe,
            done,
        } = launch;
        let dt_ms = info.segment_duration().as_millis();
        let mut specs = Vec::with_capacity(lanes.len());
        let mut conns = Vec::with_capacity(lanes.len());
        for lane in lanes {
            specs.push((lane.class, lane.plan));
            conns.push(lane.conn);
        }
        let mut driver = SessionDriver::new(
            session,
            info.name(),
            info.segment_count(),
            dt_ms,
            policy,
            &specs,
        );
        let mut lane_conns = Vec::with_capacity(conns.len());
        let mut dead_lanes = Vec::new();
        let start_us = ctx.now_us();
        for (lane_idx, conn) in conns.into_iter().enumerate() {
            match conn {
                Some(conn) => {
                    self.conns.insert(
                        conn,
                        ReqConn {
                            session,
                            lane: lane_idx,
                            dec: FrameDecoder::new(),
                            last_ms: start_us / 1_000,
                        },
                    );
                    probe.record(SessionEvent::PlanSent {
                        lane: lane_idx as u64,
                        segments: specs[lane_idx].1.segments.len() as u64,
                    });
                    send(
                        ctx,
                        conn,
                        &Message::StartSession {
                            session,
                            plan: specs[lane_idx].1.clone(),
                        },
                    );
                    ctx.set_timer(conn, K_REQ_READ, STREAM_READ_TIMEOUT_MS);
                    lane_conns.push(Some(conn));
                }
                None => {
                    // Mark every doomed lane dead *before* settling any of
                    // them, so the first replan does not count the others
                    // as survivors.
                    driver.mark_dead(lane_idx);
                    lane_conns.push(None);
                    dead_lanes.push(lane_idx);
                }
            }
        }
        let theoretical_delay_ms = theoretical_slots * dt_ms;
        probe.launched(
            driver.machine(),
            driver.stride_ms(),
            theoretical_delay_ms * 1_000,
        );
        self.sessions.insert(
            session,
            ReqSession {
                info,
                driver,
                lane_conns,
                theoretical_delay_ms,
                start_us,
                recovery_attempts: 0,
                probe,
                done,
            },
        );
        for lane in dead_lanes {
            self.fail_lane(ctx, session, lane);
        }
        if let Some(sess) = self.sessions.get(&session) {
            // A zero-segment file is complete right at launch.
            let step = sess.driver.status();
            self.apply(ctx, session, step);
        }
    }

    /// Bytes arrived on a requester connection.
    pub(crate) fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        let Some(mut rc) = self.conns.remove(&conn) else {
            return;
        };
        rc.last_ms = ctx.now_ms();
        rc.dec.feed(data);
        // Payload bytes of the segments this burst delivered; `Some` once
        // one arrived. The probe's gauges are published once per burst.
        let mut burst_bytes = None;
        let flow = loop {
            match rc.dec.poll() {
                Ok(Some(msg)) => match self.on_message(ctx, conn, &rc, msg, &mut burst_bytes) {
                    LaneFlow::Keep => {}
                    LaneFlow::Settled => break LaneFlow::Settled,
                },
                Ok(None) => break LaneFlow::Keep,
                Err(_) => {
                    // Corrupt stream: a structured per-supplier failure,
                    // not a session abort.
                    self.close_lane_conn(ctx, &rc, conn);
                    self.fail_lane(ctx, rc.session, rc.lane);
                    break LaneFlow::Settled;
                }
            }
        };
        if let (Some(bytes), Some(sess)) = (burst_bytes, self.sessions.get(&rc.session)) {
            sess.probe.progress(sess.driver.machine(), bytes);
        }
        if matches!(flow, LaneFlow::Keep) {
            self.conns.insert(conn, rc);
        }
    }

    /// The lane's read timer fired: the supplier went quiet, unless bytes
    /// arrived since the timer was armed — then it waits out the rest.
    pub(crate) fn on_timer(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _kind: u32) {
        let Some(rc) = self.conns.get(&conn) else {
            return;
        };
        let quiet_ms = ctx.now_ms().saturating_sub(rc.last_ms);
        if quiet_ms < STREAM_READ_TIMEOUT_MS {
            ctx.set_timer(conn, K_REQ_READ, STREAM_READ_TIMEOUT_MS - quiet_ms);
            return;
        }
        let Some(rc) = self.conns.remove(&conn) else {
            return;
        };
        self.close_lane_conn(ctx, &rc, conn);
        self.fail_lane(ctx, rc.session, rc.lane);
    }

    /// The supplier's connection dropped (peer close or I/O error).
    pub(crate) fn on_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let Some(rc) = self.conns.remove(&conn) else {
            return;
        };
        if let Some(sess) = self.sessions.get_mut(&rc.session) {
            sess.lane_conns[rc.lane] = None;
        }
        self.fail_lane(ctx, rc.session, rc.lane);
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: ConnId,
        rc: &ReqConn,
        msg: Message,
        burst_bytes: &mut Option<u64>,
    ) -> LaneFlow {
        let Some(sess) = self.sessions.get_mut(&rc.session) else {
            ctx.close(conn);
            return LaneFlow::Settled;
        };
        match msg {
            Message::SegmentData {
                session,
                index,
                payload,
            } if session == rc.session => {
                let at_us = ctx.now_us() - sess.start_us;
                *burst_bytes.get_or_insert(0) += payload.len() as u64;
                let had = sess.driver.machine().received();
                let step = sess.driver.on_segment(rc.lane, index, payload, at_us);
                if sess.driver.machine().received() > had {
                    sess.probe.arrived(
                        lateness_us(at_us, index, sess.driver.dt_ms()),
                        sess.theoretical_delay_ms * 1_000,
                    );
                }
                // Real progress pays back the recovery budget.
                sess.recovery_attempts = 0;
                sess.probe.record(SessionEvent::SegmentArrived {
                    lane: rc.lane as u64,
                    index,
                });
                if matches!(step, DriverStep::Complete) {
                    self.finish(ctx, rc.session, None);
                    return LaneFlow::Settled;
                }
                LaneFlow::Keep
            }
            Message::EndSession { session } if session == rc.session => {
                sess.lane_conns[rc.lane] = None;
                ctx.close(conn);
                let step = sess.driver.on_end(rc.lane);
                sess.probe.sync(sess.driver.machine());
                self.apply(ctx, rc.session, step);
                LaneFlow::Settled
            }
            _ => {
                // Anything else mid-stream is a protocol violation by this
                // supplier alone.
                self.close_lane_conn(ctx, rc, conn);
                self.fail_lane(ctx, rc.session, rc.lane);
                LaneFlow::Settled
            }
        }
    }

    /// Marks the lane's connection gone (map + session + socket).
    fn close_lane_conn(&mut self, ctx: &mut Ctx<'_>, rc: &ReqConn, conn: ConnId) {
        if let Some(sess) = self.sessions.get_mut(&rc.session) {
            sess.lane_conns[rc.lane] = None;
        }
        ctx.close(conn);
    }

    /// A supplier was lost: the driver collects what it owed and replans
    /// onto the survivors; this side ships the verdict.
    fn fail_lane(&mut self, ctx: &mut Ctx<'_>, session: u64, lane: usize) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        if let Some(conn) = sess.lane_conns[lane].take() {
            self.conns.remove(&conn);
            ctx.close(conn);
        }
        let step = sess.driver.on_failure(lane);
        sess.probe.sync(sess.driver.machine());
        self.apply(ctx, session, step);
    }

    /// Watchdog-escalated stall recovery: fail the *stalest* live lane
    /// and let the ordinary loss path replan its share over the
    /// survivors — the same [`SelectionPolicy::replan`] route a
    /// connection drop takes, so recovery exercises no special machinery.
    ///
    /// One attempt settles exactly one lane. At session-stall time every
    /// live lane has been quiet past the watchdog bound (healthy lanes
    /// that drained their schedule ended cleanly and are no longer
    /// live), so the oldest `last_ms` points at the supplier most likely
    /// wedged; the survivors get its share and the session flips back to
    /// `streaming` while the new plan ships. If segments still don't
    /// arrive the watchdog re-flags and the next attempt fails the next
    /// stalest lane — bounded by [`MAX_RECOVERY_ATTEMPTS`] fruitless
    /// rounds, after which the session fails with
    /// [`NodeError::SuppliersLost`].
    ///
    /// Spurious escalations (progress resumed between the flag and this
    /// command, or the session already finished) are ignored without
    /// burning an attempt.
    pub(crate) fn recover(
        &mut self,
        ctx: &mut Ctx<'_>,
        session: u64,
        grace_ms: u64,
        recoveries: &Counter,
        giveups: &Counter,
    ) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return; // already finished — the flag raced the outcome
        };
        let now = ctx.now_ms();
        let quiet_bound = sess.driver.stride_ms() + grace_ms;
        // The stalest live lane: oldest last inbound bytes, and only if
        // genuinely quiet past the watchdog's own bound.
        let stalest = self
            .conns
            .values()
            .filter(|rc| rc.session == session)
            .filter(|rc| now.saturating_sub(rc.last_ms) > quiet_bound)
            .min_by_key(|rc| rc.last_ms)
            .map(|rc| rc.lane);
        let Some(lane) = stalest else {
            return; // every lane spoke recently: nothing to cut loose
        };
        sess.recovery_attempts += 1;
        let attempt = sess.recovery_attempts;
        let outstanding = sess.driver.machine().total_segments() - sess.driver.machine().received();
        // Clone the recorder handle first: the give-up paths below tear
        // the session (and its probe) down, and the terminal event must
        // still land in the ring any held snapshot shares.
        let events = sess.probe.events.clone();
        record(
            &events,
            SessionEvent::RecoveryStarted {
                lane: lane as u64,
                attempt: u64::from(attempt),
            },
        );
        if attempt > MAX_RECOVERY_ATTEMPTS {
            giveups.incr();
            record(
                &events,
                SessionEvent::GaveUp {
                    missing: outstanding,
                },
            );
            self.finish(
                ctx,
                session,
                Some(NodeError::SuppliersLost {
                    missing: outstanding,
                }),
            );
            return;
        }
        self.fail_lane(ctx, session, lane);
        if self.sessions.contains_key(&session) {
            // Survivors absorbed the share: the session is recovering.
            recoveries.incr();
            record(
                &events,
                SessionEvent::Recovered {
                    attempt: u64::from(attempt),
                },
            );
        } else {
            // The failed lane was the last hope: the loss path already
            // finished the session with its own verdict.
            giveups.incr();
            record(
                &events,
                SessionEvent::GaveUp {
                    missing: outstanding,
                },
            );
        }
    }

    /// Executes a [`DriverStep`]: ships replanned shares as explicit
    /// `StartSession`s (surviving suppliers append them to their running
    /// schedule and keep pacing at their class rate), finishes on
    /// `Complete`/`Failed`.
    fn apply(&mut self, ctx: &mut Ctx<'_>, session: u64, step: DriverStep) {
        match step {
            DriverStep::Continue => {}
            DriverStep::Replanned(plans) => {
                let Some(sess) = self.sessions.get_mut(&session) else {
                    return;
                };
                for (lane, plan) in plans {
                    let conn = sess.lane_conns[lane].expect("survivor has a live connection");
                    sess.probe.record(SessionEvent::Replanned {
                        lane: lane as u64,
                        segments: plan.segments.len() as u64,
                    });
                    send(ctx, conn, &Message::StartSession { session, plan });
                }
                sess.probe.sync(sess.driver.machine());
            }
            DriverStep::Complete => self.finish(ctx, session, None),
            DriverStep::Failed(e) => self.finish(ctx, session, Some(e)),
        }
    }

    /// Tears the session down and reports to the waiting caller.
    fn finish(&mut self, ctx: &mut Ctx<'_>, session: u64, err: Option<NodeError>) {
        let Some(mut sess) = self.sessions.remove(&session) else {
            return;
        };
        for conn in sess.lane_conns.iter_mut().filter_map(Option::take) {
            self.conns.remove(&conn);
            ctx.close(conn);
        }
        let result = match err {
            Some(e) => Err(e),
            None => {
                sess.probe.record(SessionEvent::Completed {
                    received: sess.driver.machine().received(),
                });
                let (machine, supplier_classes) = sess.driver.into_parts();
                Ok(FinishedSession {
                    info: sess.info,
                    machine,
                    supplier_classes,
                    theoretical_delay_ms: sess.theoretical_delay_ms,
                    // To the nearest ms, so that sums and differences of
                    // durations are not half a millisecond short each.
                    duration_ms: (ctx.now_us() - sess.start_us + 500) / 1_000,
                })
            }
        };
        // The session's scope leaves the monitor tree before the caller
        // can learn the outcome and look.
        drop(sess.probe);
        // The caller may have given up (dropped the receiver); that is
        // its prerogative, not an error here.
        let _ = sess.done.send(result);
    }
}

/// What to do with a requester connection after one message.
enum LaneFlow {
    /// Keep decoding on this connection.
    Keep,
    /// The connection's lane settled (ended, failed, or session over);
    /// maps are already updated and the conn must not be re-inserted.
    Settled,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use p2ps_core::assignment::SegmentDuration;

    /// The outcome is a pure function of what the reactor recorded,
    /// whichever thread builds it.
    #[test]
    fn a_finished_session_turns_into_the_outcome_the_reactor_measured() {
        let info = MediaInfo::new("clip", 4, SegmentDuration::from_millis(10), 3);
        let mut machine = RequesterSession::new(4);
        machine.add_supplier([0, 2]);
        machine.add_supplier([1, 3]);
        // Arrival minus play-out offset s·δt: 12.4, 15.0, 11.9, 18.25 ms
        // → 18,250 µs, 18 whole ms.
        for (lane, index, at_us) in [
            (0, 0, 12_400),
            (1, 1, 25_000),
            (0, 2, 31_900),
            (1, 3, 48_250),
        ] {
            machine.on_segment(lane, index, Bytes::from(vec![index as u8; 3]), at_us);
        }
        // A duplicate that comes later does not count: the earliest
        // arrival of a segment is the one playback waits for.
        machine.on_segment(0, 3, Bytes::from(vec![3u8; 3]), 90_000);
        let classes = vec![PeerClass::new(2).unwrap(), PeerClass::new(2).unwrap()];
        let finished = FinishedSession {
            info,
            machine,
            supplier_classes: classes.clone(),
            theoretical_delay_ms: 20,
            duration_ms: 48,
        };
        let (outcome, store) = finished.into_outcome();
        assert_eq!(
            outcome,
            StreamOutcome {
                supplier_count: 2,
                supplier_classes: classes,
                measured_delay_us: 18_250,
                measured_delay_ms: 18,
                theoretical_delay_ms: 20,
                duration_ms: 48,
            }
        );
        assert_eq!(store.len(), 4);
    }
}
