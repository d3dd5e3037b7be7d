//! Requester side: the reactor host of the requester machine.
//!
//! A requesting peer's whole session — the §4.2 probe of every candidate
//! at once, the §3 plan over the grants, the paced stream and any
//! replan after a supplier loss — is one sans-io
//! [`RequesterMachine`] (the same one `p2ps-simnet` hosts). This module
//! is only its adapter on a reactor shard: it adopts one connection per
//! candidate lane, decodes frames in, ships the machine's sends and
//! closes, arms the lanes' read timers, and publishes progress on the
//! session's monitor scope — **no reader threads, no blocking reads**.
//! One reactor thread hosts any number of sessions; a
//! [`ReactorPool`](p2ps_net::ReactorPool) spreads them across cores by
//! session hash.
//!
//! Mid-stream supplier loss is a structured per-supplier event, not a
//! session abort: the lost supplier's undelivered share feeds
//! [`SelectionPolicy::replan`](p2ps_policy::SelectionPolicy::replan) over
//! the survivors, and the recovered shares ride the wire as *explicit*
//! `SessionPlan`s that surviving suppliers append to their schedules.
//! Only when no survivor remains (or a replan cannot cover the gap) does
//! the session fail, with [`NodeError::SuppliersLost`].
//!
//! Each lane's one timer keeps a **progress deadline**, judged on whole
//! units of progress, never on bytes: a candidate must deliver a decoded
//! reply within [`ADMISSION_REPLY_TIMEOUT_MS`] of its `StreamRequest`,
//! and a streaming lane that still owes segments must deliver a new one
//! within the plan's stride plus the grace of the hand-off or of its last
//! one. A lane that owes nothing is not judged. A lane past its deadline
//! takes the loss path above, so a peer that freezes or dribbles bytes
//! costs its own lane and nothing else.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::mpsc::Sender;

use p2ps_core::PeerClass;
use p2ps_media::{MediaInfo, Segment, SegmentStore};
use p2ps_monitor::{monotonic_ms, Counter, Gauge, Monitor, Recorder, StateCell};
use p2ps_net::{ConnId, Ctx};
use p2ps_policy::SharedPolicy;
use p2ps_proto::{startup_term_us, Flow, FrameDecoder, Message, RequesterSession, SessionEvent};

use crate::serve::send;
use crate::{NodeError, RequesterAction, RequesterMachine, StreamOutcome};

/// How long a candidate has, from its `StreamRequest`, to deliver a whole
/// decoded reply before its lane settles as refused. Bytes that complete
/// no frame do not extend it: one frozen or dribbling candidate delays
/// the round by at most this much (and only when it precedes the
/// deciding prefix in class order).
const ADMISSION_REPLY_TIMEOUT_MS: u64 = 2_000;

/// The requester lane's one timer: its progress deadline.
const K_LANE_DUE: u32 = 0;

/// Every state a session probe can report: the four
/// [`SessionPhase`](p2ps_proto::SessionPhase) names.
const SESSION_STATES: &[&str] = &["probing", "streaming", "reassembling", "complete"];

/// One session's monitor scope: the gauges and state cell the status
/// endpoint reads.
///
/// Created on the caller's thread *before* admission (so the `probing`
/// phase is visible while the §4.2 handshake runs) and carried into the
/// reactor with the [`RequestLaunch`]. The handles keep the
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

    /// Puts one [`SessionEvent`] on the session's flight recorder.
    fn record(&self, ev: SessionEvent) {
        let (a, b) = ev.fields();
        self.events.record(ev.code(), a, b);
    }

    /// The round admitted and the plan shipped: record the plan's worst
    /// stride and reset the progress clock to the hand-off.
    fn launched(&self, sm: &RequesterSession, stride_ms: u64, theoretical_us: u64) {
        self.stride_ms.set(stride_ms as i64);
        self.startup_lateness_us.set(-(theoretical_us as i64));
        self.last_progress_ms.set(monotonic_ms() as i64);
        self.sync(sm);
    }

    /// Segments of a planned share arrived: count their payload and move
    /// the progress clock, once per read burst however many segments it
    /// carried.
    fn progress(&self, payload_bytes: u64) {
        self.bytes_received.add(payload_bytes);
        self.last_progress_ms.set(monotonic_ms() as i64);
    }

    /// A segment arrived for the first time, demanding `term_us` of the
    /// start-up delay ([`startup_term_us`]).
    fn arrived(&self, term_us: u64, theoretical_us: u64) {
        let past = term_us as i64 - theoretical_us as i64;
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

/// What a finished reactor-hosted session delivers back to the caller.
pub(crate) type SessionResult = Result<FinishedSession, NodeError>;

/// A completed session as the reactor left it: the reassembly machine
/// with every payload and arrival time (µs since the hand-off), plus what
/// the outcome report needs. The reactor only moves it into the result
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
        let dt_us = self.info.segment_duration().as_millis() * 1_000;
        let measured_delay_us = self
            .machine
            .startup_us(dt_us)
            .expect("a completed session holds every segment");
        let mut store = SegmentStore::new(self.machine.total_segments());
        for (index, entry) in self.machine.into_segments().into_iter().enumerate() {
            if let Some((payload, _)) = entry {
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

/// Everything a reactor shard needs to host one requester session.
pub(crate) struct RequestLaunch {
    pub session: u64,
    /// The requesting peer's class (sent in every `StreamRequest`).
    pub class: PeerClass,
    pub info: MediaInfo,
    pub policy: SharedPolicy,
    /// One advertised class per candidate lane.
    pub classes: Vec<PeerClass>,
    /// One connected stream per lane; `None` when the connect itself
    /// failed (the lane settles refused at start).
    pub streams: Vec<Option<TcpStream>>,
    /// The session's monitor scope, registered by the caller (phase
    /// `probing` while the round runs).
    pub probe: SessionProbe,
    pub done: Sender<SessionResult>,
}

/// One reactor-hosted session: the transport-agnostic
/// [`RequesterMachine`] plus the connection bookkeeping around it. Every
/// protocol *decision* — the §4.2 fold, the plan, replans, completion —
/// lives in the machine; this struct only maps its lanes to reactor
/// connections and ships what it says to ship.
struct ReqSession {
    machine: RequesterMachine,
    /// Candidate lane → live connection (None once closed).
    lane_conns: Vec<Option<ConnId>>,
    /// Candidate lane → its progress deadline in reactor ms; `None` while
    /// the lane owes nothing. The lane's timer is armed no later than it.
    due_ms: Vec<Option<u64>>,
    /// How long a streaming lane that owes segments may go without a new
    /// one: the plan's stride plus the grace. Set at the hand-off.
    bound_ms: u64,
    /// Reactor time of the hand-off to streaming, in µs: segment
    /// arrivals are recorded relative to it. `None` while probing.
    start_us: Option<u64>,
    /// Lanes cut for missing their deadline so far: the `attempt` number
    /// of the recovery events.
    stalls: u64,
    probe: SessionProbe,
    done: Sender<SessionResult>,
}

/// A requester-side connection's reactor bookkeeping.
struct ReqConn {
    session: u64,
    lane: usize,
    dec: FrameDecoder,
}

/// All requester sessions hosted on one reactor shard, from the first
/// `StreamRequest` to the last segment. Owned by the node's serve
/// handler; every callback is dispatched here when the connection
/// belongs to a requester lane.
pub(crate) struct ReqSessions {
    sessions: HashMap<u64, ReqSession>,
    conns: HashMap<ConnId, ReqConn>,
    /// Slack past the plan's stride before a streaming lane that owes
    /// segments is cut.
    grace_ms: u64,
    /// Streaming lanes cut for missing their progress deadline.
    stalls: Counter,
    /// Cuts whose share the surviving suppliers took over.
    recoveries: Counter,
    /// Cuts that ended the session.
    giveups: Counter,
}

impl ReqSessions {
    /// No sessions yet. The three stall counters live on `root`, where
    /// every shard's `new` finds the same ones, so the totals are
    /// process-wide.
    pub(crate) fn new(root: &Monitor, grace_ms: u64) -> ReqSessions {
        ReqSessions {
            sessions: HashMap::new(),
            conns: HashMap::new(),
            grace_ms,
            stalls: root.counter(
                "watchdog_stalls_total",
                "streaming lanes cut for missing their progress deadline",
            ),
            recoveries: root.counter(
                "watchdog_recoveries_total",
                "stalls whose share was replanned onto surviving suppliers",
            ),
            giveups: root.counter(
                "watchdog_giveups_total",
                "stalls that ended the session as SuppliersLost",
            ),
        }
    }

    /// Whether `conn` is a requester-side connection on this shard.
    pub(crate) fn owns(&self, conn: ConnId) -> bool {
        self.conns.contains_key(&conn)
    }

    /// Hosts a new session: adopts every lane's connection, arms its
    /// reply deadline and lets the machine burst the `StreamRequest`s. Lanes
    /// whose connect or adoption failed settle as refused. May resolve
    /// at once (no live candidate).
    pub(crate) fn start(&mut self, ctx: &mut Ctx<'_>, launch: RequestLaunch) {
        let RequestLaunch {
            session,
            class,
            info,
            policy,
            classes,
            streams,
            probe,
            done,
        } = launch;
        let mut machine = RequesterMachine::new(session, class, info, policy, &classes);
        let reply_due_ms = ctx.now_ms() + ADMISSION_REPLY_TIMEOUT_MS;
        let mut lane_conns = Vec::with_capacity(streams.len());
        let mut due_ms = Vec::with_capacity(streams.len());
        for (lane, stream) in streams.into_iter().enumerate() {
            match stream.map(|s| ctx.adopt(s)) {
                Some(Ok(conn)) => {
                    self.conns.insert(
                        conn,
                        ReqConn {
                            session,
                            lane,
                            dec: FrameDecoder::new(),
                        },
                    );
                    arm(ctx, conn, reply_due_ms);
                    lane_conns.push(Some(conn));
                    due_ms.push(Some(reply_due_ms));
                }
                Some(Err(_)) | None => {
                    machine.on_lane_closed(lane);
                    lane_conns.push(None);
                    due_ms.push(None);
                }
            }
        }
        machine.start();
        self.sessions.insert(
            session,
            ReqSession {
                machine,
                lane_conns,
                due_ms,
                bound_ms: 0,
                start_us: None,
                stalls: 0,
                probe,
                done,
            },
        );
        self.pump(ctx, session);
    }

    /// Bytes arrived on a requester connection.
    pub(crate) fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        let Some(mut rc) = self.conns.remove(&conn) else {
            return;
        };
        // The frames of one read arrived together: one clock reading
        // stamps them all.
        let now_us = ctx.now_us();
        rc.dec.feed(data);
        // Payload bytes of the planned-share segments this burst
        // delivered; `Some` once one arrived.
        let mut burst_bytes = None;
        while let Some(sess) = self.sessions.get_mut(&rc.session) {
            if sess.lane_conns[rc.lane] != Some(conn) {
                break; // the lane was closed, or the session is over
            }
            match rc.dec.poll() {
                Ok(Some(msg)) => {
                    let at_us = sess.start_us.map_or(0, |start| now_us - start);
                    let flow = match msg {
                        // Only a planned share's segments are progress: one
                        // from a lane still answering the round goes to the
                        // admission fold, which refuses the lane.
                        Message::SegmentData {
                            session,
                            index,
                            ref payload,
                        } if session == rc.session && sess.machine.streams_on(rc.lane) => {
                            *burst_bytes.get_or_insert(0) += payload.len() as u64;
                            sess.on_segment(ctx, rc.lane, index, msg, at_us, now_us / 1_000)
                        }
                        _ => {
                            if !sess.machine.streams_on(rc.lane) {
                                // The candidate answered the round: it owes
                                // nothing until the hand-off gives it a share.
                                sess.due_ms[rc.lane] = None;
                            }
                            sess.machine.on_message(rc.lane, msg, at_us)
                        }
                    };
                    if flow != Flow::Keep {
                        sess.lane_conns[rc.lane] = None;
                        ctx.close(conn);
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Corrupt stream: it costs only its own lane.
                    sess.lane_conns[rc.lane] = None;
                    ctx.close(conn);
                    sess.machine.on_lane_closed(rc.lane);
                }
            }
            if drain(ctx, &mut self.conns, sess, now_us, self.grace_ms) {
                self.finish(ctx, rc.session);
            }
        }
        let Some(sess) = self.sessions.get(&rc.session) else {
            return;
        };
        // The probe's rows are published once per burst that delivered
        // segments or ended the lane, however many frames it carried.
        let lane_open = sess.lane_conns[rc.lane] == Some(conn);
        if let Some(bytes) = burst_bytes {
            sess.probe.progress(bytes);
        }
        if burst_bytes.is_some() || !lane_open {
            sess.sync();
        }
        if lane_open {
            self.conns.insert(conn, rc);
        }
    }

    /// The lane's timer fired. A lane that owes nothing is not judged; one
    /// whose deadline moved on since the timer was armed waits out the
    /// rest. A candidate past its reply deadline settles as refused. A
    /// streaming lane past its progress deadline is a stall: it is cut,
    /// and the machine replans its share over the survivors or gives the
    /// session up — the same loss path a dropped connection takes.
    pub(crate) fn on_timer(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _kind: u32) {
        let Some(rc) = self.conns.get(&conn) else {
            return;
        };
        let (session, lane) = (rc.session, rc.lane);
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        let Some(due_ms) = sess.due_ms[lane] else {
            return;
        };
        let now_ms = ctx.now_ms();
        if now_ms < due_ms {
            arm(ctx, conn, due_ms);
            return;
        }
        if !sess.machine.streams_on(lane) {
            self.fail_lane(ctx, session, lane);
            return;
        }
        let lag_ms = sess.bound_ms.saturating_add(now_ms - due_ms);
        sess.stalls += 1;
        let attempt = sess.stalls;
        sess.probe.record(SessionEvent::StallFlagged { lag_ms });
        sess.probe.record(SessionEvent::RecoveryStarted {
            lane: lane as u64,
            attempt,
        });
        self.stalls.incr();
        eprintln!(
            "p2ps-watchdog: stall session={session} lane={lane} lag_ms={lag_ms} bound_ms={}",
            sess.bound_ms
        );
        self.fail_lane(ctx, session, lane);
        match self.sessions.get(&session) {
            // Survivors absorbed the share: the session is recovering.
            Some(sess) => {
                self.recoveries.incr();
                sess.probe.record(SessionEvent::Recovered { attempt });
            }
            // The cut lane was the last hope: the machine already
            // finished the session with its own verdict.
            None => self.giveups.incr(),
        }
    }

    /// The lane's connection dropped (peer close or I/O error).
    pub(crate) fn on_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let Some(rc) = self.conns.remove(&conn) else {
            return;
        };
        if let Some(sess) = self.sessions.get_mut(&rc.session) {
            sess.lane_conns[rc.lane] = None;
        }
        self.fail_lane(ctx, rc.session, rc.lane);
    }

    /// The lane's transport is gone or given up on: close what is left
    /// of it and let the machine settle the lane — refused during the
    /// round, replanned over the survivors once streaming.
    fn fail_lane(&mut self, ctx: &mut Ctx<'_>, session: u64, lane: usize) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        if let Some(conn) = sess.lane_conns[lane].take() {
            self.conns.remove(&conn);
            ctx.close(conn);
        }
        sess.machine.on_lane_closed(lane);
        self.pump(ctx, session);
    }

    /// Ships the machine's pending actions, then finishes the session once
    /// it has a verdict or re-publishes its phase, received and owed.
    fn pump(&mut self, ctx: &mut Ctx<'_>, session: u64) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        let now_us = ctx.now_us();
        if drain(ctx, &mut self.conns, sess, now_us, self.grace_ms) {
            self.finish(ctx, session);
        } else {
            sess.sync();
        }
    }

    /// Tears the session down and reports to the waiting caller.
    fn finish(&mut self, ctx: &mut Ctx<'_>, session: u64) {
        let Some(sess) = self.sessions.remove(&session) else {
            return;
        };
        for conn in sess.lane_conns.into_iter().flatten() {
            self.conns.remove(&conn);
            ctx.close(conn);
        }
        let info = sess.machine.info().clone();
        let theoretical_delay_ms = sess.machine.theoretical_delay_ms();
        let result = match sess.machine.into_outcome() {
            Some(Ok(driver)) => {
                let (machine, supplier_classes) = driver.into_parts();
                let start_us = sess.start_us.unwrap_or_else(|| ctx.now_us());
                Ok(FinishedSession {
                    info,
                    machine,
                    supplier_classes,
                    theoretical_delay_ms,
                    // To the nearest ms, so that sums and differences of
                    // durations are not half a millisecond short each.
                    duration_ms: (ctx.now_us() - start_us + 500) / 1_000,
                })
            }
            Some(Err(e)) => Err(e),
            None => unreachable!("finish runs on a verdict"),
        };
        // The session's scope leaves the monitor tree before the caller
        // can learn the outcome and look.
        drop(sess.probe);
        // The caller may have given up (dropped the receiver); that is
        // its prerogative, not an error here.
        let _ = sess.done.send(result);
    }
}

impl ReqSession {
    /// Feeds segment `index` of `lane`'s planned share (`msg`), received
    /// at `now_ms`, to the machine. A first arrival is progress: it moves
    /// the start-up lateness gauge and the lane's deadline to a stride
    /// and a grace from now. A lane whose share is drained owes nothing
    /// and is no longer judged.
    fn on_segment(
        &mut self,
        ctx: &mut Ctx<'_>,
        lane: usize,
        index: u64,
        msg: Message,
        at_us: u64,
        now_ms: u64,
    ) -> Flow {
        let received = |m: &RequesterMachine| m.driver().map_or(0, |d| d.machine().received());
        let had = received(&self.machine);
        let flow = self.machine.on_message(lane, msg, at_us);
        let first = received(&self.machine) > had;
        if first {
            let dt_us = self.machine.info().segment_duration().as_millis() * 1_000;
            self.probe.arrived(
                startup_term_us(at_us, index, dt_us),
                self.machine.theoretical_delay_ms() * 1_000,
            );
        }
        let due_ms = match (self.machine.owes(lane), first) {
            (false, _) => None,
            (true, true) => Some(now_ms.saturating_add(self.bound_ms)),
            (true, false) => self.due_ms[lane],
        };
        self.set_due(ctx, lane, due_ms);
        flow
    }

    /// Moves `lane`'s progress deadline to `due_ms` (`None`: not judged).
    /// The timer is re-armed only when the deadline comes earlier than
    /// before; a later one is caught up with when the timer fires, so
    /// steady progress costs no timer traffic.
    fn set_due(&mut self, ctx: &mut Ctx<'_>, lane: usize, due_ms: Option<u64>) {
        let old = std::mem::replace(&mut self.due_ms[lane], due_ms);
        if let (Some(due), Some(conn)) = (due_ms, self.lane_conns[lane]) {
            if old.is_none_or(|old| due < old) {
                arm(ctx, conn, due);
            }
        }
    }

    /// Re-publishes phase, received and owed on the session's probe.
    fn sync(&self) {
        if let Some(driver) = self.machine.driver() {
            self.probe.sync(driver.machine());
        }
    }
}

/// Arms `conn`'s lane timer for `due_ms` on the reactor clock.
fn arm(ctx: &mut Ctx<'_>, conn: ConnId, due_ms: u64) {
    ctx.set_timer_at_us(conn, K_LANE_DUE, due_ms.saturating_mul(1_000));
}

/// Publishes the hand-off to streaming, which happened at `now_us`, and
/// ships `sess`'s pending machine actions on its lanes' connections. A
/// lane a `StartSession` hands a share to is judged from `now_us` on,
/// with `grace_ms` past the plan's stride. Returns whether the machine
/// has a verdict, after which the session must be finished.
fn drain(
    ctx: &mut Ctx<'_>,
    conns: &mut HashMap<ConnId, ReqConn>,
    sess: &mut ReqSession,
    now_us: u64,
    grace_ms: u64,
) -> bool {
    if sess.start_us.is_none() {
        if let Some(driver) = sess.machine.driver() {
            // Admitted and planned: arrivals and deadlines count from here.
            sess.start_us = Some(now_us);
            sess.bound_ms = driver.stride_ms().saturating_add(grace_ms);
            sess.probe.launched(
                driver.machine(),
                driver.stride_ms(),
                sess.machine.theoretical_delay_ms() * 1_000,
            );
        }
    }
    while let Some(action) = sess.machine.pop_action() {
        match action {
            RequesterAction::Send { lane, msg } => {
                if let Some(conn) = sess.lane_conns[lane] {
                    send(ctx, conn, &msg);
                }
                let handed_a_share = matches!(msg, Message::StartSession { .. });
                if handed_a_share && sess.due_ms[lane].is_none() && sess.machine.owes(lane) {
                    let due_ms = (now_us / 1_000).saturating_add(sess.bound_ms);
                    sess.set_due(ctx, lane, Some(due_ms));
                }
            }
            RequesterAction::Close { lane } => {
                if let Some(conn) = sess.lane_conns[lane].take() {
                    conns.remove(&conn);
                    // Queued goodbyes (Release, Reminder) leave first.
                    ctx.close_after_flush(conn);
                }
            }
            RequesterAction::Record(ev) => sess.probe.record(ev),
        }
    }
    sess.machine.outcome().is_some()
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
