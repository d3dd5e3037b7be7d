//! Requester side: the reactor host of the requester machine.
//!
//! A requesting peer's whole session — the §4.2 probe of every candidate
//! at once, the §3 plan over the grants, the paced stream, the lanes'
//! deadlines and any replan after a supplier loss — is one sans-io
//! [`RequesterMachine`] (the same one `p2ps-simnet` hosts). This module
//! is only its adapter on a reactor shard: it adopts one connection per
//! candidate lane, decodes frames in, hands the machine each frame, close
//! and lane timer with the reactor's clock reading, ships the machine's
//! sends and closes, arms the one timer per lane it asks for, and
//! publishes progress on the session's monitor scope — **no reader
//! threads, no blocking reads**. One reactor thread hosts any number of
//! sessions; a [`ReactorPool`](p2ps_net::ReactorPool) spreads them across
//! cores by session hash.
//!
//! Mid-stream supplier loss is a structured per-supplier event, not a
//! session abort: the lost supplier's undelivered share feeds
//! [`SelectionPolicy::replan`](p2ps_policy::SelectionPolicy::replan) over
//! the survivors, and the recovered shares ride the wire as *explicit*
//! `SessionPlan`s that surviving suppliers append to their schedules.
//! Only when no survivor remains (or a replan cannot cover the gap) does
//! the session fail, with [`NodeError::SuppliersLost`].
//!
//! A lane past its deadline (see [`RequesterMachine`]'s clock-driven
//! decisions) takes that same loss path, so a peer that freezes or
//! dribbles bytes costs its own lane and nothing else. The machine's
//! `StallFlagged`, `Recovered` and `GaveUp` records drive the
//! process-wide `watchdog_*_total` counters and the one
//! `p2ps-watchdog: stall …` line on stderr.

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

/// The requester lane's one timer: the wake-up its machine asked for.
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
/// protocol *decision* — the §4.2 fold, the plan, deadlines, replans,
/// completion — lives in the machine; this struct only maps its lanes to
/// reactor connections and ships what it says to ship.
struct ReqSession {
    machine: RequesterMachine,
    /// Candidate lane → live connection (None once closed).
    lane_conns: Vec<Option<ConnId>>,
    probe: SessionProbe,
    done: Sender<SessionResult>,
}

/// A requester-side connection's reactor bookkeeping.
struct ReqConn {
    session: u64,
    lane: usize,
    dec: FrameDecoder,
}

/// The process-wide stall counters, driven by the machines' records.
struct StallCounters {
    /// Streaming lanes cut for missing their progress deadline.
    stalls: Counter,
    /// Cuts whose share the surviving suppliers took over.
    recoveries: Counter,
    /// Cuts that ended the session.
    giveups: Counter,
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
    counters: StallCounters,
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
            counters: StallCounters {
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
            },
        }
    }

    /// Whether `conn` is a requester-side connection on this shard.
    pub(crate) fn owns(&self, conn: ConnId) -> bool {
        self.conns.contains_key(&conn)
    }

    /// Hosts a new session: adopts every lane's connection and lets the
    /// machine burst the `StreamRequest`s. Lanes whose connect or
    /// adoption failed settle as refused. May resolve at once (no live
    /// candidate).
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
        let now_us = ctx.now_us();
        let mut machine =
            RequesterMachine::new(session, class, info, policy, &classes, self.grace_ms);
        let mut lane_conns = Vec::with_capacity(streams.len());
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
                    lane_conns.push(Some(conn));
                }
                Some(Err(_)) | None => {
                    machine.on_lane_closed(lane, now_us);
                    lane_conns.push(None);
                }
            }
        }
        machine.start(now_us);
        self.sessions.insert(
            session,
            ReqSession {
                machine,
                lane_conns,
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
                    if let Message::SegmentData {
                        session,
                        ref payload,
                        ..
                    } = msg
                    {
                        if session == rc.session && sess.machine.streams_on(rc.lane) {
                            *burst_bytes.get_or_insert(0) += payload.len() as u64;
                        }
                    }
                    if sess.machine.on_message(rc.lane, msg, now_us) != Flow::Keep {
                        sess.lane_conns[rc.lane] = None;
                        ctx.close(conn);
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Corrupt stream: it costs only its own lane.
                    sess.lane_conns[rc.lane] = None;
                    ctx.close(conn);
                    sess.machine.on_lane_closed(rc.lane, now_us);
                }
            }
            if drain(ctx, &mut self.conns, &self.counters, rc.session, sess) {
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

    /// The wake-up the lane's machine asked for came: the machine judges
    /// the lane against its deadline.
    pub(crate) fn on_timer(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _kind: u32) {
        let Some(rc) = self.conns.get(&conn) else {
            return;
        };
        let (session, lane) = (rc.session, rc.lane);
        if let Some(sess) = self.sessions.get_mut(&session) {
            sess.machine.on_timer(lane, ctx.now_us());
        }
        self.pump(ctx, session);
    }

    /// The lane's connection dropped (peer close or I/O error): the
    /// machine settles the lane — refused during the round, replanned
    /// over the survivors once streaming.
    pub(crate) fn on_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let Some(rc) = self.conns.remove(&conn) else {
            return;
        };
        if let Some(sess) = self.sessions.get_mut(&rc.session) {
            sess.lane_conns[rc.lane] = None;
            sess.machine.on_lane_closed(rc.lane, ctx.now_us());
        }
        self.pump(ctx, rc.session);
    }

    /// Ships the machine's pending actions, then finishes the session once
    /// it has a verdict or re-publishes its phase, received and owed.
    fn pump(&mut self, ctx: &mut Ctx<'_>, session: u64) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        if drain(ctx, &mut self.conns, &self.counters, session, sess) {
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
        let handoff_us = sess.machine.handoff_us();
        let result = match sess.machine.into_outcome() {
            Some(Ok(driver)) => {
                let (machine, supplier_classes) = driver.into_parts();
                let handoff_us = handoff_us.expect("completion implies a hand-off");
                Ok(FinishedSession {
                    info,
                    machine,
                    supplier_classes,
                    theoretical_delay_ms,
                    // To the nearest ms, so that sums and differences of
                    // durations are not half a millisecond short each.
                    duration_ms: (ctx.now_us() - handoff_us + 500) / 1_000,
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
    /// Re-publishes phase, received and owed on the session's probe.
    fn sync(&self) {
        if let Some(driver) = self.machine.driver() {
            self.probe.sync(driver.machine());
        }
    }

    /// Publishes what one of the machine's timeline entries says beyond
    /// the recorder: the hand-off and each segment's start-up term on the
    /// probe, a stall on the counters and stderr. `stall_lag_ms` carries
    /// a stall's lag from its `StallFlagged` to the entries after it.
    fn observe(
        &self,
        counters: &StallCounters,
        session: u64,
        ev: SessionEvent,
        stall_lag_ms: &mut Option<u64>,
    ) {
        let Some(driver) = self.machine.driver() else {
            return;
        };
        let theoretical_us = self.machine.theoretical_delay_ms() * 1_000;
        match ev {
            SessionEvent::PlanSent { .. } => {
                self.probe
                    .launched(driver.machine(), driver.stride_ms(), theoretical_us);
            }
            SessionEvent::SegmentArrived { index, .. } => {
                if let Some(at_us) = driver.machine().arrival_us(index) {
                    let term_us = startup_term_us(at_us, index, driver.dt_ms() * 1_000);
                    self.probe.arrived(term_us, theoretical_us);
                }
            }
            SessionEvent::StallFlagged { lag_ms } => {
                counters.stalls.incr();
                *stall_lag_ms = Some(lag_ms);
            }
            SessionEvent::RecoveryStarted { lane, .. } => eprintln!(
                "p2ps-watchdog: stall session={session} lane={lane} lag_ms={} bound_ms={}",
                stall_lag_ms.unwrap_or(0),
                self.machine.stall_bound_ms().unwrap_or(0)
            ),
            SessionEvent::Recovered { .. } => counters.recoveries.incr(),
            SessionEvent::GaveUp { .. } if stall_lag_ms.is_some() => counters.giveups.incr(),
            _ => {}
        }
    }
}

/// Ships `sess`'s pending machine actions on its lanes' connections and
/// arms the wake-ups it asks for. Returns whether the machine has a
/// verdict, after which the session must be finished.
fn drain(
    ctx: &mut Ctx<'_>,
    conns: &mut HashMap<ConnId, ReqConn>,
    counters: &StallCounters,
    session: u64,
    sess: &mut ReqSession,
) -> bool {
    let mut stall_lag_ms = None;
    while let Some(action) = sess.machine.pop_action() {
        match action {
            RequesterAction::Send { lane, msg } => {
                if let Some(conn) = sess.lane_conns[lane] {
                    send(ctx, conn, &msg);
                }
            }
            RequesterAction::Close { lane } => {
                if let Some(conn) = sess.lane_conns[lane].take() {
                    conns.remove(&conn);
                    // Queued goodbyes (Release, Reminder) leave first.
                    ctx.close_after_flush(conn);
                }
            }
            RequesterAction::Wake { lane, at_us } => {
                if let Some(conn) = sess.lane_conns[lane] {
                    ctx.set_timer_at_us(conn, K_LANE_DUE, at_us);
                }
            }
            RequesterAction::Record(ev) => {
                sess.observe(counters, session, ev, &mut stall_lag_ms);
                sess.probe.record(ev);
            }
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
