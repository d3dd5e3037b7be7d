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

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::mpsc::Sender;

use p2ps_core::PeerClass;
use p2ps_media::{MediaInfo, Segment, SegmentStore};
use p2ps_monitor::{monotonic_ms, Counter, Gauge, Monitor, Recorder, StateCell};
use p2ps_net::{ConnId, Ctx};
use p2ps_policy::SharedPolicy;
use p2ps_proto::{Flow, FrameDecoder, Message, RequesterSession, SessionEvent};

use crate::serve::send;
use crate::{NodeError, RequesterAction, RequesterMachine, StreamOutcome};

/// How long a candidate may stay silent after its `StreamRequest` before
/// its lane settles as refused. One frozen candidate delays the round by
/// at most this much (and only when it precedes the deciding prefix in
/// class order).
const ADMISSION_REPLY_TIMEOUT_MS: u64 = 2_000;

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
    /// stride and reset the progress clock so the watchdog measures from
    /// the hand-off.
    fn launched(&self, sm: &RequesterSession, stride_ms: u64, theoretical_us: u64) {
        self.stride_ms.set(stride_ms as i64);
        self.startup_lateness_us.set(-(theoretical_us as i64));
        self.last_progress_ms.set(monotonic_ms() as i64);
        self.sync(sm);
    }

    /// Segments of a planned share arrived: count their payload and move
    /// the progress clock, once per read burst however many segments it
    /// carried. The [`sync`](Self::sync) that follows every burst is the
    /// stall *recovery* path — its state write moves a `stalled` session
    /// back to its live phase.
    fn progress(&self, payload_bytes: u64) {
        self.bytes_received.add(payload_bytes);
        self.last_progress_ms.set(monotonic_ms() as i64);
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
    /// Reactor time of the hand-off to streaming, in µs: segment
    /// arrivals are recorded relative to it. `None` while probing.
    start_us: Option<u64>,
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
    /// Reactor time of the lane's last inbound bytes (or of the
    /// hand-off): what its read timer and stall recovery's
    /// pick-the-worst-lane step measure quiet from.
    last_ms: u64,
}

/// All requester sessions hosted on one reactor shard, from the first
/// `StreamRequest` to the last segment. Owned by the node's serve
/// handler; every callback is dispatched here when the connection
/// belongs to a requester lane.
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

    /// Hosts a new session: adopts every lane's connection, arms its
    /// read timer and lets the machine burst the `StreamRequest`s. Lanes
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
        let now_ms = ctx.now_ms();
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
                            last_ms: now_ms,
                        },
                    );
                    ctx.set_timer(conn, K_REQ_READ, ADMISSION_REPLY_TIMEOUT_MS);
                    lane_conns.push(Some(conn));
                }
                Some(Err(_)) | None => {
                    machine.on_lane_closed(lane);
                    lane_conns.push(None);
                }
            }
        }
        machine.start();
        self.sessions.insert(
            session,
            ReqSession {
                machine,
                lane_conns,
                start_us: None,
                recovery_attempts: 0,
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
        rc.last_ms = now_us / 1_000;
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
                            sess.on_segment(rc.lane, index, msg, at_us)
                        }
                        _ => sess.machine.on_message(rc.lane, msg, at_us),
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
            if drain(ctx, &mut self.conns, sess, now_us) {
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

    /// The lane's read timer fired. A candidate gets
    /// [`ADMISSION_REPLY_TIMEOUT_MS`] to answer the round, a streaming
    /// supplier [`STREAM_READ_TIMEOUT_MS`] between bursts; a lane that
    /// spoke since the timer was armed waits out the rest.
    pub(crate) fn on_timer(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _kind: u32) {
        let Some(rc) = self.conns.get(&conn) else {
            return;
        };
        let Some(sess) = self.sessions.get(&rc.session) else {
            return;
        };
        let quiet_bound = if sess.machine.streams_on(rc.lane) {
            STREAM_READ_TIMEOUT_MS
        } else {
            ADMISSION_REPLY_TIMEOUT_MS
        };
        let quiet_ms = ctx.now_ms().saturating_sub(rc.last_ms);
        if quiet_ms < quiet_bound {
            ctx.set_timer(conn, K_REQ_READ, quiet_bound - quiet_ms);
            return;
        }
        let (session, lane) = (rc.session, rc.lane);
        self.fail_lane(ctx, session, lane);
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
        let Some(driver) = sess.machine.driver() else {
            return; // still probing: the round's own timers settle it
        };
        let now = ctx.now_ms();
        let quiet_bound = driver.stride_ms() + grace_ms;
        // The stalest streaming lane: oldest last inbound bytes, and only
        // if genuinely quiet past the watchdog's own bound.
        let stalest = sess
            .lane_conns
            .iter()
            .flatten()
            .filter_map(|conn| self.conns.get(conn))
            .filter(|rc| sess.machine.streams_on(rc.lane))
            .filter(|rc| now.saturating_sub(rc.last_ms) > quiet_bound)
            .min_by_key(|rc| rc.last_ms)
            .map(|rc| rc.lane);
        let Some(lane) = stalest else {
            return; // every lane spoke recently: nothing to cut loose
        };
        sess.recovery_attempts += 1;
        let attempt = sess.recovery_attempts;
        sess.probe.record(SessionEvent::RecoveryStarted {
            lane: lane as u64,
            attempt: u64::from(attempt),
        });
        if attempt > MAX_RECOVERY_ATTEMPTS {
            giveups.incr();
            sess.machine.give_up();
            self.pump(ctx, session);
            return;
        }
        self.fail_lane(ctx, session, lane);
        match self.sessions.get(&session) {
            // Survivors absorbed the share: the session is recovering.
            Some(sess) => {
                recoveries.incr();
                sess.probe.record(SessionEvent::Recovered {
                    attempt: u64::from(attempt),
                });
            }
            // The failed lane was the last hope: the machine already
            // finished the session with its own verdict.
            None => giveups.incr(),
        }
    }

    /// Ships the machine's pending actions, then finishes the session once
    /// it has a verdict or re-publishes its phase, received and owed.
    fn pump(&mut self, ctx: &mut Ctx<'_>, session: u64) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        let now_us = ctx.now_us();
        if drain(ctx, &mut self.conns, sess, now_us) {
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
    /// Feeds segment `index` of `lane`'s planned share (`msg`) to the
    /// machine. A first arrival moves the start-up lateness gauge, and
    /// any arrival pays back the recovery budget.
    fn on_segment(&mut self, lane: usize, index: u64, msg: Message, at_us: u64) -> Flow {
        let received = |m: &RequesterMachine| m.driver().map_or(0, |d| d.machine().received());
        let had = received(&self.machine);
        let flow = self.machine.on_message(lane, msg, at_us);
        if received(&self.machine) > had {
            let dt_ms = self.machine.info().segment_duration().as_millis();
            self.probe.arrived(
                lateness_us(at_us, index, dt_ms),
                self.machine.theoretical_delay_ms() * 1_000,
            );
        }
        self.recovery_attempts = 0;
        flow
    }

    /// Re-publishes phase, received and owed on the session's probe.
    fn sync(&self) {
        if let Some(driver) = self.machine.driver() {
            self.probe.sync(driver.machine());
        }
    }
}

/// Ships `sess`'s pending machine actions on its lanes' connections and
/// publishes the hand-off to streaming, which happened at `now_us`.
/// Returns whether the machine has a verdict, after which the session
/// must be finished.
fn drain(
    ctx: &mut Ctx<'_>,
    conns: &mut HashMap<ConnId, ReqConn>,
    sess: &mut ReqSession,
    now_us: u64,
) -> bool {
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
            RequesterAction::Record(ev) => sess.probe.record(ev),
        }
    }
    if sess.start_us.is_none() {
        if let Some(driver) = sess.machine.driver() {
            // Admitted and planned: the watchdog measures from here.
            sess.start_us = Some(now_us);
            for conn in sess.lane_conns.iter().flatten() {
                if let Some(rc) = conns.get_mut(conn) {
                    rc.last_ms = now_us / 1_000;
                }
            }
            sess.probe.launched(
                driver.machine(),
                driver.stride_ms(),
                sess.machine.theoretical_delay_ms() * 1_000,
            );
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
