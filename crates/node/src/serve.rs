//! The reactor-backed node runtime: supplier serving + requester hosting.
//!
//! A [`NodeReactor`] is a [`ReactorPool`] of 1..N epoll threads carrying
//! *both* halves of any number of peer nodes. The supplier side — the
//! `DACp2p` admission handshake, reminder collection, and §3 paced
//! segment streaming — runs as event-driven per-connection state
//! machines, pacing on timer-wheel deadlines instead of `thread::sleep`.
//! The requester side ([`crate::requester`]) hands its granted
//! connections here too: a sans-io `RequesterSession` per session
//! receives the paced stream, with supplier departures replanned live.
//! A session occupies connection slots and timers — never a thread — so
//! one process sustains thousands of full-duplex sessions, sharded
//! across reactor threads by node tag (supplier side) and session id
//! (requester side).

use std::collections::HashMap;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use p2ps_core::admission::RequestDecision;
use p2ps_core::PeerClass;
use p2ps_media::MediaFile;
use p2ps_monitor::{Counter, Gauge, Monitor};
use p2ps_net::{ConnId, Ctx, Handler, PoolHandle, ReactorConfig, ReactorPool};
use p2ps_proto::{FrameDecoder, FrameEncoder, Message, SessionPlan, SupplierSchedule};

use crate::admission_host::{AdmissionLaunch, Admissions};
use crate::requester::ReqSessions;
use crate::supplier::{SupplierShared, GRANT_TTL_MS};
use crate::watchdog::{Watchdog, WatchdogConfig};

/// Read-progress timer: fires when the peer goes quiet in a phase that
/// expects it to speak.
const K_READ: u32 = 0;
/// Pacing timer: fires at the next segment's §3 arrival deadline.
const K_PACE: u32 = 1;

/// Soft backpressure bound: while more than this many bytes sit unsent
/// in the socket queue, pacing yields and retries shortly instead of
/// piling on (only reachable when deadlines are far behind, e.g. dt=0
/// throughput runs).
const PACE_BACKPRESSURE_BYTES: usize = 1 << 20;

/// Commands other threads send a running node reactor.
pub(crate) enum NodeCmd {
    /// A peer node starts serving: its listener connections (tagged
    /// `tag`) are handled against this shared supplier state.
    Attach {
        /// The listener tag (one per peer node).
        tag: u64,
        /// The node's admission + media state.
        shared: Arc<SupplierShared>,
    },
    /// The peer node is shutting down: drop its state and connections.
    Detach {
        /// The tag passed at attach time.
        tag: u64,
    },
    /// Run a requesting peer's §4.2 admission round on this shard:
    /// adopt one connection per candidate lane, drive the pipelined
    /// sans-io `AdmissionDriver`, and on admission transition the
    /// granted lanes straight into a receiving session (boxed: the
    /// launch carries streams, classes and a result channel).
    StartAdmission(Box<AdmissionLaunch>),
    /// The stall watchdog flagged `session` on this shard: fail its
    /// stalest quiet lane and replan the share over the survivors
    /// (`grace_ms` is the watchdog's own quiet bound, reused for the
    /// per-lane staleness test).
    Recover {
        /// The flagged session's id.
        session: u64,
        /// Slack past the session stride before a lane counts as quiet.
        grace_ms: u64,
    },
}

/// Per-connection protocol phase (the supplier half of §4.2).
enum Phase {
    /// Fresh connection: the first frame must be a `StreamRequest`.
    AwaitRequest,
    /// Grant sent; a `StartSession` must confirm within the grant TTL.
    AwaitStart { session: u64 },
    /// Busy denial sent; absorbing `Reminder`s until the peer hangs up or
    /// stays quiet for the grant TTL past `heard_ms` (reactor time of the
    /// denial or of the last reminder). One `K_READ` timer stays armed:
    /// a reminder only moves `heard_ms`, and the timer re-arms itself for
    /// the remainder when it fires.
    Reminders { heard_ms: u64 },
    /// Boxed: the stream state dwarfs the handshake phases.
    Streaming(Box<StreamState>),
}

/// An in-flight paced streaming session.
struct StreamState {
    session: u64,
    /// O(1) snapshot: a shared view of the node's media allocation.
    file: MediaFile,
    /// The sans-io transmission schedule (base plan expansion, appended
    /// replan shares, §3 pacing stride) — the same machine the
    /// deterministic simulation harness drives without sockets.
    sched: SupplierSchedule,
    /// Reactor time at `StartSession`, in µs: the origin of every §3
    /// deadline of the stream.
    start_us: u64,
}

struct ConnState {
    tag: u64,
    shared: Arc<SupplierShared>,
    dec: FrameDecoder,
    phase: Phase,
}

/// What to do with a connection after handling one message.
enum Flow {
    /// Keep decoding.
    Keep,
    /// Protocol violation or finished without pending bytes: close now.
    CloseNow,
    /// Goodbye frames queued; close once they flush.
    CloseAfterFlush,
}

/// Supplier-side shard metrics, registered on the shard's
/// `reactor={i}` monitor scope next to the `p2ps-net` reactor stats.
/// Updates are single relaxed atomics — no locks on the serving path.
struct ServeStats {
    /// Peer nodes attached to this shard.
    hosted_nodes: Gauge,
    /// Supplier-side paced sessions currently streaming.
    active_streams: Gauge,
    segments_sent: Counter,
    bytes_sent: Counter,
    /// Supplier-side sessions whose whole schedule was served.
    streams_completed: Counter,
}

impl ServeStats {
    fn register(monitor: &Monitor) -> ServeStats {
        ServeStats {
            hosted_nodes: monitor.gauge("hosted_nodes", "peer nodes attached to this shard"),
            active_streams: monitor.gauge(
                "active_streams",
                "supplier-side paced sessions currently streaming",
            ),
            segments_sent: monitor.counter("segments_sent_total", "media segments served"),
            bytes_sent: monitor.counter("bytes_sent_total", "segment payload bytes served"),
            streams_completed: monitor.counter(
                "streams_completed_total",
                "supplier-side sessions whose whole schedule was served",
            ),
        }
    }
}

/// The reactor handler multiplexing every attached node's supplier side
/// plus every requester session routed to this shard.
pub(crate) struct NodeServeHandler {
    nodes: HashMap<u64, Arc<SupplierShared>>,
    conns: HashMap<ConnId, ConnState>,
    /// Reactor-hosted receiving sessions (the requester half).
    req: ReqSessions,
    /// Reactor-hosted admission rounds (the requester's §4.2 probe).
    adm: Admissions,
    stats: ServeStats,
    /// Root counter: watchdog-escalated recoveries where survivors
    /// absorbed the stalest lane's share.
    recoveries: Counter,
    /// Root counter: watchdog-escalated recoveries that ended the
    /// session (`SuppliersLost`).
    giveups: Counter,
}

impl Default for NodeServeHandler {
    /// A handler reporting to a detached monitor (tests and embedders
    /// that don't scrape).
    fn default() -> Self {
        let detached = Monitor::default();
        let (recoveries, giveups) = recovery_counters(&detached);
        NodeServeHandler::new(&detached, recoveries, giveups)
    }
}

/// Registers the watchdog-recovery outcome counters on `root` (shared by
/// every shard's handler, so the totals are process-wide).
pub(crate) fn recovery_counters(root: &Monitor) -> (Counter, Counter) {
    (
        root.counter(
            "watchdog_recoveries_total",
            "stalled sessions replanned onto surviving suppliers",
        ),
        root.counter(
            "watchdog_giveups_total",
            "stalled sessions abandoned after bounded recovery attempts",
        ),
    )
}

/// Queues every chunk of `msg`'s frame on `conn` — the one place that
/// knows a frame may be two chunks (header + zero-copy payload), so no
/// call site can truncate a payload-bearing message.
pub(crate) fn send(ctx: &mut Ctx<'_>, conn: ConnId, msg: &Message) {
    let (head, payload) = FrameEncoder::frame(msg);
    // Both chunks — and every other frame this callback queues — leave in
    // the one writev the reactor issues when the callback returns.
    ctx.send(conn, head);
    if let Some(payload) = payload {
        ctx.send(conn, payload);
    }
}

impl NodeServeHandler {
    /// A handler whose shard metrics register on `monitor` (the shard's
    /// `reactor={i}` scope); the recovery counters live at the root,
    /// shared across shards.
    pub(crate) fn new(monitor: &Monitor, recoveries: Counter, giveups: Counter) -> Self {
        NodeServeHandler {
            nodes: HashMap::new(),
            conns: HashMap::new(),
            req: ReqSessions::default(),
            adm: Admissions::default(),
            stats: ServeStats::register(monitor),
            recoveries,
            giveups,
        }
    }

    /// Runs the admission decision for a fresh `StreamRequest` — the same
    /// logic the blocking path used, shared state and all.
    fn decide(shared: &SupplierShared, requester_class: PeerClass) -> RequestDecision {
        let now = shared.clock.now_ms();
        let has_file = shared.file.lock().is_some();
        let mut guard = shared.admission.lock();
        if !has_file {
            // Not yet a supplier: refuse outright (never advertised in the
            // directory, but a stale candidate record could still point
            // here).
            RequestDecision::Refused
        } else if guard.reservation_active(now) {
            // Reserved by a concurrent requester: behave as busy. The
            // favored flag still reflects the current vector so the
            // requester's reminder logic stays sound.
            let favored = guard.state.vector_at(now).favors(requester_class);
            RequestDecision::Busy { favored }
        } else {
            let mut rng = std::mem::replace(&mut guard.rng, SmallRng::seed_from_u64(0));
            let d = guard.state.handle_request(now, requester_class, &mut rng);
            guard.rng = rng;
            if d.is_granted() {
                guard.reserved_at = Some(now);
            }
            d
        }
    }

    fn on_message(
        &self,
        ctx: &mut Ctx<'_>,
        conn: ConnId,
        st: &mut ConnState,
        msg: Message,
    ) -> Flow {
        match (&mut st.phase, msg) {
            (Phase::AwaitRequest, Message::StreamRequest { session, class }) => {
                match Self::decide(&st.shared, class) {
                    RequestDecision::Granted => {
                        send(
                            ctx,
                            conn,
                            &Message::Grant {
                                session,
                                class: st.shared.class,
                            },
                        );
                        st.phase = Phase::AwaitStart { session };
                        ctx.set_timer(conn, K_READ, GRANT_TTL_MS);
                        Flow::Keep
                    }
                    RequestDecision::Refused => {
                        send(
                            ctx,
                            conn,
                            &Message::Deny {
                                session,
                                busy: false,
                                favored: false,
                            },
                        );
                        Flow::CloseAfterFlush
                    }
                    RequestDecision::Busy { favored } => {
                        send(
                            ctx,
                            conn,
                            &Message::Deny {
                                session,
                                busy: true,
                                favored,
                            },
                        );
                        st.phase = Phase::Reminders {
                            heard_ms: ctx.now_ms(),
                        };
                        ctx.set_timer(conn, K_READ, GRANT_TTL_MS);
                        Flow::Keep
                    }
                }
            }
            (
                Phase::AwaitStart { session },
                Message::StartSession {
                    session: confirmed,
                    plan,
                },
            ) if confirmed == *session => {
                let session = *session;
                match self.start_streaming(ctx, conn, st, session, plan) {
                    Ok(()) => Flow::Keep,
                    Err(_) => {
                        st.shared.admission.lock().reserved_at = None;
                        Flow::CloseNow
                    }
                }
            }
            (Phase::AwaitStart { .. }, _) => {
                // Release, junk, or a mismatched session id: drop the
                // reservation and hang up.
                st.shared.admission.lock().reserved_at = None;
                Flow::CloseNow
            }
            (Phase::Reminders { heard_ms }, Message::Reminder { class, .. }) => {
                st.shared.admission.lock().state.leave_reminder(class);
                *heard_ms = ctx.now_ms();
                Flow::Keep
            }
            (Phase::Reminders { .. }, _) => Flow::CloseNow,
            // Mid-stream replan: after losing another supplier the
            // requester appends an *explicit* share of the lost segments
            // to this one's schedule. Served after the running plan, at
            // the same pacing stride.
            (
                Phase::Streaming(ref mut s),
                Message::StartSession {
                    session: confirmed,
                    plan,
                },
            ) if confirmed == s.session && plan.is_explicit() => {
                s.sched.append(plan.segments.iter().copied());
                Flow::Keep
            }
            // Otherwise the requester does not speak during streaming;
            // tolerate noise (e.g. an early EndSession) without dropping
            // pacing.
            (Phase::Streaming(_), _) => Flow::Keep,
            (Phase::AwaitRequest, _) => Flow::CloseNow,
        }
    }

    /// Confirms the grant and arms the first pacing deadline.
    fn start_streaming(
        &self,
        ctx: &mut Ctx<'_>,
        conn: ConnId,
        st: &mut ConnState,
        session: u64,
        plan: SessionPlan,
    ) -> io::Result<()> {
        let file = st
            .shared
            .file
            .lock()
            .clone()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "media file vanished"))?;
        // The schedule validates the plan and derives the pacing stride
        // (periodic §3 plans tile their period; explicit one-shot plans
        // pace at this supplier's own class rate).
        let sched = SupplierSchedule::new(plan, u64::from(st.shared.class.slots_per_segment()))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        {
            let mut guard = st.shared.admission.lock();
            guard.reserved_at = None;
            guard.state.begin_session(st.shared.clock.now_ms());
        }
        let stream = StreamState {
            session,
            file,
            sched,
            start_us: ctx.now_us(),
        };
        ctx.cancel_timer(conn, K_READ);
        st.phase = Phase::Streaming(Box::new(stream));
        self.stats.active_streams.add(1);
        // First deadline may be 0 ms out (dt=0 plans): fire promptly.
        ctx.set_timer(conn, K_PACE, 0);
        Ok(())
    }

    /// Sends every segment whose §3 deadline `(p+1)·spp·δt` has passed,
    /// then re-arms the pacing timer for the next one. Returns the flow
    /// for the connection.
    fn pace(&self, ctx: &mut Ctx<'_>, conn: ConnId, st: &mut ConnState) -> Flow {
        let Phase::Streaming(ref mut s) = st.phase else {
            return Flow::Keep; // stale pace timer from a replaced phase
        };
        if st.shared.stop.load(Ordering::Relaxed) {
            // Supplier shutting down mid-session (modelling a crash): the
            // requester sees the connection drop, not an EndSession.
            return Flow::CloseNow;
        }
        // The plan already bounds by its own total; a shorter local file
        // copy additionally caps what can be served.
        let cap = s.file.info().segment_count();
        loop {
            let Some(seg) = s.sched.next_unsent(cap) else {
                let session = s.session;
                send(ctx, conn, &Message::EndSession { session });
                return Flow::CloseAfterFlush;
            };
            // The schedule counts in ms (simnet drives it on a virtual ms
            // clock); the deadline is absolute, so neither the clock's
            // sub-ms part nor a late wake-up carries into the next one.
            let deadline_us = s.start_us + 1_000 * s.sched.next_deadline_ms(0);
            if deadline_us > ctx.now_us() {
                ctx.set_timer_at_us(conn, K_PACE, deadline_us);
                return Flow::Keep;
            }
            if ctx.pending_write_bytes(conn) > PACE_BACKPRESSURE_BYTES {
                // Far behind schedule and the socket can't drain: yield
                // briefly instead of ballooning the outbound queue.
                ctx.set_timer(conn, K_PACE, 1);
                return Flow::Keep;
            }
            let payload = s.file.segment(seg).into_payload();
            self.stats.segments_sent.incr();
            self.stats.bytes_sent.add(payload.len() as u64);
            send(
                ctx,
                conn,
                &Message::SegmentData {
                    session: s.session,
                    index: seg,
                    payload,
                },
            );
            s.sched.consume();
        }
    }

    /// Rolls back shared admission state for a connection that is going
    /// away in whatever phase it reached.
    fn settle(&self, st: &ConnState) {
        match st.phase {
            Phase::AwaitStart { .. } => {
                st.shared.admission.lock().reserved_at = None;
            }
            Phase::Streaming(_) => {
                self.stats.active_streams.add(-1);
                st.shared
                    .admission
                    .lock()
                    .state
                    .end_session(st.shared.clock.now_ms());
            }
            Phase::AwaitRequest | Phase::Reminders { .. } => {}
        }
    }

    /// Applies a [`Flow`] verdict, re-inserting live state.
    fn apply(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, st: ConnState, flow: Flow) -> bool {
        match flow {
            Flow::Keep => {
                self.conns.insert(conn, st);
                true
            }
            Flow::CloseNow => {
                self.settle(&st);
                ctx.close(conn);
                false
            }
            Flow::CloseAfterFlush => {
                self.settle_finished(&st);
                ctx.close_after_flush(conn);
                false
            }
        }
    }

    /// Like [`settle`](Self::settle) but for a cleanly finished exchange:
    /// a completed stream ends its session; other phases have nothing
    /// reserved.
    fn settle_finished(&self, st: &ConnState) {
        if let Phase::Streaming(_) = st.phase {
            self.stats.active_streams.add(-1);
            self.stats.streams_completed.incr();
            st.shared
                .admission
                .lock()
                .state
                .end_session(st.shared.clock.now_ms());
        }
    }
}

impl Handler for NodeServeHandler {
    type Cmd = NodeCmd;

    fn on_command(&mut self, ctx: &mut Ctx<'_>, cmd: NodeCmd) {
        match cmd {
            NodeCmd::Attach { tag, shared } => {
                if self.nodes.insert(tag, shared).is_none() {
                    self.stats.hosted_nodes.add(1);
                }
            }
            NodeCmd::Detach { tag } => {
                if self.nodes.remove(&tag).is_some() {
                    self.stats.hosted_nodes.add(-1);
                }
                let doomed: Vec<ConnId> = self
                    .conns
                    .iter()
                    .filter(|(_, st)| st.tag == tag)
                    .map(|(id, _)| *id)
                    .collect();
                for id in doomed {
                    if let Some(st) = self.conns.remove(&id) {
                        self.settle(&st);
                        ctx.close(id);
                    }
                }
            }
            NodeCmd::StartAdmission(launch) => {
                if let Some(ready) = self.adm.start(ctx, *launch) {
                    self.req.start_adopted(ctx, ready);
                }
            }
            NodeCmd::Recover { session, grace_ms } => {
                self.req
                    .recover(ctx, session, grace_ms, &self.recoveries, &self.giveups);
            }
        }
    }

    fn on_accept(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, listener_tag: u64) {
        let Some(shared) = self.nodes.get(&listener_tag) else {
            ctx.close(conn);
            return;
        };
        self.conns.insert(
            conn,
            ConnState {
                tag: listener_tag,
                shared: Arc::clone(shared),
                dec: FrameDecoder::new(),
                phase: Phase::AwaitRequest,
            },
        );
        ctx.set_timer(conn, K_READ, GRANT_TTL_MS * 2);
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        if self.req.owns(conn) {
            self.req.on_data(ctx, conn, data);
            return;
        }
        if self.adm.owns(conn) {
            if let Some(ready) = self.adm.on_data(ctx, conn, data) {
                self.req.start_adopted(ctx, ready);
            }
            return;
        }
        let Some(mut st) = self.conns.remove(&conn) else {
            return;
        };
        st.dec.feed(data);
        loop {
            match st.dec.poll() {
                Ok(Some(msg)) => {
                    let flow = self.on_message(ctx, conn, &mut st, msg);
                    if !matches!(flow, Flow::Keep) {
                        self.apply(ctx, conn, st, flow);
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.apply(ctx, conn, st, Flow::CloseNow);
                    return;
                }
            }
        }
        self.conns.insert(conn, st);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, kind: u32) {
        if self.req.owns(conn) {
            self.req.on_timer(ctx, conn, kind);
            return;
        }
        if self.adm.owns(conn) {
            if let Some(ready) = self.adm.on_timer(ctx, conn, kind) {
                self.req.start_adopted(ctx, ready);
            }
            return;
        }
        let Some(mut st) = self.conns.remove(&conn) else {
            return;
        };
        match kind {
            K_PACE => {
                let flow = self.pace(ctx, conn, &mut st);
                self.apply(ctx, conn, st, flow);
            }
            // K_READ (and anything unknown): the peer went quiet in a
            // phase that expected progress — unless a reminder arrived
            // since the timer was armed, then it waits out the rest.
            _ => {
                if let Phase::Reminders { heard_ms } = st.phase {
                    let quiet_ms = ctx.now_ms().saturating_sub(heard_ms);
                    if quiet_ms < GRANT_TTL_MS {
                        ctx.set_timer(conn, K_READ, GRANT_TTL_MS - quiet_ms);
                        self.conns.insert(conn, st);
                        return;
                    }
                }
                self.apply(ctx, conn, st, Flow::CloseNow);
            }
        }
    }

    fn on_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        if self.req.owns(conn) {
            self.req.on_close(ctx, conn);
            return;
        }
        if self.adm.owns(conn) {
            if let Some(ready) = self.adm.on_close(ctx, conn) {
                self.req.start_adopted(ctx, ready);
            }
            return;
        }
        if let Some(st) = self.conns.remove(&conn) {
            self.settle(&st);
        }
    }
}

/// The node runtime's reactor pool, shared by any number of
/// [`PeerNode`](crate::PeerNode)s.
///
/// Each node registers its listener here
/// ([`PeerNode::spawn_on`](crate::PeerNode::spawn_on)) and routes its
/// requester sessions here too; with [`with_threads`](Self::with_threads)
/// the pool shards nodes (by tag) and sessions (by session id) across N
/// reactor threads, one epoll loop per core. [`new`](Self::new) keeps the
/// single-thread behavior of earlier releases. A node spawned without an
/// explicit reactor owns a private one.
///
/// # Examples
///
/// ```no_run
/// use p2ps_node::{Clock, DirectoryServer, NodeConfig, NodeReactor, PeerNode};
/// use p2ps_core::{PeerClass, PeerId};
/// use p2ps_core::assignment::SegmentDuration;
/// use p2ps_media::MediaInfo;
///
/// let dir = DirectoryServer::start()?;
/// // 8 supplier nodes sharded over 2 serving threads.
/// let reactor = NodeReactor::with_threads(2)?;
/// let clock = Clock::new();
/// let info = MediaInfo::new("demo", 16, SegmentDuration::from_millis(10), 512);
/// let nodes: Vec<PeerNode> = (0..8u64)
///     .map(|i| {
///         let cfg = NodeConfig::new(PeerId::new(i), PeerClass::HIGHEST, info.clone(), dir.addr());
///         PeerNode::spawn_seed_on(cfg, clock.clone(), &reactor)
///     })
///     .collect::<std::io::Result<_>>()?;
/// # drop(nodes);
/// reactor.shutdown();
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct NodeReactor {
    pool: ReactorPool<NodeCmd>,
    monitor: Monitor,
    watchdog: Watchdog,
}

impl NodeReactor {
    /// Starts a single reactor thread (the source-compatible default).
    ///
    /// # Errors
    ///
    /// Propagates epoll / self-pipe creation errors.
    pub fn new() -> io::Result<Self> {
        Self::with_threads(1)
    }

    /// Starts a pool of `threads` reactor threads (clamped to at least
    /// one). Nodes and sessions registered through this reactor are
    /// hash-sharded across them; every connection's events stay on its
    /// shard's thread.
    ///
    /// # Errors
    ///
    /// Propagates epoll / self-pipe creation errors.
    pub fn with_threads(threads: usize) -> io::Result<Self> {
        Self::with_options(threads, WatchdogConfig::default())
    }

    /// Like [`with_threads`](Self::with_threads) with an explicit stall
    /// [`WatchdogConfig`] (tight graces for tests, long ones for
    /// production scrapes).
    ///
    /// # Errors
    ///
    /// Propagates epoll / self-pipe creation errors.
    pub fn with_options(threads: usize, watchdog: WatchdogConfig) -> io::Result<Self> {
        let monitor = Monitor::root();
        let cfg = ReactorConfig {
            monitor: monitor.clone(),
            ..ReactorConfig::default()
        };
        let (recoveries, giveups) = recovery_counters(&monitor);
        let pool = ReactorPool::spawn(threads, cfg, |i| {
            NodeServeHandler::new(
                &monitor.child("reactor", i),
                recoveries.clone(),
                giveups.clone(),
            )
        })?;
        // The watchdog escalates each flagged session back into its own
        // reactor shard, where the recovery replan runs.
        let watchdog = Watchdog::start(monitor.clone(), watchdog, Some(pool.handle()));
        Ok(NodeReactor {
            pool,
            monitor,
            watchdog,
        })
    }

    /// Number of reactor threads in the pool.
    pub fn thread_count(&self) -> usize {
        self.pool.shard_count()
    }

    /// The root of this reactor's introspection tree: per-shard
    /// `reactor={i}` scopes carrying the epoll loop's own stats, the
    /// supplier-side serve stats and every hosted session's probe.
    /// Snapshot it directly or serve it via
    /// `p2ps_monitor::StatusServer`.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    pub(crate) fn handle(&self) -> PoolHandle<NodeCmd> {
        self.pool.handle()
    }

    /// Stops every reactor thread and joins it; all hosted connections
    /// drop (in-flight sessions abort like a supplier crash).
    pub fn shutdown(self) {
        let NodeReactor {
            pool,
            monitor: _,
            watchdog,
        } = self;
        drop(watchdog); // stop flagging before sessions abort
        pool.shutdown();
    }
}
