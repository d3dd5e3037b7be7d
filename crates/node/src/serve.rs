//! The reactor-backed node runtime: supplier serving + requester hosting.
//!
//! A [`NodeReactor`] is a [`ReactorPool`] of 1..N epoll threads carrying
//! *both* halves of any number of peer nodes. The supplier side — the
//! `DACp2p` admission handshake, reminder collection, and §3 paced
//! segment streaming — is one sans-io [`SupplierConn`] per accepted
//! connection; this module is only its adapter: it decodes frames in,
//! sends replies and segments out, and arms the machine's deadlines on
//! the timer wheel instead of `thread::sleep`. The requester side
//! ([`crate::requester`]) is hosted here too: one sans-io
//! `RequesterMachine` per session probes the candidates, plans, receives
//! the paced stream and replans supplier departures live. A session occupies
//! connection slots and timers — never a thread — so one process
//! sustains thousands of full-duplex sessions, sharded across reactor
//! threads by node tag (supplier side) and session id (requester side).

use std::collections::HashMap;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use p2ps_media::{MediaFile, MediaInfo};
use p2ps_monitor::{Counter, Gauge, Monitor};
use p2ps_net::{ConnId, Ctx, Handler, PoolHandle, ReactorConfig, ReactorPool};
use p2ps_proto::{Flow, FrameDecoder, FrameEncoder, Message, Pace, SupplierConn};
use parking_lot::Mutex;

use crate::requester::{ReqSessions, RequestLaunch};
use crate::supplier::SupplierShared;

/// A supplier connection's one timer: whatever deadline its
/// [`SupplierConn`] asked for last (a quiet peer during the handshake,
/// the next segment's §3 arrival deadline while streaming).
const K_CONN: u32 = 0;

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
    /// Host a requesting peer's session on this shard: adopt one
    /// connection per candidate lane and run its `RequesterMachine` from
    /// the §4.2 round to the last segment (boxed: the launch carries
    /// streams, classes and a result channel).
    Request(Box<RequestLaunch>),
}

/// One accepted connection of an attached node.
struct ConnState {
    tag: u64,
    shared: Arc<SupplierShared>,
    dec: FrameDecoder,
    conn: SupplierConn,
    /// O(1) snapshot of the node's media allocation, taken when the
    /// stream starts: held exactly while this connection counts in
    /// `active_streams`.
    file: Option<MediaFile>,
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
    /// Reactor-hosted requester sessions, probe to last segment.
    req: ReqSessions,
    stats: ServeStats,
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
    /// Takes `conn` out of the table — the machine gives back whatever
    /// it still held (a reservation, a session cut short) — and closes
    /// it as `flow` says; `Keep` when the transport is already gone.
    fn finish(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, flow: Flow) {
        let Some(mut st) = self.conns.remove(&conn) else {
            return;
        };
        st.conn.close(&mut &*st.shared);
        if st.file.is_some() {
            self.stats.active_streams.add(-1);
        }
        match flow {
            Flow::Keep => {}
            Flow::Close => ctx.close(conn),
            Flow::CloseAfterFlush => ctx.close_after_flush(conn),
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
                    self.finish(ctx, id, Flow::Close);
                }
            }
            NodeCmd::Request(launch) => self.req.start(ctx, *launch),
        }
    }

    fn on_accept(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, listener_tag: u64) {
        let Some(shared) = self.nodes.get(&listener_tag) else {
            ctx.close(conn);
            return;
        };
        let machine = SupplierConn::new(shared.class, ctx.now_us());
        if let Some(deadline_us) = machine.deadline_us() {
            ctx.set_timer_at_us(conn, K_CONN, deadline_us);
        }
        self.conns.insert(
            conn,
            ConnState {
                tag: listener_tag,
                shared: Arc::clone(shared),
                dec: FrameDecoder::new(),
                conn: machine,
                file: None,
            },
        );
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        if self.req.owns(conn) {
            self.req.on_data(ctx, conn, data);
            return;
        }
        let Some(st) = self.conns.get_mut(&conn) else {
            return;
        };
        st.dec.feed(data);
        let flow = loop {
            let msg = match st.dec.poll() {
                Ok(Some(msg)) => msg,
                Ok(None) => return,
                Err(_) => break Flow::Close,
            };
            let step = st.conn.on_message(msg, ctx.now_us(), &mut &*st.shared);
            if let Some(reply) = &step.reply {
                send(ctx, conn, reply);
            }
            if let Some(deadline_us) = step.timer_us {
                ctx.set_timer_at_us(conn, K_CONN, deadline_us);
            }
            if st.file.is_none() && st.conn.is_streaming() {
                // The grant was decided against this file; it never
                // goes away again.
                let Some(file) = st.shared.file.get().cloned() else {
                    break Flow::Close;
                };
                st.file = Some(file);
                self.stats.active_streams.add(1);
            }
            if step.flow != Flow::Keep {
                break step.flow;
            }
        };
        self.finish(ctx, conn, flow);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, kind: u32) {
        if self.req.owns(conn) {
            self.req.on_timer(ctx, conn, kind);
            return;
        }
        let Some(st) = self.conns.get_mut(&conn) else {
            return;
        };
        if st.file.is_some() && st.shared.stop.load(Ordering::Relaxed) {
            // Supplier shutting down mid-session (modelling a crash): the
            // requester sees the connection drop, not an EndSession.
            self.finish(ctx, conn, Flow::Close);
            return;
        }
        // Sends every segment whose §3 deadline `(p+1)·spp·δt` had
        // passed when the callback began, then re-arms the timer for the
        // next one. One clock reading serves the whole catch-up: a send
        // decided against an earlier instant is never early.
        let now_us = ctx.now_us();
        let flow = loop {
            let backlog = ctx.pending_write_bytes(conn);
            match st.conn.on_timer(now_us, backlog, &mut &*st.shared) {
                Pace::Send(index) => {
                    let Some(file) = &st.file else {
                        break Flow::Close;
                    };
                    let payload = file.segment(index).into_payload();
                    self.stats.segments_sent.incr();
                    self.stats.bytes_sent.add(payload.len() as u64);
                    let session = st.conn.session();
                    let msg = Message::SegmentData {
                        session,
                        index,
                        payload,
                    };
                    send(ctx, conn, &msg);
                }
                Pace::Wait(deadline_us) => {
                    ctx.set_timer_at_us(conn, K_CONN, deadline_us);
                    return;
                }
                Pace::Yield => {
                    // Far behind schedule and the socket can't drain:
                    // yield briefly instead of ballooning the queue.
                    ctx.set_timer(conn, K_CONN, 1);
                    return;
                }
                Pace::End => {
                    let session = st.conn.session();
                    send(ctx, conn, &Message::EndSession { session });
                    self.stats.streams_completed.incr();
                    break Flow::CloseAfterFlush;
                }
                Pace::Close => break Flow::Close,
            }
        };
        self.finish(ctx, conn, flow);
    }

    fn on_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        if self.req.owns(conn) {
            self.req.on_close(ctx, conn);
            return;
        }
        self.finish(ctx, conn, Flow::Keep);
    }
}

/// Tuning for the progress deadlines the requester sessions on a
/// [`NodeReactor`] hold their lanes to.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Slack past the plan's worst-case healthy segment stride before a
    /// streaming lane that still owes segments is cut as stalled (default
    /// 3000 ms).
    pub grace_ms: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig { grace_ms: 3_000 }
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
pub struct NodeReactor {
    pool: ReactorPool<NodeCmd>,
    monitor: Monitor,
    /// One synthesized file per item, shared by every seed of it spawned
    /// here (seeds serve the same immutable bytes) and held until the
    /// reactor shuts down.
    seed_files: Mutex<HashMap<MediaInfo, MediaFile>>,
}

impl std::fmt::Debug for NodeReactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeReactor")
            .field("threads", &self.thread_count())
            .field("seed_items", &self.seed_files.lock().len())
            .finish()
    }
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
    /// one) and no other thread. Nodes and sessions registered through
    /// this reactor are hash-sharded across them; every connection's
    /// events stay on its shard's thread.
    ///
    /// # Errors
    ///
    /// Propagates epoll / self-pipe creation errors.
    pub fn with_threads(threads: usize) -> io::Result<Self> {
        Self::with_options(threads, WatchdogConfig::default())
    }

    /// Like [`with_threads`](Self::with_threads) with an explicit
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
        let pool = ReactorPool::spawn(threads, cfg, |i| NodeServeHandler {
            nodes: HashMap::new(),
            conns: HashMap::new(),
            req: ReqSessions::new(&monitor, watchdog.grace_ms),
            stats: ServeStats::register(&monitor.child("reactor", i)),
        })?;
        Ok(NodeReactor {
            pool,
            monitor,
            seed_files: Mutex::default(),
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

    /// The file a seed of `info` serves, synthesized once per item.
    pub(crate) fn seed_file(&self, info: &MediaInfo) -> MediaFile {
        self.seed_files
            .lock()
            .entry(info.clone())
            .or_insert_with(|| MediaFile::synthesize(info.clone()))
            .clone()
    }

    pub(crate) fn handle(&self) -> PoolHandle<NodeCmd> {
        self.pool.handle()
    }

    /// Stops every reactor thread and joins it; all hosted connections
    /// drop (in-flight sessions abort like a supplier crash).
    pub fn shutdown(self) {
        self.pool.shutdown();
    }
}
