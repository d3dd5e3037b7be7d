//! The peer node: listener, roles and the public handle.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use p2ps_core::admission::{Protocol, SupplierConfig, SupplierState};
use p2ps_core::{PeerClass, PeerId};
use p2ps_media::{MediaFile, MediaInfo};
use p2ps_monitor::Monitor;
use p2ps_net::PoolHandle;

use crate::admission_host::AdmissionLaunch;
use crate::directory::{query_candidates, register_supplier};
use crate::requester::{SessionProbe, SessionResult};
use crate::serve::{NodeCmd, NodeReactor};
use crate::supplier::{AdmissionGuard, SupplierShared};
use crate::{Clock, NodeError};

/// Tags tie a listener registered with a reactor back to its node's
/// shared state; a process-global counter keeps them unique even across
/// swarms that reuse peer ids.
static NEXT_TAG: AtomicU64 = AtomicU64::new(1);

/// Per-candidate TCP connect budget. Connects stay on the caller's
/// thread (loopback deployment, `std` has no non-blocking connect); a
/// candidate that cannot even accept settles its lane as refused.
const CONNECT_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(1_000);

/// Static configuration of one peer node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The peer's identity.
    pub id: PeerId,
    /// The peer's bandwidth class.
    pub class: PeerClass,
    /// The media item this deployment streams.
    pub info: MediaInfo,
    /// Address of the directory server.
    pub directory: SocketAddr,
    /// Number of classes in the system (paper `K`; default 4).
    pub num_classes: u8,
    /// Idle relaxation timeout `T_out` in milliseconds (default 60 s).
    pub idle_timeout_ms: u64,
    /// Admission protocol (default `DACp2p`).
    pub protocol: Protocol,
    /// How the requester assigns media segments to its granted suppliers
    /// (default: the paper's `OTSp2p` optimal assignment).
    pub policy: p2ps_policy::SharedPolicy,
    /// Reactor threads of the node's *private* reactor pool
    /// ([`PeerNode::spawn`]/[`PeerNode::spawn_seed`]; default 1). Ignored
    /// when the node is hosted on a shared [`NodeReactor`], whose own
    /// thread count applies.
    pub threads: usize,
}

impl NodeConfig {
    /// A configuration with the defaults described on each field.
    pub fn new(id: PeerId, class: PeerClass, info: MediaInfo, directory: SocketAddr) -> Self {
        NodeConfig {
            id,
            class,
            info,
            directory,
            num_classes: 4,
            idle_timeout_ms: 60_000,
            protocol: Protocol::Dac,
            policy: p2ps_policy::SharedPolicy::default(),
            threads: 1,
        }
    }
}

/// Result of one successful streaming session at a requesting peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Number of supplying peers that served the session (`n`).
    pub supplier_count: usize,
    /// Their classes, in assignment (descending-bandwidth) order.
    pub supplier_classes: Vec<PeerClass>,
    /// Empirical minimum buffering delay measured from real segment
    /// arrival times on the reactor's µs clock: `max_s(arrival_s − s·δt)`
    /// over each segment's earliest arrival. Never below
    /// `theoretical_delay_ms · 1000` — a paced segment is not sent early.
    pub measured_delay_us: u64,
    /// [`measured_delay_us`](Self::measured_delay_us) in whole
    /// milliseconds (truncated).
    pub measured_delay_ms: u64,
    /// Theorem-1 delay `n·δt` in ms, for comparison.
    pub theoretical_delay_ms: u64,
    /// Wall-clock duration of the whole session.
    pub duration_ms: u64,
}

/// Which reactor pool hosts a node's listener and sessions.
enum ReactorRef {
    /// A private reactor pool, owned (and joined at shutdown) by this
    /// node.
    Owned(NodeReactor),
    /// A shared [`NodeReactor`] pool hosting many nodes.
    Shared(PoolHandle<NodeCmd>),
}

impl ReactorRef {
    fn pool(&self) -> PoolHandle<NodeCmd> {
        match self {
            ReactorRef::Owned(r) => r.handle(),
            ReactorRef::Shared(h) => h.clone(),
        }
    }
}

/// A runnable peer: a TCP listener hosted on a serving reactor plus the
/// paper's requester/supplier behaviors. See the crate docs for the full
/// lifecycle.
pub struct PeerNode {
    config: NodeConfig,
    shared: Arc<SupplierShared>,
    port: u16,
    tag: u64,
    reactor: Option<ReactorRef>,
    /// The hosting reactor's introspection tree root — session probes
    /// register here under the shard that will host them.
    monitor: Monitor,
    session_rng: Mutex<SmallRng>,
}

impl std::fmt::Debug for PeerNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerNode")
            .field("id", &self.config.id)
            .field("class", &self.config.class)
            .field("port", &self.port)
            .field("supplier", &self.is_supplier())
            .finish()
    }
}

impl PeerNode {
    /// Starts a node with no media content (a future requesting peer) on
    /// a private serving reactor.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener.
    pub fn spawn(config: NodeConfig, clock: Clock) -> io::Result<Self> {
        let reactor = NodeReactor::with_threads(config.threads)?;
        let monitor = reactor.monitor().clone();
        Self::spawn_inner(config, clock, None, ReactorRef::Owned(reactor), monitor)
    }

    /// Starts a node that already owns the complete media file and
    /// registers it with the directory (a "seed" supplying peer) on a
    /// private serving reactor.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding or from the directory
    /// registration.
    pub fn spawn_seed(config: NodeConfig, clock: Clock) -> io::Result<Self> {
        let reactor = NodeReactor::with_threads(config.threads)?;
        let monitor = reactor.monitor().clone();
        let file = MediaFile::synthesize(config.info.clone());
        let node = Self::spawn_inner(
            config,
            clock,
            Some(file),
            ReactorRef::Owned(reactor),
            monitor,
        )?;
        node.register()?;
        Ok(node)
    }

    /// Like [`spawn`](Self::spawn), but hosted on a shared
    /// [`NodeReactor`]: many nodes' admission handshakes and paced
    /// sessions multiplex onto that reactor's single thread.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener.
    pub fn spawn_on(config: NodeConfig, clock: Clock, reactor: &NodeReactor) -> io::Result<Self> {
        Self::spawn_inner(
            config,
            clock,
            None,
            ReactorRef::Shared(reactor.handle().clone()),
            reactor.monitor().clone(),
        )
    }

    /// Like [`spawn_seed`](Self::spawn_seed), but hosted on a shared
    /// [`NodeReactor`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding or from the directory
    /// registration.
    pub fn spawn_seed_on(
        config: NodeConfig,
        clock: Clock,
        reactor: &NodeReactor,
    ) -> io::Result<Self> {
        let file = MediaFile::synthesize(config.info.clone());
        let node = Self::spawn_inner(
            config,
            clock,
            Some(file),
            ReactorRef::Shared(reactor.handle().clone()),
            reactor.monitor().clone(),
        )?;
        node.register()?;
        Ok(node)
    }

    fn spawn_inner(
        config: NodeConfig,
        clock: Clock,
        file: Option<MediaFile>,
        reactor: ReactorRef,
        monitor: Monitor,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let port = listener.local_addr()?.port();
        let supplier_config =
            SupplierConfig::new(config.num_classes, config.idle_timeout_ms, config.protocol)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let state = SupplierState::new(config.class, supplier_config, clock.now_ms())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;

        let shared = Arc::new(SupplierShared {
            class: config.class,
            clock,
            admission: Mutex::new(AdmissionGuard {
                state,
                rng: SmallRng::seed_from_u64(config.id.get() ^ 0xda7a_5eed),
                reserved: false,
            }),
            file: Mutex::new(file),
            stop: std::sync::atomic::AtomicBool::new(false),
        });

        // Attach before the listener goes live: the node's tag picks its
        // reactor shard, and that shard's commands are processed in
        // order, so no accepted connection can miss its node state.
        let tag = NEXT_TAG.fetch_add(1, Ordering::Relaxed);
        let pool = reactor.pool();
        let shard = pool.shard(tag);
        shard.send(NodeCmd::Attach {
            tag,
            shared: Arc::clone(&shared),
        });
        if let Err(e) = shard.add_listener(listener, tag) {
            // Roll the attach back: without this a failed spawn on a
            // shared reactor would pin the node's state in the handler's
            // map for the reactor's whole lifetime.
            shard.send(NodeCmd::Detach { tag });
            return Err(e);
        }

        Ok(PeerNode {
            session_rng: Mutex::new(SmallRng::seed_from_u64(config.id.get() ^ 0x5e55)),
            config,
            shared,
            port,
            tag,
            reactor: Some(reactor),
            monitor,
        })
    }

    /// The node's identity.
    pub fn id(&self) -> PeerId {
        self.config.id
    }

    /// The node's class.
    pub fn class(&self) -> PeerClass {
        self.config.class
    }

    /// The node's listening port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Whether the node owns the complete media file (and can supply it).
    pub fn is_supplier(&self) -> bool {
        self.shared.file.lock().is_some()
    }

    /// A shared view of the node's media file, if it owns one ([`MediaFile`]
    /// clones are O(1) views of one allocation — handy for byte-level
    /// verification in tests and tools).
    pub fn media_file(&self) -> Option<MediaFile> {
        self.shared.file.lock().clone()
    }

    /// A snapshot of the node's current admission probability vector
    /// (with idle relaxation folded in up to now) — the paper's
    /// per-supplier `DACp2p` state, exposed for monitoring and tests.
    pub fn admission_vector(&self) -> p2ps_core::admission::AdmissionVector {
        let now = self.shared.clock.now_ms();
        self.shared.admission.lock().state.vector_at(now).clone()
    }

    /// Whether the node is currently busy serving a streaming session.
    pub fn is_busy(&self) -> bool {
        self.shared.admission.lock().state.is_busy()
    }

    /// The hosting reactor's introspection tree root (the same tree as
    /// [`NodeReactor::monitor`] when the node is hosted on a shared
    /// reactor). This node's in-flight sessions appear as
    /// `reactor={shard} / session={id}` scopes.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    fn register(&self) -> io::Result<()> {
        register_supplier(
            self.config.directory,
            self.config.info.name(),
            self.config.id,
            self.config.class,
            self.port,
        )
    }

    /// One admission attempt (paper §4.2) followed, on success, by the
    /// full streaming session; afterwards the node stores the file,
    /// registers as a supplier and returns the session outcome.
    ///
    /// Equivalent to [`begin_stream`](Self::begin_stream) +
    /// [`PendingStream::wait`]: the admission handshake *and* the paced
    /// reception run on the node's reactor pool, this thread only
    /// blocks on the result.
    ///
    /// # Errors
    ///
    /// * [`NodeError::Rejected`] — could not secure the playback rate;
    ///   retry after a backoff (the paper's `T_bkf · E_bkf^(i-1)`).
    /// * [`NodeError::SuppliersLost`] / [`NodeError::IncompleteStream`] /
    ///   [`NodeError::Io`] — suppliers failed mid-session beyond what
    ///   live replanning could recover.
    pub fn request_stream(&self, m: usize) -> Result<StreamOutcome, NodeError> {
        self.begin_stream(m)?.wait()
    }

    /// Starts one streaming session without blocking: connects to the
    /// candidates (loopback, bounded), then hands the whole round to
    /// the node's reactor pool, where a pipelined sans-io
    /// [`AdmissionDriver`](p2ps_proto::AdmissionDriver) probes **every**
    /// candidate lane concurrently — N candidates cost ~max(RTT), not
    /// Σ(RTT) — and, on admission, the granted connections flow
    /// straight into the event-driven receiving session. No reader
    /// threads anywhere. The returned [`PendingStream`] resolves to the
    /// outcome; hundreds of sessions can be in flight per process this
    /// way (sharded across the pool's reactor threads by session id).
    ///
    /// # Errors
    ///
    /// Directory-query I/O errors surface here. The admission verdict is
    /// asynchronous: [`NodeError::Rejected`] — like everything
    /// mid-stream — surfaces from [`PendingStream::wait`].
    pub fn begin_stream(&self, m: usize) -> Result<PendingStream, NodeError> {
        let candidates = query_candidates(self.config.directory, self.config.info.name(), m)?;
        self.begin_stream_from(candidates)
    }

    /// Like [`begin_stream`](Self::begin_stream) with an explicit
    /// candidate set instead of a directory query — for deployments with
    /// out-of-band supplier knowledge (tracker hints, prior sessions) and
    /// for harnesses that need deterministic supplier placement.
    ///
    /// # Errors
    ///
    /// Same as [`begin_stream`](Self::begin_stream).
    pub fn begin_stream_from(
        &self,
        candidates: Vec<p2ps_proto::CandidateRecord>,
    ) -> Result<PendingStream, NodeError> {
        let session: u64 = self.session_rng.lock().gen();
        let pool = self
            .reactor
            .as_ref()
            .expect("node is not shut down while handles exist")
            .pool();
        // Registered before admission so the `probing` phase is visible
        // while the §4.2 handshake runs; an admission failure drops the
        // probe and the session scope vanishes from snapshots.
        let probe = SessionProbe::register(&self.monitor, pool.shard_index(session), session);
        let mut classes = Vec::with_capacity(candidates.len());
        let mut streams = Vec::with_capacity(candidates.len());
        for rec in &candidates {
            classes.push(rec.class);
            let addr = SocketAddr::from(([127, 0, 0, 1], rec.port));
            let stream = std::net::TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
                .and_then(|s| {
                    s.set_nodelay(true)?;
                    Ok(s)
                })
                .ok();
            streams.push(stream);
        }
        let (done, rx) = std::sync::mpsc::channel();
        pool.shard(session)
            .send(NodeCmd::StartAdmission(Box::new(AdmissionLaunch {
                session,
                class: self.config.class,
                info: self.config.info.clone(),
                policy: self.config.policy.clone(),
                classes,
                streams,
                probe,
                done,
            })));
        Ok(PendingStream {
            rx,
            shared: Arc::clone(&self.shared),
            info: self.config.info.clone(),
            directory: self.config.directory,
            id: self.config.id,
            class: self.config.class,
            port: self.port,
        })
    }

    /// Like [`request_stream`](Self::request_stream) but retries rejected
    /// attempts up to `max_attempts` times with the given backoff between
    /// attempts (a scaled-down version of the paper's retry loop).
    ///
    /// # Errors
    ///
    /// The final error once attempts are exhausted.
    pub fn request_stream_with_retry(
        &self,
        m: usize,
        max_attempts: u32,
        backoff: std::time::Duration,
    ) -> Result<StreamOutcome, NodeError> {
        let mut last = NodeError::Rejected { reminders_left: 0 };
        for attempt in 0..max_attempts.max(1) {
            match self.request_stream(m) {
                Ok(outcome) => return Ok(outcome),
                Err(e @ NodeError::Rejected { .. }) => {
                    last = e;
                    if attempt + 1 < max_attempts {
                        std::thread::sleep(backoff);
                    }
                }
                Err(other) => return Err(other),
            }
        }
        Err(last)
    }

    /// Stops serving: detaches from the reactor (closing this node's
    /// listener and connections; in-flight sessions abort like a supplier
    /// crash). A node-owned reactor is shut down and joined; a shared one
    /// keeps running for its other nodes.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        let Some(reactor) = self.reactor.take() else {
            return;
        };
        let pool = reactor.pool();
        let shard = pool.shard(self.tag);
        shard.remove_listener(self.tag);
        shard.send(NodeCmd::Detach { tag: self.tag });
        if let ReactorRef::Owned(owned) = reactor {
            owned.shutdown(); // joins the reactor threads
        }
    }
}

impl Drop for PeerNode {
    fn drop(&mut self) {
        if self.reactor.is_some() {
            self.stop_inner();
        }
    }
}

/// A streaming session in flight on the node's reactor pool
/// ([`PeerNode::begin_stream`]). Dropping it abandons the result (the
/// reactor still finishes or fails the session and releases the
/// suppliers).
pub struct PendingStream {
    rx: Receiver<SessionResult>,
    shared: Arc<SupplierShared>,
    info: MediaInfo,
    directory: SocketAddr,
    id: PeerId,
    class: PeerClass,
    port: u16,
}

impl std::fmt::Debug for PendingStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingStream")
            .field("id", &self.id)
            .field("item", &self.info.name())
            .finish()
    }
}

impl PendingStream {
    /// Blocks until the session completes; on success the node stores the
    /// received file, registers as a supplier with the directory, and the
    /// outcome is returned — identical post-conditions to
    /// [`PeerNode::request_stream`].
    ///
    /// # Errors
    ///
    /// Whatever the round or session ended with —
    /// [`NodeError::Rejected`] when the pipelined admission could not
    /// secure the playback rate, [`NodeError::SuppliersLost`] /
    /// [`NodeError::IncompleteStream`] mid-stream, or
    /// [`NodeError::Protocol`] if the reactor shut down underneath the
    /// session.
    pub fn wait(self) -> Result<StreamOutcome, NodeError> {
        // The reactor hands the finished session over as it stands;
        // turning it into the outcome and the store is this thread's work.
        let (outcome, store) = self
            .rx
            .recv()
            .map_err(|_| NodeError::Protocol("reactor shut down mid-session".into()))??
            .into_outcome();
        let file = MediaFile::from_store(self.info.clone(), &store).ok_or(
            NodeError::IncompleteStream {
                received: store.len() as u64,
                expected: self.info.segment_count(),
            },
        )?;
        *self.shared.file.lock() = Some(file);
        // A node shut down while its session was in flight keeps the
        // completed file but must not advertise a listener nobody runs.
        if !self.shared.stop.load(Ordering::Relaxed) {
            register_supplier(
                self.directory,
                self.info.name(),
                self.id,
                self.class,
                self.port,
            )?;
        }
        Ok(outcome)
    }
}
