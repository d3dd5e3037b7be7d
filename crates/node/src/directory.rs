//! The TCP directory server and its client helpers.
//!
//! The paper's requesters get their `M` candidates "by querying a
//! centralized directory server as in Napster, or by using a distributed
//! lookup service such as Chord" (§4.2, footnote 4). The server serves
//! either through one [`Rendezvous`] index — a [`Directory`] or a
//! [`ChordRing`] — beside one `PeerId → port` map. Both are plain fields
//! of the reactor handler: its thread is their only user, so the serving
//! path takes no lock.
//!
//! The server is a handler on a one-thread [`ReactorPool`]: every client
//! connection gets its own [`FrameDecoder`] and an idle timer on the
//! reactor's wheel, so one idle (or malicious) client can never stall
//! other peers' registrations and queries — the flash-crowd property the
//! lookup service needs.
//!
//! The client helpers ([`register_supplier`], [`query_candidates`]) are
//! blocking: they write [`encode_frame`]'s output and read a reply in two
//! exact reads (the length prefix, then the body) for [`decode_frame`].
//! Each thread keeps its connection to the directory it talked to last
//! open and reuses it for its next message, so a thread pays one TCP
//! handshake, not one per message.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use p2ps_core::{PeerClass, PeerId};
use p2ps_lookup::chord::ChordRing;
use p2ps_lookup::{CandidateInfo, Directory, Rendezvous, SharedDirectory};
use p2ps_monitor::{Counter, Gauge, Monitor};
use p2ps_net::{ConnId, Ctx, Handler, ReactorConfig, ReactorPool};
use p2ps_proto::{
    decode_frame, encode_frame, CandidateRecord, DecodeError, FrameDecoder, Message, MAX_FRAME_LEN,
};

/// How long a directory connection may sit idle before it is dropped.
/// Enforced per connection by the reactor's timer wheel — an idle client
/// holds no thread and blocks nobody.
const DIR_IDLE_TIMEOUT_MS: u64 = 5_000;

/// The read-timeout timer kind on directory connections.
const K_READ: u32 = 0;

/// Attaches each sampled candidate's port.
fn with_ports(picked: Vec<CandidateInfo>, ports: &HashMap<PeerId, u16>) -> Vec<CandidateRecord> {
    picked
        .into_iter()
        .map(|c| CandidateRecord {
            id: c.id,
            class: c.class,
            port: *ports
                .get(&c.id)
                .expect("a supplier's port is recorded before it is indexed"),
        })
        .collect()
}

/// A thread-safe supplier index with ports: a [`SharedDirectory`]
/// (striped by item hash, so registrations and queries touching
/// *different* items never contend on one lock) beside a `PeerId → port`
/// map. All methods take `&self`. The directory server does not use it:
/// its index lives unlocked on its one reactor thread.
///
/// # Examples
///
/// ```
/// use p2ps_node::ShardedRegistry;
/// use p2ps_proto::CandidateRecord;
/// use p2ps_core::{PeerClass, PeerId};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let reg = ShardedRegistry::new(8);
/// reg.register("video", CandidateRecord {
///     id: PeerId::new(1),
///     class: PeerClass::new(2)?,
///     port: 9000,
/// });
/// let mut rng = SmallRng::seed_from_u64(1);
/// assert_eq!(reg.sample("video", 4, &mut rng).len(), 1);
/// assert!(reg.sample("other", 4, &mut rng).is_empty());
/// # Ok::<(), p2ps_core::Error>(())
/// ```
#[derive(Debug)]
pub struct ShardedRegistry {
    index: SharedDirectory,
    ports: Mutex<HashMap<PeerId, u16>>,
}

impl ShardedRegistry {
    /// A registry striped over `shards` locks (at least one).
    pub fn new(shards: usize) -> Self {
        ShardedRegistry {
            index: SharedDirectory::with_stripes(shards),
            ports: Mutex::default(),
        }
    }

    /// Registers (or refreshes) `rec` as a supplier of `item`.
    pub fn register(&self, item: &str, rec: CandidateRecord) {
        // The port first: a concurrent sample never sees a supplier
        // without one.
        self.ports.lock().insert(rec.id, rec.port);
        self.index
            .with_item_mut(item, |d| d.register(item, rec.id, rec.class));
    }

    /// Samples up to `m` distinct candidates for `item`.
    pub fn sample(&self, item: &str, m: usize, rng: &mut SmallRng) -> Vec<CandidateRecord> {
        let picked = self.index.sample(item, m, rng);
        with_ports(picked, &self.ports.lock())
    }
}

/// Per-connection directory state: the frame accumulator plus the last
/// time the client sent anything (for lazy idle-timeout accounting: the
/// timer fires once per timeout window and re-arms from this timestamp,
/// instead of pushing a fresh wheel entry on every received chunk).
struct DirConn {
    dec: FrameDecoder,
    last_data_ms: u64,
}

/// The reactor handler serving the directory protocol: one frame decoder
/// and one idle timer per connection, any number of concurrent clients.
struct DirectoryHandler {
    index: Box<dyn Rendezvous + Send>,
    /// The port each supplier last registered with.
    ports: HashMap<PeerId, u16>,
    rng: SmallRng,
    conns: HashMap<ConnId, DirConn>,
    registrations: Counter,
    queries: Counter,
    records: Gauge,
}

impl DirectoryHandler {
    fn handle_message(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Message) -> bool {
        match msg {
            Message::Register {
                item,
                peer,
                class,
                port,
            } => {
                self.registrations.incr();
                self.ports.insert(peer, port);
                let before = self.index.supplier_count(&item);
                self.index.register(&item, peer, class);
                let added = self.index.supplier_count(&item) - before;
                self.records.add(added as i64);
                true
            }
            Message::QueryCandidates { item, m } => {
                self.queries.incr();
                let picked = self.index.sample(&item, m as usize, &mut self.rng);
                let list = with_ports(picked, &self.ports);
                crate::serve::send(ctx, conn, &Message::Candidates { list });
                true
            }
            // Anything else is a protocol violation: hang up.
            _ => false,
        }
    }
}

impl Handler for DirectoryHandler {
    type Cmd = ();

    fn on_command(&mut self, _ctx: &mut Ctx<'_>, _cmd: ()) {}

    fn on_accept(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _tag: u64) {
        self.conns.insert(
            conn,
            DirConn {
                dec: FrameDecoder::new(),
                last_data_ms: ctx.now_ms(),
            },
        );
        ctx.set_timer(conn, K_READ, DIR_IDLE_TIMEOUT_MS);
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        let Some(st) = self.conns.get_mut(&conn) else {
            return;
        };
        // Progress: record it; the (single, lazily re-armed) idle timer
        // checks this timestamp when it fires.
        st.last_data_ms = ctx.now_ms();
        st.dec.feed(data);
        loop {
            // Re-borrow the decoder each round: handle_message needs all
            // of `self` in between.
            let polled = self
                .conns
                .get_mut(&conn)
                .expect("conn present while dispatching")
                .dec
                .poll();
            match polled {
                Ok(Some(msg)) => {
                    if !self.handle_message(ctx, conn, msg) {
                        ctx.close(conn);
                        self.conns.remove(&conn);
                        return;
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    ctx.close(conn);
                    self.conns.remove(&conn);
                    return;
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _kind: u32) {
        // Lazy idle check: one wheel entry per timeout window per
        // connection, however chatty the client is.
        let Some(st) = self.conns.get_mut(&conn) else {
            return;
        };
        let idle = ctx.now_ms().saturating_sub(st.last_data_ms);
        if idle >= DIR_IDLE_TIMEOUT_MS {
            ctx.close(conn);
            self.conns.remove(&conn);
        } else {
            ctx.set_timer(conn, K_READ, DIR_IDLE_TIMEOUT_MS - idle);
        }
    }

    fn on_close(&mut self, _ctx: &mut Ctx<'_>, conn: ConnId) {
        self.conns.remove(&conn);
    }
}

/// A directory server listening on a loopback TCP port (paper §4.2
/// footnote 4), serving all clients concurrently from one reactor thread.
///
/// Peers send [`Message::Register`] to announce themselves as suppliers
/// and [`Message::QueryCandidates`] to obtain `M` random candidates with
/// their classes and ports.
///
/// # Examples
///
/// ```
/// use p2ps_node::DirectoryServer;
///
/// let dir = DirectoryServer::start()?;
/// assert_ne!(dir.port(), 0);
/// dir.shutdown();
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct DirectoryServer {
    addr: SocketAddr,
    /// One reactor thread; dropping the pool stops and joins it.
    pool: ReactorPool<()>,
    monitor: Monitor,
}

impl DirectoryServer {
    /// Binds an ephemeral loopback port and starts serving with a
    /// centralized (Napster-style) index.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener.
    pub fn start() -> io::Result<Self> {
        Self::start_on(0)
    }

    /// Like [`start`](Self::start), but binds the loopback port `port`
    /// (`0` picks an ephemeral port). Scripts that must hand the
    /// directory address to other processes use this to get a
    /// predictable address.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener — in
    /// particular `AddrInUse` when `port` is already taken.
    pub fn start_on(port: u16) -> io::Result<Self> {
        Self::start_with(Box::new(Directory::new()), port)
    }

    /// Like [`start`](Self::start), but the index is a Chord ring of
    /// `index_nodes` nodes: supplier lists live at each item key's
    /// successor and queries route through finger tables — the paper's
    /// distributed lookup option, behind the same wire protocol.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener.
    pub fn start_with_chord(index_nodes: u64) -> io::Result<Self> {
        let mut ring = ChordRing::new();
        for i in 0..index_nodes.max(1) {
            // Index nodes get ids far away from peer ids to avoid clashes.
            ring.join(PeerId::new(u64::MAX - i));
        }
        Self::start_with(Box::new(ring), 0)
    }

    fn start_with(index: Box<dyn Rendezvous + Send>, port: u16) -> io::Result<Self> {
        let monitor = Monitor::root();
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let cfg = ReactorConfig {
            monitor: monitor.clone(),
            ..ReactorConfig::default()
        };
        let mut index = Some(index);
        let pool = ReactorPool::spawn(1, cfg, |_| DirectoryHandler {
            index: index.take().expect("one shard"),
            ports: HashMap::new(),
            rng: SmallRng::seed_from_u64(0x5eed),
            conns: HashMap::new(),
            registrations: monitor.counter("registrations_total", "Register messages applied"),
            queries: monitor.counter("queries_total", "candidate queries answered"),
            records: monitor.gauge("records", "distinct supplier records in the index"),
        })?;
        pool.handle().shard(0).add_listener(listener, 0)?;
        Ok(DirectoryServer {
            addr,
            pool,
            monitor,
        })
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's introspection tree root: registration/query counters,
    /// the index's `records` gauge and the serving reactor's own stats
    /// under `reactor=0`.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The listening port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Stops the server and joins its reactor thread.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }
}

/// Writes `msg` to `stream` as one frame.
fn send_frame(stream: &mut TcpStream, msg: &Message) -> io::Result<()> {
    let mut frame = BytesMut::new();
    encode_frame(msg, &mut frame);
    stream.write_all(&frame)
}

/// Reads one frame from `stream`: the length prefix, then exactly the
/// body it announces, so no byte of a later frame is consumed.
fn recv_frame(stream: &mut TcpStream) -> io::Result<Message> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(DecodeError::FrameTooLarge(len).into());
    }
    let mut frame = BytesMut::with_capacity(4 + len);
    frame.extend_from_slice(&prefix);
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..])?;
    Ok(decode_frame(&mut frame)?.expect("the frame is whole"))
}

/// A kept-alive client connection older than this is never reused: the
/// server idles a connection out after [`DIR_IDLE_TIMEOUT_MS`], so the
/// client never writes into one the server may be about to close.
const REUSE_WINDOW: Duration = Duration::from_millis(DIR_IDLE_TIMEOUT_MS / 2);

thread_local! {
    /// This thread's connection to the directory it talked to last: the
    /// address, the stream and when it was last used.
    static DIR_CONN: Cell<Option<(SocketAddr, TcpStream, Instant)>> = const { Cell::new(None) };
}

/// Whether the server still holds `stream` open: a nonblocking peek
/// finds nothing to read. EOF, an error or unsolicited bytes mean the
/// server closed or reset the connection — it restarted on the same
/// port, say.
fn is_open(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let quiet =
        matches!(stream.peek(&mut [0u8; 1]), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
    quiet && stream.set_nonblocking(false).is_ok()
}

/// Runs `op` on this thread's connection to `dir`: the kept-alive one
/// when it has the same address, was used within [`REUSE_WINDOW`] and
/// [is open](is_open), else a fresh one, which replaces it. An `op` that
/// fails on a reused connection runs once more on a fresh one — both
/// operations are safe to repeat: a `Register` is a refresh, a query only
/// reads. A connection that saw an error is dropped, never kept: a
/// half-read frame would desynchronise it.
fn with_dir_conn<T>(
    dir: SocketAddr,
    op: impl Fn(&mut TcpStream) -> io::Result<T>,
) -> io::Result<T> {
    if let Some((addr, mut stream, used)) = DIR_CONN.take() {
        if addr == dir && used.elapsed() < REUSE_WINDOW && is_open(&stream) {
            if let Ok(out) = op(&mut stream) {
                DIR_CONN.set(Some((dir, stream, Instant::now())));
                return Ok(out);
            }
        }
    }
    let mut stream = TcpStream::connect(dir)?;
    // Small request/response frames: do not wait to coalesce them.
    stream.set_nodelay(true)?;
    let out = op(&mut stream)?;
    DIR_CONN.set(Some((dir, stream, Instant::now())));
    Ok(out)
}

/// Registers `peer` as a supplier of `item` with the directory at `dir`.
///
/// Registration is fire-and-forget on the wire (`Register` has no
/// acknowledgment). The message goes out on the calling thread's
/// kept-alive directory connection — reused while it was last used less
/// than half the server's 5 s idle timeout ago and the server has not
/// closed it, otherwise replaced by a fresh one — so the same thread's
/// later [`query_candidates`] is answered after the registration is
/// applied: a thread reads its own writes. Across threads registration
/// is **eventually visible**: a query from another thread immediately
/// afterwards may not see the new record yet. The paper's requesters
/// tolerate stale candidate lists by retrying admission.
///
/// # Errors
///
/// Propagates socket errors from a fresh connection. A write that fails
/// on a reused connection is retried once on a fresh one.
pub fn register_supplier(
    dir: SocketAddr,
    item: &str,
    peer: PeerId,
    class: PeerClass,
    port: u16,
) -> io::Result<()> {
    let msg = Message::Register {
        item: item.to_owned(),
        peer,
        class,
        port,
    };
    with_dir_conn(dir, |stream| send_frame(stream, &msg))
}

/// Queries the directory at `dir` for up to `m` candidates for `item`.
/// The wire field is a `u16`: an `m` above `u16::MAX` asks for
/// `u16::MAX`.
///
/// The query shares the calling thread's kept-alive directory connection
/// with [`register_supplier`] (same reuse rule), so it sees every
/// registration this thread sent before it.
///
/// # Errors
///
/// Propagates socket errors from a fresh connection (a query that fails
/// on a reused connection is retried once on a fresh one); a malformed
/// response surfaces as [`std::io::ErrorKind::InvalidData`].
pub fn query_candidates(dir: SocketAddr, item: &str, m: usize) -> io::Result<Vec<CandidateRecord>> {
    let msg = Message::QueryCandidates {
        item: item.to_owned(),
        m: u16::try_from(m).unwrap_or(u16::MAX),
    };
    with_dir_conn(dir, |stream| {
        send_frame(stream, &msg)?;
        match recv_frame(stream)? {
            Message::Candidates { list } => Ok(list),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected candidates, got {}", other.name()),
            )),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(k: u8) -> PeerClass {
        PeerClass::new(k).unwrap()
    }

    #[test]
    fn register_then_query() {
        let dir = DirectoryServer::start().unwrap();
        for i in 0..10u64 {
            register_supplier(
                dir.addr(),
                "video",
                PeerId::new(i),
                class(1 + (i % 4) as u8),
                9000 + i as u16,
            )
            .unwrap();
        }
        // Same thread, same connection: the query sees every registration.
        let got = query_candidates(dir.addr(), "video", 8).unwrap();
        assert_eq!(got.len(), 8);
        let mut ids: Vec<u64> = got.iter().map(|c| c.id.get()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "candidates are distinct");
        dir.shutdown();
    }

    #[test]
    fn start_on_binds_the_requested_port() {
        // Grab a free port, release it, then ask the directory for it.
        // Another thread/process can steal the port in the gap, so retry
        // with a fresh probe instead of flaking.
        let (dir, port) = (0..16)
            .find_map(|_| {
                let probe = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
                let port = probe.local_addr().unwrap().port();
                drop(probe);
                DirectoryServer::start_on(port).ok().map(|d| (d, port))
            })
            .expect("a freshly released loopback port should be bindable");
        assert_eq!(dir.port(), port);
        register_supplier(dir.addr(), "v", PeerId::new(1), class(2), 4242).unwrap();
        let got = query_candidates(dir.addr(), "v", 4).unwrap();
        assert_eq!(got.len(), 1, "directory on the requested port serves");
        // A second bind on the same port must fail loudly, not silently
        // fall back to an ephemeral port.
        assert!(DirectoryServer::start_on(port).is_err());
        dir.shutdown();
    }

    #[test]
    fn unknown_item_yields_empty() {
        let dir = DirectoryServer::start().unwrap();
        let got = query_candidates(dir.addr(), "nope", 8).unwrap();
        assert!(got.is_empty());
        dir.shutdown();
    }

    #[test]
    fn reregistration_replaces_record() {
        let dir = DirectoryServer::start().unwrap();
        register_supplier(dir.addr(), "v", PeerId::new(1), class(4), 1111).unwrap();
        register_supplier(dir.addr(), "v", PeerId::new(1), class(2), 2222).unwrap();
        let got = query_candidates(dir.addr(), "v", 8).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].class, class(2));
        assert_eq!(got[0].port, 2222);
        dir.shutdown();
    }

    #[test]
    fn chord_backend_round_trips() {
        let dir = DirectoryServer::start_with_chord(16).unwrap();
        for i in 0..6u64 {
            register_supplier(
                dir.addr(),
                "chord-item",
                PeerId::new(i),
                class(1 + (i % 4) as u8),
                7000 + i as u16,
            )
            .unwrap();
        }
        let got = query_candidates(dir.addr(), "chord-item", 8).unwrap();
        assert_eq!(got.len(), 6, "all suppliers reachable through the ring");
        for c in &got {
            assert_eq!(c.port, 7000 + c.id.get() as u16, "ports survive the ring");
        }
        assert!(query_candidates(dir.addr(), "other-item", 4)
            .unwrap()
            .is_empty());
        dir.shutdown();
    }

    #[test]
    fn sharded_registry_stripes_by_item() {
        let reg = ShardedRegistry::new(4);
        for i in 0..64u64 {
            reg.register(
                &format!("item-{i}"),
                CandidateRecord {
                    id: PeerId::new(i),
                    class: class(1),
                    port: 1000 + i as u16,
                },
            );
        }
        let mut rng = SmallRng::seed_from_u64(3);
        for i in 0..64u64 {
            let got = reg.sample(&format!("item-{i}"), 8, &mut rng);
            assert_eq!(got.len(), 1, "item-{i} lands in exactly one shard");
            assert_eq!(got[0].id.get(), i);
            assert_eq!(got[0].port, 1000 + i as u16);
        }
        let clamped = ShardedRegistry::new(0);
        clamped.register(
            "v",
            CandidateRecord {
                id: PeerId::new(1),
                class: class(1),
                port: 7,
            },
        );
        assert_eq!(
            clamped.sample("v", 2, &mut rng).len(),
            1,
            "zero stripes clamp to one"
        );
    }

    #[test]
    fn one_connection_can_register_and_query_repeatedly() {
        // The reactor keeps per-connection decode state across frames.
        let dir = DirectoryServer::start().unwrap();
        let mut stream = TcpStream::connect(dir.addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        for i in 0..5u64 {
            send_frame(
                &mut stream,
                &Message::Register {
                    item: "multi".into(),
                    peer: PeerId::new(i),
                    class: class(1),
                    port: 4000 + i as u16,
                },
            )
            .unwrap();
            send_frame(
                &mut stream,
                &Message::QueryCandidates {
                    item: "multi".into(),
                    m: 16,
                },
            )
            .unwrap();
            match recv_frame(&mut stream).unwrap() {
                Message::Candidates { list } => {
                    assert_eq!(list.len(), (i + 1) as usize, "same-conn writes are ordered")
                }
                other => panic!("expected candidates, got {}", other.name()),
            }
        }
        dir.shutdown();
    }

    /// Sends `script` on one connection (so the server applies it in
    /// order) and returns each query's answer, sorted by peer id.
    fn replay(dir: &DirectoryServer, script: &[Message]) -> Vec<Vec<CandidateRecord>> {
        let mut stream = TcpStream::connect(dir.addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let mut answers = Vec::new();
        for msg in script {
            send_frame(&mut stream, msg).unwrap();
            if let Message::QueryCandidates { .. } = msg {
                let Message::Candidates { mut list } = recv_frame(&mut stream).unwrap() else {
                    panic!("expected candidates");
                };
                list.sort_by_key(|c| c.id);
                answers.push(list);
            }
        }
        answers
    }

    fn register(item: &str, peer: u64, k: u8, port: u16) -> Message {
        Message::Register {
            item: item.into(),
            peer: PeerId::new(peer),
            class: class(k),
            port,
        }
    }

    fn query(item: &str) -> Message {
        Message::QueryCandidates {
            item: item.into(),
            m: 64,
        }
    }

    #[test]
    fn napster_and_chord_indexes_answer_one_script_alike() {
        let script = [
            register("a", 1, 1, 5001),
            register("a", 2, 2, 5002),
            register("b", 3, 3, 5003),
            query("a"),
            // Peer 2 comes back on another port with another class.
            register("a", 2, 4, 6002),
            register("b", 1, 1, 5001),
            register("a", 4, 2, 5004),
            query("a"),
            query("b"),
            query("missing"),
        ];
        let napster = DirectoryServer::start().unwrap();
        let chord = DirectoryServer::start_with_chord(8).unwrap();
        let got = replay(&napster, &script);
        assert_eq!(got, replay(&chord, &script));
        let rec = |peer: u64, k: u8, port: u16| CandidateRecord {
            id: PeerId::new(peer),
            class: class(k),
            port,
        };
        assert_eq!(
            got,
            vec![
                vec![rec(1, 1, 5001), rec(2, 2, 5002)],
                vec![rec(1, 1, 5001), rec(2, 4, 6002), rec(4, 2, 5004)],
                vec![rec(1, 1, 5001), rec(3, 3, 5003)],
                vec![],
            ]
        );
        for dir in [napster, chord] {
            let snap = dir.monitor().snapshot();
            let value = |name: &str| snap.find(&[], name).unwrap().value().as_i64();
            assert_eq!(value("registrations_total"), 6);
            assert_eq!(value("records"), 5, "one record per (item, peer)");
            dir.shutdown();
        }
    }

    #[test]
    fn a_refresh_counts_as_a_registration_but_not_a_record() {
        let dir = DirectoryServer::start().unwrap();
        // The query on the same connection is answered after both
        // registrations are applied.
        let answers = replay(
            &dir,
            &[
                register("v", 1, 2, 4000),
                register("v", 1, 2, 4000),
                query("v"),
            ],
        );
        assert_eq!(answers[0].len(), 1);
        let snap = dir.monitor().snapshot();
        let value = |name: &str| snap.find(&[], name).unwrap().value().as_i64();
        assert_eq!(value("registrations_total"), 2);
        assert_eq!(value("records"), 1);
        dir.shutdown();
    }

    #[test]
    fn a_query_for_more_than_u16_max_candidates_saturates() {
        let dir = DirectoryServer::start().unwrap();
        for i in 0..3u64 {
            register_supplier(dir.addr(), "v", PeerId::new(i), class(1), 4000 + i as u16).unwrap();
        }
        let got = query_candidates(dir.addr(), "v", 65_536).unwrap();
        assert_eq!(got.len(), 3, "m = 65,536 must not wrap to 0");
        dir.shutdown();
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let dir = DirectoryServer::start().unwrap();
        let addr = dir.addr();
        drop(dir);
        // After shutdown new queries fail (connection refused) or at least
        // the port is no longer served; give the OS a moment.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let res = query_candidates(addr, "v", 1);
        assert!(res.is_err() || res.unwrap().is_empty());
    }
}
