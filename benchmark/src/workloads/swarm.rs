//! The three live-swarm workloads: real TCP on loopback, every node's
//! supplier and requester side on **one** reactor thread.
//!
//! Load shape: a closed loop of `clients` viewers, each with one session
//! in flight: spawn a peer, obtain candidates, start the stream, block in
//! `wait()`, check the received file, start the next peer. The pinned
//! workloads run all viewers from **one** generator thread, first in,
//! first out — their sessions are uniform, so the oldest finishes first
//! and the generator sleeps in `recv` for most of the pass. `swarm_grow`
//! gives every viewer its own thread: its sessions differ (retries,
//! supplier count), and a viewer's wait must be timed where it happens,
//! not behind another viewer's blocking call. Either way the sockets
//! doing the work are peer-to-peer connections inside the system under
//! test, all on the one reactor thread.
//!
//! The pass is time-boxed: viewers start sessions until the deadline,
//! rates count the sessions that completed inside the measured window
//! (after a warm-up share), and the sessions still in flight at the
//! deadline drain unmeasured but are still checked.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use p2ps_core::assignment::SegmentDuration;
use p2ps_core::{PeerClass, PeerId};
use p2ps_media::{MediaFile, MediaInfo};
use p2ps_net::sys::{syscall_counts, SyscallCounts};
use p2ps_node::{
    query_candidates, Clock, DirectoryServer, NodeConfig, NodeError, NodeReactor, PeerNode,
    PendingStream, StreamOutcome,
};
use p2ps_proto::CandidateRecord;

use super::{Outcome, Prepared};
use crate::gen;
use crate::stats;
use crate::sysinfo;
use crate::trace::{SpanId, Tracer};

/// Directory connections (queries + registrations) one pass may open
/// toward the directory's single port. Closed client sockets linger 60 s
/// in TIME_WAIT and the ephemeral range holds ~28 k, so a pass that would
/// exceed this stops starting sessions and says so.
const PORT_BUDGET: u64 = 20_000;

/// How requesters find their suppliers.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Viewer `k` always streams from seed `perm[k]`; every peer is
    /// class 1 and leaves after its session.
    Pinned,
    /// The paper's system: lookup through the directory, the class mix
    /// of §5.1, and every served peer stays as a supplier.
    Grow {
        /// Suppliers registered before the first request.
        initial: usize,
        /// How many of them are class-1 seeds.
        initial_class1: usize,
        /// Candidates per lookup (paper `M`).
        m: usize,
        /// Back-off after a rejected attempt.
        retry: Duration,
    },
}

/// Shape of one swarm workload.
#[derive(Debug, Clone, Copy)]
struct Spec {
    name: &'static str,
    /// The end-to-end metric this workload exists for; the traced pass is
    /// compared with the untraced one on it.
    headline: &'static str,
    segments: u64,
    segment_bytes: u32,
    dt_ms: u64,
    /// Closed-loop viewers, each with one session in flight.
    clients: usize,
    /// Generator threads the viewers are dealt to. One for the pinned
    /// workloads, whose sessions finish in the order they started; one
    /// per viewer for `swarm_grow`, where a retrying viewer must not
    /// hold up the others' clocks.
    generators: usize,
    /// One received file in this many is compared with the source.
    verify_every: u64,
    /// Share of the pass run before the measured window opens.
    warmup: f64,
    /// Share of the pass before which sessions do not count towards the
    /// latency statistics (never earlier than `warmup`).
    latency_from: f64,
    /// Attempts before a viewer gives up (a failed operation).
    max_attempts: u32,
    mode: Mode,
}

const BULK: Spec = Spec {
    name: "swarm_bulk",
    headline: "payload_mib_per_s",
    segments: 64,
    segment_bytes: 64 * 1024,
    dt_ms: 1,
    clients: 32,
    generators: 1,
    verify_every: 16,
    warmup: 0.15,
    latency_from: 0.15,
    max_attempts: 50,
    mode: Mode::Pinned,
};

const SMALL: Spec = Spec {
    name: "swarm_small",
    headline: "segments_per_s",
    segments: 512,
    segment_bytes: 256,
    dt_ms: 1,
    clients: 512,
    generators: 1,
    verify_every: 1,
    warmup: 0.15,
    latency_from: 0.15,
    max_attempts: 50,
    mode: Mode::Pinned,
};

const GROW: Spec = Spec {
    name: "swarm_grow",
    headline: "sessions_per_s",
    segments: 12,
    segment_bytes: 1024,
    dt_ms: 20,
    clients: 24,
    generators: 24,
    verify_every: 1,
    // The growth from 64 suppliers *is* the workload: rates count all of
    // it. Latencies are read after the cold start, during which 24
    // viewers contend for 22 R0 of capacity and most joins are retries
    // whose number depends on the drawn classes.
    warmup: 0.0,
    latency_from: 0.3,
    // 200 × 5 ms is four session lengths: the first 24 viewers contend
    // for 22 R0 of cold-start capacity and must outlast one generation.
    max_attempts: 200,
    mode: Mode::Grow {
        initial: 64,
        initial_class1: 4,
        m: 8,
        retry: Duration::from_millis(5),
    },
};

/// Set-up of `swarm_bulk`.
pub fn setup_bulk(seed: u64, _seconds: f64) -> Box<dyn Prepared + Send> {
    Box::new(Swarm::start(BULK, seed))
}

/// Set-up of `swarm_small`.
pub fn setup_small(seed: u64, _seconds: f64) -> Box<dyn Prepared + Send> {
    Box::new(Swarm::start(SMALL, seed))
}

/// Set-up of `swarm_grow`.
pub fn setup_grow(seed: u64, _seconds: f64) -> Box<dyn Prepared + Send> {
    Box::new(Swarm::start(GROW, seed))
}

/// A started deployment: directory, one reactor thread, initial seeds.
/// Fields drop in declaration order, which is the shutdown order: nodes
/// detach from a live reactor, the reactor joins, the directory last.
struct Swarm {
    seeds: Vec<PeerNode>,
    reactor: NodeReactor,
    dir: DirectoryServer,
    spec: Spec,
    clock: Clock,
    info: MediaInfo,
    reference: MediaFile,
    /// Pinned mode: viewer `k`'s candidate.
    pinned: Vec<CandidateRecord>,
    /// Grow mode: the requesters' classes, in arrival order.
    classes: Vec<u8>,
    id_base: u64,
}

fn class(k: u8) -> PeerClass {
    PeerClass::new(k).expect("generated classes are 1..=4")
}

impl Swarm {
    fn start(spec: Spec, seed: u64) -> Swarm {
        let need = (spec.clients as u64) * 6 + 256;
        assert!(
            sysinfo::fd_limit() >= need,
            "{}: needs about {need} file descriptors, `ulimit -n` allows {}",
            spec.name,
            sysinfo::fd_limit()
        );
        let info = MediaInfo::new(
            spec.name,
            spec.segments,
            SegmentDuration::from_millis(spec.dt_ms),
            spec.segment_bytes,
        );
        // The reactor thread is the system under test and gets a CPU to
        // itself: threads inherit the affinity of the thread that spawns
        // them, so the mask is narrowed around the reactor's creation and
        // widened to the *other* CPUs for everything that follows
        // (directory, generators). Without this the scheduler now and then
        // wakes a generator on the reactor's CPU and the rate halves for
        // as long as it stays there.
        let cpus = sysinfo::initial_cpus();
        let pinned_reactor = cpus.len() >= 2 && sysinfo::pin_current_thread(&cpus[..1]);
        let reactor = NodeReactor::with_threads(1).expect("reactor starts");
        if pinned_reactor {
            sysinfo::pin_current_thread(&cpus[1..]);
        }
        let dir = DirectoryServer::start().expect("directory starts");
        let clock = Clock::new();
        let id_base = gen::peer_id_base(seed);

        let (seed_classes, classes): (Vec<u8>, Vec<u8>) = match spec.mode {
            Mode::Pinned => (vec![1; spec.clients], Vec::new()),
            Mode::Grow {
                initial,
                initial_class1,
                ..
            } => {
                let mut s = vec![1u8; initial_class1];
                s.extend(gen::class_sequence(
                    seed,
                    "initial-suppliers",
                    initial - initial_class1,
                    &gen::PAPER_CLASS_MIX,
                ));
                let requesters = gen::class_sequence(
                    seed,
                    "requesters",
                    PORT_BUDGET as usize,
                    &gen::PAPER_CLASS_MIX,
                );
                (s, requesters)
            }
        };
        let seeds: Vec<PeerNode> = seed_classes
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let cfg = NodeConfig::new(
                    PeerId::new(id_base + i as u64),
                    class(*k),
                    info.clone(),
                    dir.addr(),
                );
                PeerNode::spawn_seed_on(cfg, clock.clone(), &reactor).expect("seed starts")
            })
            .collect();
        let pinned = match spec.mode {
            Mode::Pinned => gen::permutation(seed, "pairs", seeds.len())
                .into_iter()
                .map(|i| CandidateRecord {
                    id: seeds[i].id(),
                    class: seeds[i].class(),
                    port: seeds[i].port(),
                })
                .collect(),
            Mode::Grow { .. } => Vec::new(),
        };
        Swarm {
            spec,
            dir,
            reactor,
            clock,
            reference: MediaFile::synthesize(info.clone()),
            info,
            seeds,
            pinned,
            classes,
            id_base,
        }
    }
}

/// One finished (or failed) viewer operation.
struct Record {
    done_at: Instant,
    /// `Err` carries the failure description.
    result: Result<Done, String>,
    attempts: u32,
}

struct Done {
    /// First lookup to `wait()` returning, minus the stream itself.
    join_ms: f64,
    /// First lookup to `wait()` returning: the viewer's whole turn.
    turn_ms: f64,
    outcome: StreamOutcome,
}

/// What one generator thread hands back.
struct ClientResult {
    records: Vec<Record>,
    tracer: Tracer,
    cpu_ns: u64,
    wall_ns: u64,
    /// Grow mode: the peers that now supply.
    kept: Vec<PeerNode>,
    verified: u64,
}

/// Counters read at the edges of the measured window.
#[derive(Clone, Copy)]
struct Edge {
    at: Instant,
    sys: SyscallCounts,
    cpu_ns: u64,
    listen_overflows: u64,
}

impl Edge {
    fn now() -> Edge {
        Edge {
            at: Instant::now(),
            sys: syscall_counts(),
            cpu_ns: sysinfo::process_cpu_ns(),
            listen_overflows: sysinfo::listen_overflows(),
        }
    }
}

struct Shared<'a> {
    swarm: &'a Swarm,
    dir: SocketAddr,
    start: Instant,
    deadline: Instant,
    next: AtomicU64,
    dir_conns: AtomicU64,
    traced: bool,
}

/// A peer between `begin_stream_from` and the end of `wait`.
struct InFlight {
    slot: usize,
    serial: u64,
    node: PeerNode,
    /// The viewer's first lookup: its wait starts here and includes
    /// every retry.
    first: Instant,
    root: SpanId,
    attempts: u32,
    pending: PendingStream,
}

impl Shared<'_> {
    /// One generator thread: its share of the viewer slots, served first
    /// in, first out. With one slot the thread *is* the viewer; with many
    /// it waits for the oldest session, which uniform pinned sessions
    /// also finish first.
    fn generator(&self, g: usize) -> ClientResult {
        let spec = &self.swarm.spec;
        let mut out = ClientResult {
            records: Vec::new(),
            tracer: Tracer::new(self.traced),
            cpu_ns: 0,
            wall_ns: 0,
            kept: Vec::new(),
            verified: 0,
        };
        let (cpu0, wall0) = (sysinfo::thread_cpu_ns(), Instant::now());
        // Viewers start spread over one nominal session length. Started
        // together they finish together, wave after wave, and a window
        // edge then cuts a whole wave in or out of the count.
        let nominal = Duration::from_millis(spec.segments * spec.dt_ms);
        let mut queue = VecDeque::new();
        for slot in (g..spec.clients).step_by(spec.generators) {
            let due = self.start + nominal.mul_f64(slot as f64 / spec.clients as f64);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            queue.extend(self.launch(slot, &mut out));
        }
        while let Some(inflight) = queue.pop_front() {
            let slot = inflight.slot;
            match self.settle(inflight, &mut out) {
                Some(retry) => queue.push_back(retry),
                None => queue.extend(self.launch(slot, &mut out)),
            }
        }
        out.cpu_ns = sysinfo::thread_cpu_ns() - cpu0;
        out.wall_ns = wall0.elapsed().as_nanos() as u64;
        out
    }

    /// Spawns the next peer on `slot` and starts its first attempt;
    /// `None` once the pass is over (or the peer could not even start,
    /// which is recorded as a failed operation).
    fn launch(&self, slot: usize, out: &mut ClientResult) -> Option<InFlight> {
        let sw = self.swarm;
        let spec = &sw.spec;
        let over_budget =
            self.dir_conns.load(Ordering::Relaxed) + 2 * spec.clients as u64 > PORT_BUDGET;
        if Instant::now() >= self.deadline || over_budget {
            return None;
        }
        let serial = self.next.fetch_add(1, Ordering::Relaxed);
        let peer_class = match spec.mode {
            Mode::Pinned => PeerClass::HIGHEST,
            Mode::Grow { .. } => class(sw.classes[serial as usize % sw.classes.len()]),
        };
        let cfg = NodeConfig::new(
            PeerId::new(sw.id_base + 1_000_000 + serial),
            peer_class,
            sw.info.clone(),
            self.dir,
        );
        let tr = &mut out.tracer;
        let root = tr.begin("session", None, serial);
        let span = tr.begin("node.spawn", Some(root), serial);
        let node = PeerNode::spawn_on(cfg, sw.clock.clone(), &sw.reactor);
        tr.end(span);
        let first = Instant::now();
        let begun = node
            .map_err(NodeError::Io)
            .and_then(|node| Ok((self.begin(slot, serial, &node, root, tr)?, node)));
        match begun {
            Ok((pending, node)) => Some(InFlight {
                slot,
                serial,
                node,
                first,
                root,
                attempts: 1,
                pending,
            }),
            Err(e) => {
                tr.end(root);
                out.records.push(Record {
                    done_at: Instant::now(),
                    result: Err(format!("peer {serial}: {e}")),
                    attempts: 0,
                });
                None
            }
        }
    }

    /// Candidates (pinned, or one lookup) and `begin_stream_from`.
    fn begin(
        &self,
        slot: usize,
        serial: u64,
        node: &PeerNode,
        root: SpanId,
        tr: &mut Tracer,
    ) -> Result<PendingStream, NodeError> {
        let sw = self.swarm;
        let candidates = match sw.spec.mode {
            Mode::Pinned => vec![sw.pinned[slot]],
            Mode::Grow { m, .. } => {
                self.dir_conns.fetch_add(1, Ordering::Relaxed);
                let span = tr.begin("lookup.query", Some(root), serial);
                let list = query_candidates(self.dir, sw.info.name(), m);
                tr.end(span);
                list?
            }
        };
        let span = tr.begin("node.begin_stream", Some(root), serial);
        let pending = node.begin_stream_from(candidates);
        tr.end(span);
        pending
    }

    /// Blocks in `wait()`. A rejected attempt backs off and begins again
    /// (returned for the caller to queue); anything else ends the peer:
    /// check the file, record, leave or stay as a supplier.
    fn settle(&self, inflight: InFlight, out: &mut ClientResult) -> Option<InFlight> {
        let sw = self.swarm;
        let spec = &sw.spec;
        let InFlight {
            slot,
            serial,
            node,
            first,
            root,
            attempts,
            pending,
        } = inflight;
        let tr = &mut out.tracer;
        let wait0 = Instant::now();
        let waited = pending.wait();
        let wait1 = Instant::now();
        let result = match waited {
            Ok(outcome) => {
                // `wait` registered the peer as a supplier.
                self.dir_conns.fetch_add(1, Ordering::Relaxed);
                let streamed = Duration::from_millis(outcome.duration_ms);
                let split = wait1.checked_sub(streamed).map_or(wait0, |t| t.max(wait0));
                tr.record("node.wait.join", Some(root), serial, wait0, split);
                tr.record("node.wait.stream", Some(root), serial, split, wait1);
                let turn_ms = (wait1 - first).as_secs_f64() * 1e3;
                Ok(Done {
                    join_ms: turn_ms - outcome.duration_ms as f64,
                    turn_ms,
                    outcome,
                })
            }
            Err(NodeError::Rejected { .. }) if attempts < spec.max_attempts => {
                tr.record("node.wait.rejected", Some(root), serial, wait0, wait1);
                std::thread::sleep(match spec.mode {
                    // Only the previous session's reservation tail on the
                    // pinned seed rejects; it clears in microseconds.
                    Mode::Pinned => Duration::from_micros(200),
                    Mode::Grow { retry, .. } => retry,
                });
                match self.begin(slot, serial, &node, root, tr) {
                    Ok(pending) => {
                        return Some(InFlight {
                            slot,
                            serial,
                            node,
                            first,
                            root,
                            attempts: attempts + 1,
                            pending,
                        })
                    }
                    Err(e) => Err(format!("peer {serial}: {e}")),
                }
            }
            Err(NodeError::Rejected { .. }) => {
                Err(format!("peer {serial}: rejected {attempts} times"))
            }
            Err(e) => Err(format!("peer {serial}: {e}")),
        };

        let result = result.and_then(|done| {
            if serial % spec.verify_every != 0 {
                return Ok(done);
            }
            out.verified += 1;
            let file = node
                .media_file()
                .ok_or("no file after a completed stream")?;
            let intact = file.info() == sw.reference.info()
                && file.iter().all(|segment| sw.reference.verify(&segment));
            if intact {
                Ok(done)
            } else {
                Err(format!(
                    "peer {serial}: received file differs from the source"
                ))
            }
        });

        match (spec.mode, result.is_ok()) {
            (Mode::Grow { .. }, true) => out.kept.push(node),
            _ => {
                let span = tr.begin("node.shutdown", Some(root), serial);
                node.shutdown();
                tr.end(span);
            }
        }
        tr.end(root);
        out.records.push(Record {
            done_at: wait1,
            result,
            attempts,
        });
        None
    }
}

impl Prepared for Swarm {
    fn run(self: Box<Self>, seconds: f64, tracer: &mut Tracer) -> Outcome {
        let spec = self.spec;
        let start = Instant::now();
        let open_at = start + Duration::from_secs_f64(seconds * spec.warmup);
        let deadline = start + Duration::from_secs_f64(seconds);
        let shared = Shared {
            swarm: &self,
            dir: self.dir.addr(),
            start,
            deadline,
            next: AtomicU64::new(0),
            dir_conns: AtomicU64::new(self.seeds.len() as u64),
            traced: tracer.enabled(),
        };

        let (clients, open, close) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spec.generators)
                .map(|g| {
                    let shared = &shared;
                    std::thread::Builder::new()
                        .name(format!("generator-{g}"))
                        .spawn_scoped(scope, move || shared.generator(g))
                        .expect("generator thread starts")
                })
                .collect();
            std::thread::sleep(open_at.saturating_duration_since(Instant::now()));
            let open = Edge::now();
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            let close = Edge::now();
            let clients: Vec<ClientResult> = handles
                .into_iter()
                .map(|h| h.join().expect("generator thread does not panic"))
                .collect();
            (clients, open, close)
        });

        let mut out = Outcome::default();
        let budget_hit =
            shared.dir_conns.load(Ordering::Relaxed) + 2 * spec.clients as u64 > PORT_BUDGET;
        if budget_hit {
            out.fail(format!(
                "{}: loopback port budget of {PORT_BUDGET} directory connections exhausted before the deadline",
                spec.name
            ));
        }
        summarize(&spec, seconds, clients, open, close, tracer, &mut out);
        out
    }
}

/// Folds the viewers' records into metrics.
fn summarize(
    spec: &Spec,
    seconds: f64,
    clients: Vec<ClientResult>,
    open: Edge,
    close: Edge,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    // The pass began `seconds` before the window closed.
    let latency_open =
        (close.at - Duration::from_secs_f64(seconds * (1.0 - spec.latency_from))).max(open.at);
    let (mut join_ms, mut turn_ms, mut ratio, mut session_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut counted, mut attempts, mut suppliers, mut verified) = (0u64, 0u64, 0u64, 0u64);
    let (mut cpu_ns, mut wall_ns) = (0u64, 0u64);
    let mut kept = Vec::new();
    for client in clients {
        cpu_ns += client.cpu_ns;
        wall_ns = wall_ns.max(client.wall_ns);
        verified += client.verified;
        tracer.absorb(client.tracer);
        kept.extend(client.kept);
        for rec in client.records {
            out.attempted += 1;
            match rec.result {
                Err(what) => out.fail(what),
                Ok(done) if rec.done_at > open.at && rec.done_at <= close.at => {
                    counted += 1;
                    attempts += u64::from(rec.attempts);
                    suppliers += done.outcome.supplier_count as u64;
                    if rec.done_at > latency_open {
                        join_ms.push(done.join_ms);
                        turn_ms.push(done.turn_ms);
                        session_ms.push(done.outcome.duration_ms as f64);
                        ratio.push(
                            done.outcome.measured_delay_ms as f64
                                / done.outcome.theoretical_delay_ms.max(1) as f64,
                        );
                    }
                }
                Ok(_) => {}
            }
        }
    }
    for node in kept {
        node.shutdown();
    }
    if join_ms.is_empty() {
        out.fail(format!(
            "{}: no session completed inside the window",
            spec.name
        ));
        return;
    }

    let wall = (close.at - open.at).as_secs_f64();
    let sessions = counted as f64;
    let segments = sessions * spec.segments as f64;
    let payload_mib = segments * f64::from(spec.segment_bytes) / (1024.0 * 1024.0);
    stats::sort(&mut join_ms);
    stats::sort(&mut ratio);
    let join = stats::summarize(&join_ms).expect("not empty");
    let turn = stats::summarize(&turn_ms).expect("not empty");
    let start = stats::summarize(&ratio).expect("not empty");
    let sess = stats::summarize(&session_ms).expect("not empty");
    let sys = close.sys.since(&open.sys);
    let cpu = (close.cpu_ns - open.cpu_ns) as f64;
    let busy = cpu_ns as f64 / wall_ns.max(1) as f64;
    let nominal_ms = (spec.segments * spec.dt_ms) as f64;

    // What a viewer waits for. Where nothing is saturated (`swarm_grow`)
    // that is the join, stream subtracted, and the start-up delay over
    // Theorem 1's n·δt. The join's tail is read at p75: about one viewer
    // in ten is rejected once and pays a fixed 5 ms back-off, so p90 sits
    // on that step and jumps with the drawn classes (it stays in the
    // ledger as `node.join_ms_p90`). Delays are whole milliseconds, so
    // the ratio is read as band means, which move when the share of late
    // sessions does. Where the reactor is saturated the join is queueing,
    // the small difference of two large numbers: the reading is the
    // viewer's whole turn, and the stream's length over its playback
    // length.
    let band = |v: &[f64], lo, hi| stats::band_mean(v, lo, hi).expect("not empty");
    let latency: [(&'static str, f64); 4] = match spec.mode {
        Mode::Grow { .. } => [
            ("join_ms_p50", join.p50),
            ("join_ms_p75", join.p75),
            ("startup_ratio_p50", band(&ratio, 0.4, 0.6)),
            ("startup_ratio_p90", band(&ratio, 0.85, 0.95)),
        ],
        Mode::Pinned => [
            ("join_ms_p50", turn.p50),
            ("join_ms_p75", turn.p75),
            ("startup_ratio_p50", sess.p50 / nominal_ms),
            ("startup_ratio_p90", sess.p90 / nominal_ms),
        ],
    };

    out.wall_s = wall;
    out.end_to_end = vec![
        ("payload_mib_per_s", payload_mib / wall),
        ("segments_per_s", segments / wall),
        ("sessions_per_s", sessions / wall),
        // No simulator runs here: a "run" is one turnover of the viewer
        // window, a "peer" one requester taken through its whole life.
        ("sim_runs_per_s", sessions / wall / spec.clients as f64),
        ("sim_peers_per_s", sessions / wall),
    ];
    out.end_to_end.extend(latency);
    out.headline = out
        .end_to_end
        .iter()
        .find(|(name, _)| *name == spec.headline)
        .map_or(0.0, |(_, value)| *value);
    out.per_layer = vec![
        ("net.syscalls_per_segment", sys.total() as f64 / segments),
        ("net.syscalls_per_session", sys.total() as f64 / sessions),
        (
            "net.epoll_waits_per_segment",
            sys.epoll_waits as f64 / segments,
        ),
        ("net.writevs_per_segment", sys.writevs as f64 / segments),
        ("net.reads_per_segment", sys.reads as f64 / segments),
        (
            "net.listen_overflows",
            close.listen_overflows.saturating_sub(open.listen_overflows) as f64,
        ),
        ("node.cpu_us_per_segment", cpu / 1e3 / segments),
        ("node.cpu_ms_per_session", cpu / 1e6 / sessions),
        ("node.reject_ratio", 1.0 - sessions / attempts as f64),
        ("node.attempts_per_join", attempts as f64 / sessions),
        ("node.suppliers_per_session", suppliers as f64 / sessions),
        ("node.join_ms_p50", join.p50),
        ("node.join_ms_p90", join.p90),
        ("node.join_ms_p99", join.p99),
        ("node.startup_ratio_mean", start.mean),
        ("node.session_ms_p50", sess.p50),
        ("node.session_ms_tail", sess.tail),
        ("node.stream_ms", sess.mean),
        ("trace.driver_busy_share", busy),
    ];
    let totals = tracer.totals();
    let mean_us = |name: &str| {
        totals
            .get(name)
            .filter(|t| t.count > 0)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count as f64)
    };
    if tracer.enabled() {
        out.per_layer.extend([
            ("node.spawn_us", mean_us("node.spawn")),
            ("node.begin_stream_us", mean_us("node.begin_stream")),
            ("node.wait_us", mean_us("node.wait.join")),
            ("node.shutdown_us", mean_us("node.shutdown")),
        ]);
    }
    if busy > 0.8 {
        out.fail(format!(
            "{}: the generator was on-CPU {:.0} % of the pass; it, not the system, set the rate",
            spec.name,
            busy * 100.0
        ));
    }
    out.notes.push(format!(
        "{}: {counted} sessions in a {wall:.2} s window of a {seconds:.1} s pass ({} started), \
         {verified} files verified (1 in {}), join p50 {:.3} ms p90 {:.3} ms (n={}), turn p50 {:.1} ms, \
         session p50 {:.1} ms tail p{} {:.1} ms, {:.2} syscalls/segment, generator busy {:.1} %",
        spec.name,
        out.attempted,
        spec.verify_every,
        join.p50,
        join.p90,
        join.n,
        turn.p50,
        sess.p50,
        sess.tail_at * 100.0,
        sess.tail,
        sys.total() as f64 / segments,
        busy * 100.0,
    ));
    for (name, t) in &totals {
        out.notes.push(format!(
            "  span {name:<20} n={:<7} mean {:>10.1} us  self {:>10.1} us",
            t.count,
            t.total_ns as f64 / 1e3 / t.count.max(1) as f64,
            t.self_ns as f64 / 1e3 / t.count.max(1) as f64,
        ));
    }
}
