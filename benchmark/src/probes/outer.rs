//! Probes of the layers that own threads, sockets or whole simulations:
//! net, lookup, node, sim.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use bytes::Bytes;
use p2ps_core::{PeerClass, PeerId};
use p2ps_lookup::chord::{ChordId, ChordRing};
use p2ps_lookup::{Directory, Rendezvous, SharedDirectory};
use p2ps_net::sys::syscall_counts;
use p2ps_net::{ConnId, Ctx, Handler, Reactor, ReactorConfig, TimerWheel};
use p2ps_node::{
    query_candidates, register_supplier, DirectoryServer, SessionDriver, ShardedRegistry,
};
use p2ps_policy::SharedPolicy;
use p2ps_proto::{CandidateRecord, SessionPlan};
use p2ps_sim::{AmpEngine, ArrivalPattern, ScenarioConfig, ScenarioMatrix};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::ns_per_call;
use crate::stats;
use crate::sysinfo;
use crate::workloads::amp::flash_config;

type Out = Vec<(&'static str, f64)>;

/// Supplier records in every directory probed (the issue's shape).
const SUPPLIERS: u64 = 1_000;
/// Candidates per lookup (paper `M`).
const M: usize = 8;

fn class_of(i: u64) -> PeerClass {
    PeerClass::new(1 + (i % 4) as u8).expect("classes 1..=4")
}

/// The smallest possible protocol on a reactor: send back what arrived.
struct Echo;

impl Handler for Echo {
    type Cmd = ();
    fn on_command(&mut self, _: &mut Ctx<'_>, (): ()) {}
    fn on_accept(&mut self, _: &mut Ctx<'_>, _: ConnId, _: u64) {}
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        ctx.send(conn, Bytes::from(data.to_vec()));
    }
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: ConnId, _: u32) {}
    fn on_close(&mut self, _: &mut Ctx<'_>, _: ConnId) {}
}

fn ping(stream: &mut TcpStream, buf: &mut [u8; 64]) {
    stream.write_all(buf).expect("echo server is up");
    stream.read_exact(buf).expect("echo server answers");
}

/// One reactor with a minimal handler: dispatch, syscalls, accept path,
/// and the timer wheel on its own.
pub fn net(out: &mut Out) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("loopback binds");
    let addr = listener.local_addr().expect("bound");
    let (reactor, handle) = Reactor::<()>::new(ReactorConfig::default()).expect("epoll");
    handle
        .add_listener(listener, 0)
        .expect("listener registers");
    let thread = std::thread::spawn(move || reactor.run(&mut Echo));

    let mut buf = [0x5au8; 64];
    let mut stream = TcpStream::connect(addr).expect("echo server accepts");
    stream.set_nodelay(true).expect("nodelay");
    for _ in 0..200 {
        ping(&mut stream, &mut buf);
    }
    const PINGS: u64 = 4_000;
    let (t0, sys0) = (Instant::now(), syscall_counts());
    for _ in 0..PINGS {
        ping(&mut stream, &mut buf);
    }
    let (elapsed, sys) = (t0.elapsed(), syscall_counts().since(&sys0));
    out.push((
        "net.echo_ns_per_dispatch",
        elapsed.as_nanos() as f64 / PINGS as f64,
    ));
    out.push((
        "net.syscalls_per_dispatch",
        sys.total() as f64 / PINGS as f64,
    ));
    drop(stream);

    // Connect, first byte out, first byte back: the accept path end to end.
    let accepts: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let mut s = TcpStream::connect(addr).expect("echo server accepts");
            s.set_nodelay(true).expect("nodelay");
            ping(&mut s, &mut buf);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.push((
        "net.accept_us",
        stats::median(&accepts).expect("200 samples"),
    ));
    handle.shutdown();
    thread
        .join()
        .expect("echo reactor does not panic")
        .expect("echo reactor exits cleanly");

    // Insert a session's worth of pacing timers, then sweep them.
    const TIMERS: u64 = 1_024;
    let mut fired = Vec::with_capacity(TIMERS as usize);
    out.push((
        "net.timer_ns_per_timer",
        ns_per_call(|| {
            let mut wheel: TimerWheel<u64> = TimerWheel::new(2, 512);
            for i in 0..TIMERS {
                wheel.insert(i % 1_000, i);
            }
            fired.clear();
            wheel.advance(1_000, &mut fired);
            black_box(fired.len());
        }) / TIMERS as f64,
    ));
}

fn rendezvous_probe(
    dir: &mut dyn Rendezvous,
    register: &'static str,
    sample: &'static str,
    out: &mut Out,
) {
    for i in 0..SUPPLIERS {
        dir.register("video", PeerId::new(i), class_of(i));
    }
    let mut next = 0u64;
    out.push((
        register,
        ns_per_call(|| {
            // Refreshing a known supplier: what every completed session
            // costs a directory that already knows the swarm.
            next = (next + 1) % SUPPLIERS;
            dir.register("video", PeerId::new(next), class_of(next));
        }),
    ));
    let mut rng = SmallRng::seed_from_u64(1);
    out.push((
        sample,
        ns_per_call(|| {
            black_box(dir.sample(black_box("video"), M, &mut rng));
        }),
    ));
}

/// The in-memory directories and a Chord route.
pub fn lookup(out: &mut Out) {
    rendezvous_probe(
        &mut Directory::new(),
        "lookup.register_ns",
        "lookup.sample_ns",
        out,
    );
    rendezvous_probe(
        &mut SharedDirectory::new(),
        "lookup.shared_register_ns",
        "lookup.shared_sample_ns",
        out,
    );
    let mut ring = ChordRing::new();
    for i in 0..512u64 {
        ring.join(PeerId::new(i));
    }
    let keys: Vec<ChordId> = (0..64)
        .map(|i| ChordId::of_item(&format!("item-{i}")))
        .collect();
    let mut i = 0;
    out.push((
        "lookup.chord_route_ns",
        ns_per_call(|| {
            i = (i + 1) % keys.len();
            black_box(ring.lookup(black_box(keys[i])));
        }),
    ));
}

/// The directory over TCP, the node's registry, the transport-free
/// session driver.
pub fn node(out: &mut Out) {
    let registry = ShardedRegistry::new(16);
    for i in 0..SUPPLIERS {
        registry.register(
            "video",
            CandidateRecord {
                id: PeerId::new(i),
                class: class_of(i),
                port: 9_000,
            },
        );
    }
    let mut rng = SmallRng::seed_from_u64(3);
    out.push((
        "node.registry_sample_ns",
        ns_per_call(|| {
            black_box(registry.sample(black_box("video"), M, &mut rng));
        }),
    ));

    let dir = DirectoryServer::start().expect("directory starts");
    // Registration has no acknowledgement, so nothing paces the sender: a
    // tight loop of them overflows the listener's accept backlog and the
    // dropped SYNs come back a second later. A query is a round trip on a
    // later connection; one per batch keeps the backlog short.
    let drain = || {
        black_box(query_candidates(dir.addr(), "video", M).expect("directory answers"));
    };
    for i in 0..SUPPLIERS {
        register_supplier(dir.addr(), "video", PeerId::new(i), class_of(i), 9_000)
            .expect("directory accepts registrations");
        if i % 32 == 31 {
            drain();
        }
    }
    let queries: Vec<f64> = (0..300)
        .map(|_| {
            let t = Instant::now();
            drain();
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.push((
        "node.dir_query_us",
        stats::median(&queries).expect("300 samples"),
    ));
    let registers: Vec<f64> = (0..300u64)
        .map(|i| {
            let t = Instant::now();
            register_supplier(dir.addr(), "video", PeerId::new(i), class_of(i), 9_000)
                .expect("directory accepts registrations");
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            if i % 32 == 31 {
                drain();
            }
            us
        })
        .collect();
    out.push((
        "node.dir_register_us",
        stats::median(&registers).expect("300 samples"),
    ));
    dir.shutdown();

    const SEGMENTS: u64 = 512;
    let plan = SessionPlan {
        item: "video".into(),
        segments: vec![0],
        period: 1,
        total_segments: SEGMENTS,
        dt_ms: 1,
    };
    let lanes = [(PeerClass::HIGHEST, plan)];
    let payload = Bytes::from(vec![0u8; 256]);
    out.push((
        "node.driver_ns_per_segment",
        ns_per_call(|| {
            let mut driver =
                SessionDriver::new(7, "video", SEGMENTS, 1, SharedPolicy::default(), &lanes);
            for i in 0..SEGMENTS {
                black_box(driver.on_segment(0, i, payload.clone(), i));
            }
        }) / SEGMENTS as f64,
    ));
}

/// Arrival generation, one scenario-matrix cell, and the engine's warmed
/// replay at 10⁵ peers on one thread and on all.
pub fn sim(out: &mut Out) {
    const PEERS: usize = 50_000;
    let mut rng = SmallRng::seed_from_u64(1);
    out.push((
        "sim.arrivals_ns_per_peer",
        ns_per_call(|| {
            black_box(ArrivalPattern::Ramp.generate(PEERS, 72 * 3_600, &mut rng));
        }) / PEERS as f64,
    ));

    let mut matrix = ScenarioMatrix::standard(42);
    matrix.config(ScenarioConfig {
        sessions: 16,
        total_segments: 48,
        startup_window: 8,
    });
    let t0 = Instant::now();
    let cells = matrix.run().cells().len();
    out.push((
        "sim.matrix_cell_ms",
        t0.elapsed().as_secs_f64() * 1e3 / cells.max(1) as f64,
    ));

    let replay = |threads: usize| {
        let mut engine = AmpEngine::new(flash_config(100_000, 128, 32, 16, threads), 7);
        engine.execute(); // warms every queue and buffer
        engine.reset(7);
        let t = Instant::now();
        engine.execute();
        (t.elapsed().as_secs_f64(), engine.report().events)
    };
    let (single_s, events) = replay(1);
    let (all_s, _) = replay(sysinfo::nproc());
    out.push(("sim.engine_replay_events_per_s", events as f64 / single_s));
    out.push(("sim.engine_thread_speedup", single_s / all_s));
}
