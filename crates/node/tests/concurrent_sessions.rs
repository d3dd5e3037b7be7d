//! ≥64 simultaneous paced streaming sessions on ONE reactor thread.
//!
//! 64 supplier nodes share a single [`NodeReactor`]; 64 blocking
//! requesters (plain `read_message`/`write_message` over `TcpStream`,
//! the unchanged wire format) each run the §4.2 handshake and receive a
//! full §3-paced stream concurrently. The test verifies:
//!
//! * **bytes** — every received segment is bit-identical to the
//!   synthesized media file;
//! * **pacing** — segment `p` never arrives before its `(p+1)·δt`
//!   deadline (minus timer-granularity slack), so sessions take at least
//!   the schedule's length;
//! * **concurrency** — the 64 sessions overlap: total wall time is far
//!   below the serial sum of their paced durations.
//!
//! A second test runs the reactor-hosted requester side on the same
//! shape and pins two things the reactor thread no longer does per
//! session or per read burst: the `StreamOutcome` is assembled by the
//! thread that calls `wait()`, from what the reactor measured, and a
//! lane keeps ONE read timer armed however many bursts it receives.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use p2ps_core::assignment::SegmentDuration;
use p2ps_core::{PeerClass, PeerId};
use p2ps_media::{MediaFile, MediaInfo};
use p2ps_node::{Clock, DirectoryServer, NodeConfig, NodeReactor, PeerNode, StreamOutcome};
use p2ps_proto::{read_message, write_message, CandidateRecord, Message, SessionPlan};

const SESSIONS: usize = 64;
const SEGMENTS: u64 = 16;
const DT_MS: u64 = 10;
const PAYLOAD: usize = 512;

#[test]
fn sixty_four_simultaneous_sessions_on_one_reactor_thread() {
    let info = MediaInfo::new(
        "concurrent",
        SEGMENTS,
        SegmentDuration::from_millis(DT_MS),
        PAYLOAD as u32,
    );
    let reference = MediaFile::synthesize(info.clone());
    let dir = DirectoryServer::start().unwrap();
    let clock = Clock::new();

    // One serving thread for all 64 supplier nodes.
    let reactor = NodeReactor::new().unwrap();
    let nodes: Vec<PeerNode> = (0..SESSIONS as u64)
        .map(|i| {
            let cfg = NodeConfig::new(
                PeerId::new(i),
                PeerClass::HIGHEST, // grants class-1 requesters with P = 1
                info.clone(),
                dir.addr(),
            );
            PeerNode::spawn_seed_on(cfg, clock.clone(), &reactor).unwrap()
        })
        .collect();

    let ports: Vec<u16> = nodes.iter().map(PeerNode::port).collect();
    let wall_start = Instant::now();
    let handles: Vec<_> = ports
        .into_iter()
        .enumerate()
        .map(|(i, port)| {
            let info = info.clone();
            let reference = reference.clone();
            std::thread::spawn(move || run_session(i as u64, port, &info, &reference))
        })
        .collect();
    for h in handles {
        h.join().expect("requester thread panicked");
    }
    let wall = wall_start.elapsed();

    // Each session is paced to SEGMENTS · DT_MS = 160 ms; 64 of them
    // serially would need ≈ 10.2 s. Overlapping on one reactor thread
    // they must land far below half of that.
    let serial = Duration::from_millis(SESSIONS as u64 * SEGMENTS * DT_MS);
    assert!(
        wall < serial / 2,
        "64 sessions took {wall:?}; not concurrent (serial would be {serial:?})"
    );

    drop(nodes);
    reactor.shutdown();
    dir.shutdown();
}

/// One blocking requester: handshake, receive the paced stream, verify
/// bytes and §3 deadlines.
fn run_session(session: u64, port: u16, info: &MediaInfo, reference: &MediaFile) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    write_message(
        &mut stream,
        &Message::StreamRequest {
            session,
            class: PeerClass::HIGHEST,
        },
    )
    .unwrap();
    match read_message(&mut stream).unwrap() {
        Message::Grant { session: s, .. } => assert_eq!(s, session),
        other => panic!("session {session}: expected grant, got {}", other.name()),
    }

    // Single-supplier OTSp2p plan: this peer serves every segment, one
    // per δt.
    let start = Instant::now();
    write_message(
        &mut stream,
        &Message::StartSession {
            session,
            plan: SessionPlan {
                item: info.name().to_owned(),
                segments: vec![0],
                period: 1,
                total_segments: info.segment_count(),
                dt_ms: DT_MS as u32,
            },
        },
    )
    .unwrap();

    let mut next = 0u64;
    loop {
        match read_message(&mut stream).unwrap() {
            Message::SegmentData {
                session: s,
                index,
                payload,
            } => {
                assert_eq!(s, session);
                assert_eq!(index, next, "segments arrive in schedule order");
                let expected = reference.segment(index).into_payload();
                assert_eq!(
                    payload, expected,
                    "session {session}: segment {index} bytes differ"
                );
                // §3 pacing: transmission p completes at (p+1)·δt after
                // session start. Allow timer-wheel granularity plus a
                // little scheduling slack, but a segment arriving a whole
                // period early means pacing is broken.
                let deadline = Duration::from_millis((index + 1) * DT_MS);
                let early_by = deadline.saturating_sub(start.elapsed());
                assert!(
                    early_by < Duration::from_millis(DT_MS),
                    "session {session}: segment {index} arrived {early_by:?} early"
                );
                next += 1;
            }
            Message::EndSession { session: s } => {
                assert_eq!(s, session);
                break;
            }
            other => panic!("session {session}: unexpected {}", other.name()),
        }
    }
    assert_eq!(next, info.segment_count(), "full file received");
    // The whole session cannot beat its own schedule.
    let floor = Duration::from_millis(SEGMENTS * DT_MS - DT_MS);
    assert!(
        start.elapsed() >= floor,
        "session {session} finished in {:?}, under the §3 pacing floor {floor:?}",
        start.elapsed()
    );
}

/// Sessions of the firehose test, each pinned to its own seed.
const HOSE_SESSIONS: usize = 8;
/// One small segment per millisecond: ~1,000 read bursts per lane.
const HOSE_SEGMENTS: u64 = 1_024;
/// The reactor's timer kinds per connection (read-progress and pacing).
const TIMER_KINDS: i64 = 2;
/// Wheel entries a connection's handshake leaves behind for a few
/// seconds: the admission reply timer the read timer replaces, and on
/// the supplier side the accept timer the grant timer replaces plus that
/// grant timer, disarmed when streaming starts.
const HANDSHAKE_LEFTOVERS: i64 = 3;

#[test]
fn outcomes_are_the_reactors_measurements_and_lanes_keep_one_read_timer() {
    let info = MediaInfo::new(
        "firehose",
        HOSE_SEGMENTS,
        SegmentDuration::from_millis(1),
        32,
    );
    let reference = MediaFile::synthesize(info.clone());
    let dir = DirectoryServer::start().unwrap();
    let clock = Clock::new();
    let reactor = NodeReactor::new().unwrap();
    let spawn = |id: u64, seed: bool| {
        let cfg = NodeConfig::new(
            PeerId::new(id),
            PeerClass::HIGHEST,
            info.clone(),
            dir.addr(),
        );
        if seed {
            PeerNode::spawn_seed_on(cfg, clock.clone(), &reactor).unwrap()
        } else {
            PeerNode::spawn_on(cfg, clock.clone(), &reactor).unwrap()
        }
    };
    let seeds: Vec<PeerNode> = (0..HOSE_SESSIONS as u64).map(|i| spawn(i, true)).collect();
    let viewers: Vec<PeerNode> = (0..HOSE_SESSIONS as u64)
        .map(|i| spawn(100 + i, false))
        .collect();

    let gauge = |name: &str| {
        let snap = reactor.monitor().snapshot();
        let metric = snap.find(&[("reactor", "0")], name);
        metric.expect("reactor gauge").value().as_i64()
    };
    let started = Instant::now();
    let pending: Vec<_> = viewers
        .iter()
        .zip(&seeds)
        .map(|(viewer, seed)| {
            viewer
                .begin_stream_from(vec![CandidateRecord {
                    id: seed.id(),
                    class: seed.class(),
                    port: seed.port(),
                }])
                .unwrap()
        })
        .collect();

    // Watch the wheel while the streams run. Every lane receives a read
    // burst every millisecond or two; an entry per burst would pile up
    // thousands of them within the first second.
    let mut peak_entries = 0;
    let mut peak_conns = 0;
    let paced = Duration::from_millis(HOSE_SEGMENTS);
    while started.elapsed() < paced * 3 / 4 {
        peak_entries = peak_entries.max(gauge("timer_entries"));
        peak_conns = peak_conns.max(gauge("connections"));
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        peak_conns,
        2 * HOSE_SESSIONS as i64,
        "both ends of every session live on the one reactor"
    );
    assert!(
        peak_entries <= peak_conns * TIMER_KINDS + HOSE_SESSIONS as i64 * HANDSHAKE_LEFTOVERS,
        "{peak_entries} wheel entries for {peak_conns} connections: a read burst must not leave one behind"
    );

    // Let every session finish, and then some, before anyone asks for
    // its outcome: what `wait()` reports is what the reactor measured
    // when the last segment arrived, not when the outcome was built.
    let linger = Duration::from_millis(600);
    std::thread::sleep(paced.saturating_sub(started.elapsed()) + linger);
    let outcomes: Vec<StreamOutcome> = pending.into_iter().map(|p| p.wait().unwrap()).collect();
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_eq!(outcome.supplier_count, 1, "session {i}");
        assert_eq!(outcome.supplier_classes, vec![PeerClass::HIGHEST]);
        assert_eq!(outcome.theoretical_delay_ms, 1, "n·δt of one supplier");
        assert!(
            (1..100).contains(&outcome.measured_delay_ms),
            "session {i}: measured delay {} ms",
            outcome.measured_delay_ms
        );
        assert!(
            (HOSE_SEGMENTS - 1..HOSE_SEGMENTS + linger.as_millis() as u64 / 2)
                .contains(&outcome.duration_ms),
            "session {i}: {} ms is not the paced length of the stream",
            outcome.duration_ms
        );
    }
    for (i, viewer) in viewers.iter().enumerate() {
        let file = viewer.media_file().expect("wait() stored the file");
        for s in 0..HOSE_SEGMENTS {
            assert_eq!(
                file.segment(s).into_payload(),
                reference.segment(s).into_payload(),
                "session {i}: segment {s} bytes differ"
            );
        }
        assert!(viewer.is_supplier());
    }

    drop(viewers);
    drop(seeds);
    reactor.shutdown();
    dir.shutdown();
}
