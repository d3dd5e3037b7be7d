//! The reactor-hosted admission pipeline against slow and frozen
//! candidates: the acceptance pin that a 64-candidate round costs
//! ~max(RTT), not Σ(RTT), and that a candidate which never replies
//! delays admission by no more than its own reply timeout — with the
//! session completing byte-for-byte either way.

use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use p2ps_core::assignment::SegmentDuration;
use p2ps_core::{PeerClass, PeerId};
use p2ps_media::{MediaFile, MediaInfo};
use p2ps_node::{Clock, DirectoryServer, NodeConfig, NodeReactor, PeerNode};
use p2ps_proto::{CandidateRecord, Message};

mod wire;
use wire::{read_message, write_message};

const SEGMENTS: u64 = 16;
const DT_MS: u64 = 20;

fn test_info(name: &str) -> MediaInfo {
    MediaInfo::new(name, SEGMENTS, SegmentDuration::from_millis(DT_MS), 64)
}

/// A candidate that takes `delay` to refuse: accepts one connection,
/// reads the `StreamRequest`, sleeps, sends a plain `Deny`, and hangs
/// up. Returns the listener's port.
fn slow_deny_candidate(delay: Duration) -> u16 {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let port = listener.local_addr().unwrap().port();
    std::thread::spawn(move || {
        let Ok((mut conn, _)) = listener.accept() else {
            return;
        };
        let _ = conn.set_read_timeout(Some(Duration::from_secs(60)));
        let Ok(Message::StreamRequest { session, .. }) = read_message(&mut conn) else {
            return;
        };
        std::thread::sleep(delay);
        let _ = write_message(
            &mut conn,
            &Message::Deny {
                session,
                busy: false,
                favored: false,
            },
        );
    });
    port
}

/// A candidate that accepts the connection, reads the `StreamRequest`,
/// and never says anything at all. Returns the listener's port.
fn frozen_candidate() -> u16 {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let port = listener.local_addr().unwrap().port();
    std::thread::spawn(move || {
        let Ok((mut conn, _)) = listener.accept() else {
            return;
        };
        let _ = conn.set_read_timeout(Some(Duration::from_secs(60)));
        let Ok(Message::StreamRequest { .. }) = read_message(&mut conn) else {
            return;
        };
        // Silence. Block until the requester times the lane out and
        // hangs up (bounded by the read timeout above).
        let _ = read_message(&mut conn);
    });
    port
}

/// A class-`class` candidate that grants only after `delay`, then
/// reports the next frame the requester sends it (`None` if the
/// connection just closed). Returns the listener's port and the report.
fn late_grant_candidate(
    class: PeerClass,
    delay: Duration,
) -> (u16, mpsc::Receiver<Option<Message>>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let port = listener.local_addr().unwrap().port();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let Ok((mut conn, _)) = listener.accept() else {
            return;
        };
        let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
        let Ok(Message::StreamRequest { session, .. }) = read_message(&mut conn) else {
            return;
        };
        std::thread::sleep(delay);
        let _ = write_message(&mut conn, &Message::Grant { session, class });
        let _ = tx.send(read_message(&mut conn).ok());
    });
    (port, rx)
}

/// A candidate that answers the round, after `delay`, with a
/// `SegmentData` of `bytes` payload bytes instead of a grant or a
/// denial, then reports once the requester has hung up on it. Returns
/// the listener's port and the report.
fn stray_segment_candidate(delay: Duration, bytes: usize) -> (u16, mpsc::Receiver<()>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let port = listener.local_addr().unwrap().port();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let Ok((mut conn, _)) = listener.accept() else {
            return;
        };
        let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
        let Ok(Message::StreamRequest { session, .. }) = read_message(&mut conn) else {
            return;
        };
        std::thread::sleep(delay);
        let payload = Bytes::from(vec![0xAB; bytes]);
        let _ = write_message(
            &mut conn,
            &Message::SegmentData {
                session,
                index: 0,
                payload,
            },
        );
        if read_message(&mut conn).is_err() {
            let _ = tx.send(());
        }
    });
    (port, rx)
}

/// Full byte verification of a completed session.
fn assert_streamed_exactly(node: &PeerNode, info: &MediaInfo) {
    let reference = MediaFile::synthesize(info.clone());
    let file = node
        .media_file()
        .expect("completed session stores the file");
    for s in 0..info.segment_count() {
        assert_eq!(
            file.segment(s).into_payload(),
            reference.segment(s).into_payload(),
            "segment {s} bytes differ"
        );
    }
    assert!(node.is_supplier(), "a completed requester re-registers");
}

/// 64 candidates, 63 of which take 500 ms to refuse, one real seed that
/// grants. Probed sequentially the denials alone cost 63 · 500 ms =
/// 31.5 s; pipelined they overlap, so the whole round — and the paced
/// stream after it — lands in ~1 slow-RTT. The seed is the *last* lane,
/// so the greedy fold genuinely waits on every slow lane before it may
/// commit the grant: the bound proves concurrency, not luck.
#[test]
fn sixty_four_candidate_round_costs_one_slow_rtt_not_the_sum() {
    const SLOW: usize = 63;
    let slow_rtt = Duration::from_millis(500);

    let info = test_info("admission-pipeline");
    let dir = DirectoryServer::start().unwrap();
    let clock = Clock::new();
    let reactor = NodeReactor::with_threads(2).unwrap();

    let seed_cfg = NodeConfig::new(PeerId::new(1), PeerClass::HIGHEST, info.clone(), dir.addr());
    let seed = PeerNode::spawn_seed_on(seed_cfg, clock.clone(), &reactor).unwrap();

    let mut candidates: Vec<CandidateRecord> = (0..SLOW)
        .map(|i| CandidateRecord {
            id: PeerId::new(100 + i as u64),
            class: PeerClass::HIGHEST,
            port: slow_deny_candidate(slow_rtt),
        })
        .collect();
    candidates.push(CandidateRecord {
        id: seed.id(),
        class: seed.class(),
        port: seed.port(),
    });

    let req_cfg = NodeConfig::new(PeerId::new(2), PeerClass::HIGHEST, info.clone(), dir.addr());
    let requester = PeerNode::spawn_on(req_cfg, clock.clone(), &reactor).unwrap();

    let start = Instant::now();
    let pending = requester.begin_stream_from(candidates).unwrap();
    let outcome = pending.wait().unwrap();
    let wall = start.elapsed();

    // Lower bound: the fold cannot commit the seed's grant before every
    // slow lane ahead of it settles, and none refuses before 500 ms.
    assert!(
        wall >= Duration::from_millis(400),
        "round decided in {wall:?} — the slow lanes were never consulted"
    );
    // Upper bound: ~1 slow-RTT + the paced stream (≈0.3 s), with CI
    // slack. Sequential probing could not beat 31.5 s.
    assert!(
        wall < Duration::from_secs(5),
        "64-candidate round took {wall:?}; admission is not pipelined"
    );

    assert_eq!(outcome.supplier_count, 1, "the one real seed supplies");
    assert_streamed_exactly(&requester, &info);

    requester.shutdown();
    seed.shutdown();
    reactor.shutdown();
    dir.shutdown();
}

/// A frozen candidate (accepts, reads the request, never replies) ahead
/// of a granting seed: the round must still admit — after the frozen
/// lane's own ~2 s reply timeout, and no later — and the stream must
/// complete byte-for-byte off the healthy lane.
#[test]
fn frozen_candidate_delays_admission_only_by_its_own_timeout() {
    let info = test_info("admission-frozen");
    let dir = DirectoryServer::start().unwrap();
    let clock = Clock::new();
    let reactor = NodeReactor::with_threads(2).unwrap();

    let seed_cfg = NodeConfig::new(PeerId::new(1), PeerClass::HIGHEST, info.clone(), dir.addr());
    let seed = PeerNode::spawn_seed_on(seed_cfg, clock.clone(), &reactor).unwrap();

    // Lane 0 frozen, lane 1 the real seed: same class, so the fold
    // blocks on the frozen lane until its per-lane timer refuses it.
    let candidates = vec![
        CandidateRecord {
            id: PeerId::new(99),
            class: PeerClass::HIGHEST,
            port: frozen_candidate(),
        },
        CandidateRecord {
            id: seed.id(),
            class: seed.class(),
            port: seed.port(),
        },
    ];

    let req_cfg = NodeConfig::new(PeerId::new(2), PeerClass::HIGHEST, info.clone(), dir.addr());
    let requester = PeerNode::spawn_on(req_cfg, clock.clone(), &reactor).unwrap();

    let start = Instant::now();
    let pending = requester.begin_stream_from(candidates).unwrap();
    let outcome = pending.wait().unwrap();
    let wall = start.elapsed();

    // The frozen lane is refused by its 2 s reply timer — not by the
    // 30 s streaming read timeout, and not by anything the healthy lane
    // does. Admission therefore lands at ≈2 s + the paced stream.
    assert!(
        wall >= Duration::from_millis(1_500),
        "round decided in {wall:?} — the frozen lane never ran its timer"
    );
    assert!(
        wall < Duration::from_secs(10),
        "frozen lane delayed the round {wall:?}, beyond its own timeout"
    );

    assert_eq!(outcome.supplier_count, 1, "the one real seed supplies");
    assert_streamed_exactly(&requester, &info);

    requester.shutdown();
    seed.shutdown();
    reactor.shutdown();
    dir.shutdown();
}

/// A grant that lands after the round already admitted holds a
/// reservation the requester will never use: the requester releases it
/// at once instead of leaving the supplier to find out when the
/// connection drops or its grant TTL runs out.
#[test]
fn a_grant_arriving_after_admission_is_released() {
    let info = test_info("admission-late-grant");
    let dir = DirectoryServer::start().unwrap();
    let clock = Clock::new();
    let reactor = NodeReactor::with_threads(1).unwrap();

    let seed_cfg = NodeConfig::new(PeerId::new(1), PeerClass::HIGHEST, info.clone(), dir.addr());
    let seed = PeerNode::spawn_seed_on(seed_cfg, clock.clone(), &reactor).unwrap();
    // The class-1 seed alone secures R0, so the round admits on its
    // grant; the class-2 candidate answers 300 ms later.
    let class2 = PeerClass::new(2).unwrap();
    let (late_port, late) = late_grant_candidate(class2, Duration::from_millis(300));
    let candidates = vec![
        CandidateRecord {
            id: seed.id(),
            class: seed.class(),
            port: seed.port(),
        },
        CandidateRecord {
            id: PeerId::new(99),
            class: class2,
            port: late_port,
        },
    ];

    let req_cfg = NodeConfig::new(PeerId::new(2), PeerClass::HIGHEST, info.clone(), dir.addr());
    let requester = PeerNode::spawn_on(req_cfg, clock.clone(), &reactor).unwrap();
    let outcome = requester
        .begin_stream_from(candidates)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(outcome.supplier_count, 1, "the late grant is not used");

    match late.recv_timeout(Duration::from_secs(10)).unwrap() {
        Some(Message::Release { .. }) => {}
        other => panic!("the late grant was answered with {other:?}, not a Release"),
    }
    assert_streamed_exactly(&requester, &info);

    requester.shutdown();
    seed.shutdown();
    reactor.shutdown();
    dir.shutdown();
}

/// A candidate still answering the round is no supplier: a segment it
/// sends once the round has admitted costs it its lane, and its bytes
/// are not the stream's progress. They must not reach the session's
/// byte counter (nor pay back the watchdog's recovery budget).
#[test]
fn a_segment_from_a_lane_that_streams_nothing_is_not_progress() {
    // 2 s of stream at 20 ms: the stray lands mid-session.
    const LONG: u64 = 100;
    const SEGMENT_BYTES: u32 = 64;
    let info = MediaInfo::new(
        "admission-stray-segment",
        LONG,
        SegmentDuration::from_millis(DT_MS),
        SEGMENT_BYTES,
    );
    let dir = DirectoryServer::start().unwrap();
    let clock = Clock::new();
    let reactor = NodeReactor::with_threads(1).unwrap();

    let seed_cfg = NodeConfig::new(PeerId::new(1), PeerClass::HIGHEST, info.clone(), dir.addr());
    let seed = PeerNode::spawn_seed_on(seed_cfg, clock.clone(), &reactor).unwrap();
    // The class-1 seed alone secures R0; the class-2 candidate answers
    // 150 ms later with a segment nobody asked it for.
    let class2 = PeerClass::new(2).unwrap();
    let (stray_port, hung_up) = stray_segment_candidate(Duration::from_millis(150), 50_000);
    let candidates = vec![
        CandidateRecord {
            id: seed.id(),
            class: seed.class(),
            port: seed.port(),
        },
        CandidateRecord {
            id: PeerId::new(99),
            class: class2,
            port: stray_port,
        },
    ];

    let req_cfg = NodeConfig::new(PeerId::new(2), PeerClass::HIGHEST, info.clone(), dir.addr());
    let requester = PeerNode::spawn_on(req_cfg, clock.clone(), &reactor).unwrap();
    let pending = requester.begin_stream_from(candidates).unwrap();
    hung_up
        .recv_timeout(Duration::from_secs(10))
        .expect("the stray lane is closed");

    // Sample the session's byte counter until the session leaves the
    // monitor tree: it never holds more than the file's own payload.
    let counted = || {
        reactor
            .monitor()
            .snapshot()
            .nodes()
            .iter()
            .find_map(|n| n.metric("bytes_received_total"))
            .map(|m| m.value().as_i64())
    };
    let mut samples = 0;
    while let Some(bytes) = counted() {
        assert!(
            bytes <= (LONG * u64::from(SEGMENT_BYTES)) as i64,
            "the stray segment was counted: {bytes} payload bytes received"
        );
        samples += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(samples > 0, "the session ended before it could be sampled");

    let outcome = pending.wait().unwrap();
    assert_eq!(outcome.supplier_count, 1, "the stray lane supplies nothing");
    assert_streamed_exactly(&requester, &info);

    requester.shutdown();
    seed.shutdown();
    reactor.shutdown();
    dir.shutdown();
}
