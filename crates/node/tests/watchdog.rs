//! Progress deadlines against real sessions. Each requester lane is held
//! to one deadline on its own reactor timer, judged on whole units of
//! progress and never on bytes: a candidate must answer the §4.2 round
//! with a decoded reply within 2 s of its request, and a streaming lane
//! that still owes segments must deliver a new one within the plan's
//! stride plus the grace. A supplier that freezes — or dribbles bytes
//! that never complete a frame — is cut, and the survivors absorb its
//! share so the session completes byte-identical with no caller
//! intervention. When no survivor remains the session fails as
//! `SuppliersLost` instead of hanging. A healthy multi-session swarm is
//! never flagged, and the flight recorder witnesses each sequence.

use std::io::Write;
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::BytesMut;

use p2ps_core::assignment::SegmentDuration;
use p2ps_core::{PeerClass, PeerId};
use p2ps_media::{MediaFile, MediaInfo};
use p2ps_node::{
    Clock, DirectoryServer, NodeConfig, NodeError, NodeReactor, PeerNode, PendingStream,
    StreamOutcome, WatchdogConfig,
};
use p2ps_proto::{
    encode_frame, read_message, write_message, CandidateRecord, Message, SessionEvent,
};

/// A supplier that passes admission and then freezes: accepts one
/// connection, grants the stream request, reads the `StartSession`, and
/// never sends a single segment. Returns the listener's port.
fn frozen_supplier(class: PeerClass) -> u16 {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let port = listener.local_addr().unwrap().port();
    std::thread::spawn(move || {
        let Ok((mut conn, _)) = listener.accept() else {
            return;
        };
        // Bounded reads so the thread dies with the test instead of
        // outliving a failed assertion.
        let _ = conn.set_read_timeout(Some(Duration::from_secs(60)));
        let Ok(Message::StreamRequest { session, .. }) = read_message(&mut conn) else {
            return;
        };
        let _ = write_message(&mut conn, &Message::Grant { session, class });
        let Ok(Message::StartSession { .. }) = read_message(&mut conn) else {
            return;
        };
        // ...and now: silence. Block until the requester hangs up.
        let _ = read_message(&mut conn);
    });
    port
}

/// A scripted survivor: grants, serves its planned share promptly, then
/// keeps the socket open *without* `EndSession` — exactly the posture of
/// a healthy supplier whose partner stalled (its own schedule is drained
/// but the lane is still live). When the recovery replan arrives as an
/// explicit `StartSession`, it serves that share too. Returns the
/// listener's port.
fn rescuer_supplier(class: PeerClass, file: MediaFile) -> u16 {
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
        let _ = write_message(&mut conn, &Message::Grant { session, class });
        // Serve every plan we are sent (the base share, then the
        // recovery share); the requester closes the connection once the
        // file completes.
        while let Ok(Message::StartSession { plan, .. }) = read_message(&mut conn) {
            for index in plan.expanded() {
                let msg = Message::SegmentData {
                    session,
                    index,
                    payload: file.segment(index).into_payload(),
                };
                if write_message(&mut conn, &msg).is_err() {
                    return;
                }
            }
        }
    });
    port
}

/// Returns the position of each event code of `sequence` in `codes`,
/// requiring them to appear in order; panics (with the full timeline)
/// when one is missing.
fn assert_ordered(codes: &[u8], sequence: &[SessionEvent]) {
    let mut from = 0;
    for ev in sequence {
        match codes[from..].iter().position(|&c| c == ev.code()) {
            Some(i) => from += i + 1,
            None => panic!("event {ev} missing (in order) from timeline {codes:?}"),
        }
    }
}

/// The tentpole pin: one supplier freezes mid-stream, one keeps its lane
/// open. The watchdog flags the stall and the escalated recovery replans
/// the frozen share onto the survivor — the session completes
/// byte-identical with the caller doing nothing but `wait()`, the
/// recovery counter increments, and the flight recorder witnesses
/// flag → recovery → replan → completion.
#[test]
fn stalled_session_recovers_over_the_surviving_supplier() {
    // Two class-2 suppliers: each covers half the rate, so the §3 plan
    // needs both — the frozen one's share is real, and the survivor can
    // absorb it (an explicit replan paces at the survivor's own rate).
    let class2 = PeerClass::new(2).unwrap();
    let info = MediaInfo::new("recover-test", 16, SegmentDuration::from_millis(20), 64);
    let file = MediaFile::synthesize(info.clone());
    let dir = DirectoryServer::start().unwrap();
    let clock = Clock::new();
    // Aggressive watchdog: stride for a class-2 lane is 2·δt = 40 ms, so
    // the flag lands ≈ 40 + 150 ms after the survivor's last segment.
    let reactor = NodeReactor::with_options(2, WatchdogConfig { grace_ms: 150 }).unwrap();

    let frozen_port = frozen_supplier(class2);
    let rescuer_port = rescuer_supplier(class2, file.clone());
    let cfg = NodeConfig::new(PeerId::new(3), PeerClass::HIGHEST, info.clone(), dir.addr());
    let node = PeerNode::spawn_on(cfg, clock, &reactor).unwrap();
    let pending = node
        .begin_stream_from(vec![
            CandidateRecord {
                id: PeerId::new(98),
                class: class2,
                port: frozen_port,
            },
            CandidateRecord {
                id: PeerId::new(99),
                class: class2,
                port: rescuer_port,
            },
        ])
        .unwrap();

    // Hold a snapshot from the probing phase: its live handles keep the
    // session's scope (and flight-recorder ring) reachable after the
    // session finishes and drops its probe.
    let early = reactor.monitor().snapshot();

    // No caller intervention: wait() alone must deliver the full file.
    let outcome = pending.wait().expect("recovery must complete the session");
    assert_eq!(outcome.supplier_count, 2);
    assert_eq!(
        node.media_file().expect("completed stream is stored"),
        file,
        "recovered stream must be byte-identical"
    );

    // Counters: at least one stall flagged, at least one successful
    // recovery, and no give-up.
    let snap = reactor.monitor().snapshot();
    let counter = |name: &str| snap.find(&[], name).unwrap().value().as_i64();
    assert!(counter("watchdog_stalls_total") >= 1, "stall was flagged");
    assert!(counter("watchdog_recoveries_total") >= 1, "recovery ran");
    assert_eq!(counter("watchdog_giveups_total"), 0);

    // The flight recorder witnesses the whole arc, in causal order.
    let session_node = early
        .nodes()
        .iter()
        .find(|n| n.kind() == Some("session"))
        .expect("the early snapshot holds the session scope");
    let events = session_node
        .metric("events")
        .and_then(|m| m.handle().as_recorder())
        .expect("sessions register a flight recorder")
        .events();
    let codes: Vec<u8> = events.iter().map(|e| e.code).collect();
    assert_ordered(
        &codes,
        &[
            SessionEvent::AdmissionRequest { lane: 0 },
            SessionEvent::AdmissionGrant { lane: 0 },
            SessionEvent::PlanSent {
                lane: 0,
                segments: 0,
            },
            SessionEvent::SegmentArrived { lane: 0, index: 0 },
            SessionEvent::StallFlagged { lag_ms: 0 },
            SessionEvent::RecoveryStarted {
                lane: 0,
                attempt: 0,
            },
            SessionEvent::Replanned {
                lane: 0,
                segments: 0,
            },
            SessionEvent::Recovered { attempt: 0 },
            SessionEvent::SegmentArrived { lane: 0, index: 0 },
            SessionEvent::Completed { received: 0 },
        ],
    );

    node.shutdown();
    reactor.shutdown();
    dir.shutdown();
}

/// Total loss: the only supplier freezes, so recovery has no survivor to
/// replan onto. The session must fail as `SuppliersLost` after the first
/// fruitless attempt — within the watchdog's window, not the 30 s read
/// timeout — while a concurrent healthy session is never flagged. The
/// give-up is structured: counter plus `GaveUp` flight-recorder event.
#[test]
fn total_supplier_loss_gives_up_as_suppliers_lost() {
    let info = MediaInfo::new("stall-test", 16, SegmentDuration::from_millis(20), 64);
    let dir = DirectoryServer::start().unwrap();
    let clock = Clock::new();
    let reactor = NodeReactor::with_options(2, WatchdogConfig { grace_ms: 150 }).unwrap();

    // The healthy half: a real seed, a real paced session.
    let seed_cfg = NodeConfig::new(PeerId::new(1), PeerClass::HIGHEST, info.clone(), dir.addr());
    let seed = PeerNode::spawn_seed_on(seed_cfg, clock.clone(), &reactor).unwrap();
    let healthy_cfg = NodeConfig::new(PeerId::new(2), PeerClass::HIGHEST, info.clone(), dir.addr());
    let healthy = PeerNode::spawn_on(healthy_cfg, clock.clone(), &reactor).unwrap();
    let healthy_pending = healthy.begin_stream(4).unwrap();

    // The stalled half: admission succeeds, then nothing ever arrives.
    let frozen_port = frozen_supplier(PeerClass::HIGHEST);
    let stalled_cfg = NodeConfig::new(PeerId::new(3), PeerClass::HIGHEST, info.clone(), dir.addr());
    let stalled = PeerNode::spawn_on(stalled_cfg, clock.clone(), &reactor).unwrap();
    let stalled_pending = stalled
        .begin_stream_from(vec![CandidateRecord {
            id: PeerId::new(99),
            class: PeerClass::HIGHEST,
            port: frozen_port,
        }])
        .unwrap();
    let early = reactor.monitor().snapshot();

    // The watchdog must resolve the stall on its own: flag ≈ stride
    // (20 ms) + grace (150 ms) + one interval after launch, then the
    // escalated recovery fails the only lane and gives up — wait()
    // returns SuppliersLost without the reactor's 30 s read timeout.
    match stalled_pending.wait() {
        Err(NodeError::SuppliersLost { missing }) => assert_eq!(missing, 16),
        other => panic!("expected SuppliersLost, got {other:?}"),
    }

    // The healthy session streams through all of it untouched.
    healthy_pending.wait().unwrap();
    let snap = reactor.monitor().snapshot();
    let counter = |name: &str| snap.find(&[], name).unwrap().value().as_i64();
    assert_eq!(
        counter("watchdog_stalls_total"),
        1,
        "only the frozen session may be flagged"
    );
    assert_eq!(
        counter("watchdog_giveups_total"),
        1,
        "one structured give-up"
    );
    assert_eq!(
        counter("watchdog_recoveries_total"),
        0,
        "nothing to recover onto"
    );

    // The timeline ends in GaveUp, with no Recovered and no Completed.
    let session_node = early
        .nodes()
        .iter()
        .find(|n| {
            n.kind() == Some("session")
                && n.metric("received_segments")
                    .map(|m| m.value().as_i64() == 0)
                    .unwrap_or(false)
        })
        .expect("the early snapshot holds the frozen session's scope");
    let events = session_node
        .metric("events")
        .and_then(|m| m.handle().as_recorder())
        .expect("sessions register a flight recorder")
        .events();
    let codes: Vec<u8> = events.iter().map(|e| e.code).collect();
    assert_ordered(
        &codes,
        &[
            SessionEvent::StallFlagged { lag_ms: 0 },
            SessionEvent::RecoveryStarted {
                lane: 0,
                attempt: 0,
            },
            SessionEvent::GaveUp { missing: 0 },
        ],
    );
    let gone = |ev: SessionEvent| !codes.contains(&ev.code());
    assert!(gone(SessionEvent::Recovered { attempt: 0 }));
    assert!(gone(SessionEvent::Completed { received: 0 }));

    stalled.shutdown();
    healthy.shutdown();
    seed.shutdown();
    reactor.shutdown();
    dir.shutdown();
}

/// A healthy 64-session swarm: the acceptance pin that the tree reports
/// per-reactor queue depth, per-session state and owed-queue lag for a
/// live ≥64-session swarm — and that the watchdog flags none of it.
#[test]
fn healthy_sixty_four_session_swarm_flags_nothing() {
    const SESSIONS: usize = 64;
    const SEEDS: u64 = 80;
    const SEGMENTS: u64 = 64;
    const DT_MS: u64 = 30;

    let info = MediaInfo::new(
        "healthy-swarm",
        SEGMENTS,
        SegmentDuration::from_millis(DT_MS),
        64,
    );
    let dir = DirectoryServer::start().unwrap();
    let clock = Clock::new();
    // A watchful watchdog: 500 ms grace against a 30 ms pacing stride.
    // Healthy paced sessions deliver a segment every δt, so nothing may
    // come within an order of magnitude of the deadline.
    let reactor = NodeReactor::with_options(2, WatchdogConfig { grace_ms: 500 }).unwrap();

    let seeds: Vec<PeerNode> = (0..SEEDS)
        .map(|i| {
            let cfg = NodeConfig::new(PeerId::new(i), PeerClass::HIGHEST, info.clone(), dir.addr());
            PeerNode::spawn_seed_on(cfg, clock.clone(), &reactor).unwrap()
        })
        .collect();

    // Launch 64 sessions, then TOP UP: admission is reactor-hosted and
    // pipelined, so the simultaneous burst makes some rounds find all 16
    // sampled seeds transiently reserved — those reject (surfacing only
    // at wait(), which would block through a whole healthy stream).
    // Rather than wait, read the tree: a rejected round drops its
    // session scope, so `live < 64` tells us exactly how many
    // replacements to launch. Top-ups are small against mostly-free
    // seeds, so this converges in a round or two — well inside the
    // ≈1.9 s lifetime of the first sessions, keeping all 64 live at
    // once.
    let mut requesters = Vec::new();
    let mut pendings = Vec::new();
    let mut launched = 0u64;
    let mut attempts = 0;
    loop {
        let live = reactor
            .monitor()
            .snapshot()
            .nodes()
            .iter()
            .filter(|n| n.kind() == Some("session"))
            .count();
        if !requesters.is_empty() && live >= SESSIONS {
            break;
        }
        attempts += 1;
        assert!(attempts <= 10, "admission kept colliding: {live} live");
        for _ in live..SESSIONS {
            let cfg = NodeConfig::new(
                PeerId::new(SEEDS + launched),
                PeerClass::HIGHEST,
                info.clone(),
                dir.addr(),
            );
            launched += 1;
            let node = PeerNode::spawn_on(cfg, clock.clone(), &reactor).unwrap();
            let pending = node
                .begin_stream(16)
                .unwrap_or_else(|e| panic!("launch {launched} failed: {e}"));
            requesters.push(node);
            pendings.push(pending);
        }
        // Verdicts land within a few ms (every candidate is a live
        // seed); 100 ms lets the new rounds settle into streaming.
        std::thread::sleep(Duration::from_millis(100));
    }

    // All 64 sessions are paced over ≈ SEGMENTS·δt ≈ 1.9 s, so right
    // after the last hand-off every one of them is still in flight: the
    // snapshot must show the whole swarm. (Scoped: a snapshot's live
    // handles keep the session scopes alive, and the leak check below
    // must observe the real tree, not this snapshot's refs.)
    {
        let snap = reactor.monitor().snapshot();
        let sessions: Vec<_> = snap
            .nodes()
            .iter()
            .filter(|n| n.kind() == Some("session"))
            .collect();
        assert!(
            sessions.len() >= SESSIONS,
            "expected ≥{SESSIONS} live session scopes, saw {}",
            sessions.len()
        );
        for node in &sessions {
            let state = node
                .metric("state")
                .expect("every session exposes its phase")
                .value()
                .state_name()
                .unwrap();
            // "probing" is possible for an instant: the hand-off command may
            // still be in the reactor's queue when the snapshot is taken.
            assert!(
                state == "probing" || state == "streaming" || state == "complete",
                "healthy session in state {state:?}"
            );
            // Owed-queue lag: owed is live and bounded by the file size.
            let owed = node.metric("owed_segments").unwrap().value().as_i64();
            assert!((0..=SEGMENTS as i64).contains(&owed));
            assert!(node.metric("last_progress_ms").is_some());
            assert!(node.metric("stride_ms").is_some());
        }
        // Per-reactor queue depths are published for both shards.
        for shard in 0..2 {
            let id = shard.to_string();
            let labels = [("reactor", id.as_str())];
            for gauge in ["queued_write_bytes", "timer_entries", "connections"] {
                assert!(
                    snap.find(&labels, gauge).is_some(),
                    "reactor {shard} missing {gauge}"
                );
            }
        }
    }

    // Drain everything we launched: the rejected extras return
    // `Rejected`, every session that actually streamed must complete —
    // and at least 64 did, because their scopes were live above.
    let mut completed = 0;
    for (i, pending) in pendings.into_iter().enumerate() {
        match pending.wait() {
            Ok(_) => completed += 1,
            Err(NodeError::Rejected { .. }) => {}
            Err(e) => panic!("session {i} failed: {e}"),
        }
    }
    assert!(completed >= SESSIONS, "only {completed} sessions completed");

    // Healthy run: the watchdog saw 64 paced sessions and flagged none.
    let snap = reactor.monitor().snapshot();
    let stalls = snap
        .find(&[], "watchdog_stalls_total")
        .expect("watchdog counter")
        .value()
        .as_i64();
    assert_eq!(stalls, 0, "healthy sessions must never be flagged");
    // Completed sessions dropped their scopes: the tree does not leak.
    let leftover = snap
        .nodes()
        .iter()
        .filter(|n| n.kind() == Some("session"))
        .count();
    assert_eq!(leftover, 0, "{leftover} session scopes leaked");

    for node in requesters {
        node.shutdown();
    }
    for seed in seeds {
        seed.shutdown();
    }
    reactor.shutdown();
    dir.shutdown();
}

/// Waits for `pending` on a helper thread, for at most `limit`: a session
/// that wedges fails the test instead of hanging it.
fn wait_within(pending: PendingStream, limit: Duration) -> Result<StreamOutcome, NodeError> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(pending.wait());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("the session wedged: wait() did not return within {limit:?}"))
}

/// Writes `bytes` one at a time, `every` apart, until they run out or the
/// requester hangs up.
fn dribble(conn: &mut std::net::TcpStream, bytes: &[u8], every: Duration) {
    for byte in bytes {
        std::thread::sleep(every);
        if conn.write_all(&[*byte]).is_err() {
            return;
        }
    }
}

/// The flight-recorder codes of the one session scope `snap` holds.
fn session_codes(snap: &p2ps_monitor::Snapshot) -> Vec<(u8, u64)> {
    snap.nodes()
        .iter()
        .find(|n| n.kind() == Some("session"))
        .and_then(|n| n.metric("events"))
        .and_then(|m| m.handle().as_recorder())
        .expect("the snapshot holds the session's flight recorder")
        .events()
        .iter()
        .map(|e| (e.code, e.a))
        .collect()
}

/// A candidate that answers the §4.2 round with the length prefix of a
/// 64 KiB frame and then one byte every 100 ms never delivers a reply:
/// its lane is refused 2 s after the request, and the session completes
/// over the real class-1 seed beside it. Bytes that complete no frame do
/// not hold the round open.
#[test]
fn a_candidate_dribbling_its_reply_is_refused_after_two_seconds() {
    let class1 = PeerClass::new(1).unwrap();
    let info = MediaInfo::new("round-dribble", 16, SegmentDuration::from_millis(10), 64);
    let file = MediaFile::synthesize(info.clone());
    let dir = DirectoryServer::start().unwrap();
    let clock = Clock::new();
    let reactor = NodeReactor::with_threads(1).unwrap();

    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let dribbler_port = listener.local_addr().unwrap().port();
    std::thread::spawn(move || {
        let Ok((mut conn, _)) = listener.accept() else {
            return;
        };
        let _ = conn.set_read_timeout(Some(Duration::from_secs(60)));
        let Ok(Message::StreamRequest { .. }) = read_message(&mut conn) else {
            return;
        };
        let _ = conn.write_all(&(64u32 * 1024).to_le_bytes());
        dribble(&mut conn, &[0x12; 64 * 1024], Duration::from_millis(100));
    });
    let seed_cfg = NodeConfig::new(PeerId::new(1), class1, info.clone(), dir.addr());
    let seed = PeerNode::spawn_seed_on(seed_cfg, clock.clone(), &reactor).unwrap();
    let cfg = NodeConfig::new(PeerId::new(2), PeerClass::HIGHEST, info.clone(), dir.addr());
    let node = PeerNode::spawn_on(cfg, clock, &reactor).unwrap();

    let asked = Instant::now();
    let pending = node
        .begin_stream_from(vec![
            CandidateRecord {
                id: PeerId::new(98),
                class: class1,
                port: dribbler_port,
            },
            CandidateRecord {
                id: PeerId::new(1),
                class: class1,
                port: seed.port(),
            },
        ])
        .unwrap();
    let early = reactor.monitor().snapshot();
    let outcome = wait_within(pending, Duration::from_secs(8)).expect("lane 1 streams the file");
    let waited = asked.elapsed();
    assert_eq!(outcome.supplier_count, 1);
    assert_eq!(node.media_file().expect("completed stream is stored"), file);
    assert!(
        waited >= Duration::from_secs(2),
        "the round waited for the dribbler's reply deadline, not less: {waited:?}"
    );

    // Lane 0 was asked and never answered; lane 1 granted and streamed.
    let codes = session_codes(&early);
    let lane_event = |ev: SessionEvent, lane: u64| codes.contains(&(ev.code(), lane));
    assert!(lane_event(SessionEvent::AdmissionRequest { lane: 0 }, 0));
    assert!(!lane_event(SessionEvent::AdmissionGrant { lane: 0 }, 0));
    assert!(lane_event(SessionEvent::AdmissionGrant { lane: 1 }, 1));
    assert!(lane_event(
        SessionEvent::PlanSent {
            lane: 1,
            segments: 0
        },
        1
    ));
    // A refusal in the round is not a stall.
    let snap = reactor.monitor().snapshot();
    assert_eq!(
        snap.find(&[], "watchdog_stalls_total")
            .unwrap()
            .value()
            .as_i64(),
        0
    );

    node.shutdown();
    seed.shutdown();
    reactor.shutdown();
    dir.shutdown();
}

/// A supplier that grants, reads its plan, sends the header and a few
/// payload bytes of its first segment and then one byte every 50 ms makes
/// no progress: its lane is cut at the plan's stride plus the grace, and
/// the survivor absorbs its share. Bytes that complete no segment do not
/// keep a streaming lane alive.
#[test]
fn a_supplier_dribbling_a_segment_is_cut_and_its_share_replanned() {
    let class2 = PeerClass::new(2).unwrap();
    // 1 KiB segments: one takes the dribbler 51 s, far past every bound.
    let info = MediaInfo::new("stream-dribble", 16, SegmentDuration::from_millis(20), 1024);
    let file = MediaFile::synthesize(info.clone());
    let dir = DirectoryServer::start().unwrap();
    let clock = Clock::new();
    let reactor = NodeReactor::with_options(2, WatchdogConfig { grace_ms: 150 }).unwrap();

    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let dribbler_port = listener.local_addr().unwrap().port();
    let dribbled = file.clone();
    std::thread::spawn(move || {
        let Ok((mut conn, _)) = listener.accept() else {
            return;
        };
        let _ = conn.set_read_timeout(Some(Duration::from_secs(60)));
        let Ok(Message::StreamRequest { session, .. }) = read_message(&mut conn) else {
            return;
        };
        let _ = write_message(
            &mut conn,
            &Message::Grant {
                session,
                class: class2,
            },
        );
        let Ok(Message::StartSession { plan, .. }) = read_message(&mut conn) else {
            return;
        };
        let index = plan.expanded().next().expect("a share of the file");
        let mut frame = BytesMut::new();
        encode_frame(
            &Message::SegmentData {
                session,
                index,
                payload: dribbled.segment(index).into_payload(),
            },
            &mut frame,
        );
        // Prefix, tag, session, index, payload length: 25 bytes of
        // header, then four payload bytes at once and the rest slowly.
        let (burst, rest) = frame.split_at(29);
        if conn.write_all(burst).is_err() {
            return;
        }
        dribble(&mut conn, rest, Duration::from_millis(50));
    });
    let rescuer_port = rescuer_supplier(class2, file.clone());
    let cfg = NodeConfig::new(PeerId::new(3), PeerClass::HIGHEST, info.clone(), dir.addr());
    let node = PeerNode::spawn_on(cfg, clock, &reactor).unwrap();
    let pending = node
        .begin_stream_from(vec![
            CandidateRecord {
                id: PeerId::new(98),
                class: class2,
                port: dribbler_port,
            },
            CandidateRecord {
                id: PeerId::new(99),
                class: class2,
                port: rescuer_port,
            },
        ])
        .unwrap();
    let early = reactor.monitor().snapshot();

    let outcome = wait_within(pending, Duration::from_secs(8)).expect("the survivor completes");
    assert_eq!(outcome.supplier_count, 2);
    assert_eq!(
        node.media_file().expect("completed stream is stored"),
        file,
        "recovered stream must be byte-identical"
    );
    let snap = reactor.monitor().snapshot();
    let counter = |name: &str| snap.find(&[], name).unwrap().value().as_i64();
    assert!(
        counter("watchdog_stalls_total") >= 1,
        "the dribbler stalled"
    );
    assert!(counter("watchdog_recoveries_total") >= 1, "recovery ran");
    assert_eq!(counter("watchdog_giveups_total"), 0);

    // The dribbling lane 0 is the one cut, then lane 1 takes its share.
    let codes = session_codes(&early);
    let at = |ev: SessionEvent, a: u64| {
        codes
            .iter()
            .position(|&c| c == (ev.code(), a))
            .unwrap_or_else(|| panic!("event {ev} missing from timeline {codes:?}"))
    };
    let cut = at(
        SessionEvent::RecoveryStarted {
            lane: 0,
            attempt: 1,
        },
        0,
    );
    let replanned = at(
        SessionEvent::Replanned {
            lane: 1,
            segments: 0,
        },
        1,
    );
    assert!(cut < replanned, "cut before replan in {codes:?}");

    node.shutdown();
    reactor.shutdown();
    dir.shutdown();
}
