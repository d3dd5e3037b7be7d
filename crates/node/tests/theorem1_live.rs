//! Theorem 1 on the live stack: a session's start-up delay is `n·δt`.
//!
//! One reactor thread, `δt` = 20 ms, 12 segments of 1 KiB, and supplier
//! sets of n = 1…4 drawn from all four classes (the mix `swarm_grow`
//! streams from), 32 sessions one after another. What the requester
//! measures — `max_s(arrival_s − s·δt)` on the reactor's µs clock — is
//! held against the theorem's `n·δt`:
//!
//! * **never below it**: a paced segment is not sent before its §3
//!   deadline, which is the timer wheel's "never early" end to end;
//! * **at it**: the median session is within 500 µs of `n·δt` (optimised
//!   build; see [`MEDIAN_PAST_US`]), and in the optimised build at
//!   least three sessions in four read `n·δt` to the millisecond (one in
//!   twelve did while deadlines were rounded to a 2 ms wheel tick and a
//!   whole-millisecond clock; unoptimised builds have read 16–23 of 32, see
//!   [`CHECK_EXACT_SHARE`]).
//!
//! The bounds are on the median and on a share, not on the worst session:
//! a host that takes the CPU away for some milliseconds makes a session
//! late whatever the reactor does, and the reactor's `wake_late_*` /
//! `turn_*` rows are where that shows.

use std::time::Duration;

use p2ps_core::assignment::SegmentDuration;
use p2ps_core::{PeerClass, PeerId};
use p2ps_media::MediaInfo;
use p2ps_node::{
    Clock, DirectoryServer, NodeConfig, NodeError, NodeReactor, PeerNode, StreamOutcome,
};
use p2ps_proto::CandidateRecord;

const DT_MS: u64 = 20;
const SESSIONS: usize = 32;
/// How far past `n·δt` the median session may start. What is left is the
/// kernel's wake-up from an idle sleep (100–200 µs on a virtual CPU) plus
/// one pass through the stack per segment, the worst of twelve — which an
/// unoptimised build makes several times as long, so only the optimised
/// one (the build CI runs this test in) is held to the half millisecond.
const MEDIAN_PAST_US: u64 = if cfg!(debug_assertions) { 2_000 } else { 500 };
/// Whether "three sessions in four exact to the millisecond" is held. An
/// unoptimised build's per-segment pass is long enough that a quarter of
/// its sessions or more cross into the next millisecond, so only the
/// optimised build (CI's release step) is held to the share; the debug
/// build keeps "never early" and its 2 ms median.
const CHECK_EXACT_SHARE: bool = !cfg!(debug_assertions);

#[test]
fn the_median_live_session_starts_at_n_dt_and_none_starts_before() {
    let info = MediaInfo::new("theorem1", 12, SegmentDuration::from_millis(DT_MS), 1024);
    let dir = DirectoryServer::start().unwrap();
    let clock = Clock::new();
    let reactor = NodeReactor::new().unwrap();
    let spawn = |id: u64, class: u8, seed: bool| {
        let class = PeerClass::new(class).unwrap();
        let cfg = NodeConfig::new(PeerId::new(id), class, info.clone(), dir.addr());
        if seed {
            PeerNode::spawn_seed_on(cfg, clock.clone(), &reactor).unwrap()
        } else {
            PeerNode::spawn_on(cfg, clock.clone(), &reactor).unwrap()
        }
    };
    // Class k offers R0 / 2^(k-1): each set below adds up to exactly R0.
    let seeds: Vec<PeerNode> = [1, 2, 2, 3, 3, 4, 4]
        .iter()
        .enumerate()
        .map(|(i, class)| spawn(i as u64, *class, true))
        .collect();
    let sets: [&[usize]; 4] = [&[0], &[1, 2], &[1, 3, 4], &[1, 3, 5, 6]];

    let mut outcomes: Vec<StreamOutcome> = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let set = sets[i % sets.len()];
        // Class 1: every supplier's admission vector favours it, so the
        // set is granted as it stands.
        let viewer = spawn(100 + i as u64, 1, false);
        let candidates = || {
            let record = |s: &usize| CandidateRecord {
                id: seeds[*s].id(),
                class: seeds[*s].class(),
                port: seeds[*s].port(),
            };
            set.iter().map(record).collect::<Vec<_>>()
        };
        // A supplier learns that the previous session is over from the
        // requester's close, a reactor turn after the requester did.
        let mut attempts = 0;
        let outcome = loop {
            match viewer.begin_stream_from(candidates()).unwrap().wait() {
                Ok(outcome) => break outcome,
                Err(NodeError::Rejected { .. }) if attempts < 20 => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("session {i}: {e}"),
            }
        };
        assert_eq!(outcome.supplier_count, set.len(), "session {i}");
        assert_eq!(outcome.theoretical_delay_ms, set.len() as u64 * DT_MS);
        outcomes.push(outcome);
        viewer.shutdown();
    }

    let mut past_us: Vec<u64> = Vec::with_capacity(SESSIONS);
    for (i, o) in outcomes.iter().enumerate() {
        let theorem_us = o.theoretical_delay_ms * 1_000;
        assert!(
            o.measured_delay_us >= theorem_us,
            "session {i} (n = {}) started {} us BEFORE n·δt: a paced segment left early",
            o.supplier_count,
            theorem_us - o.measured_delay_us
        );
        assert_eq!(o.measured_delay_ms, o.measured_delay_us / 1_000);
        past_us.push(o.measured_delay_us - theorem_us);
    }
    let exact = outcomes
        .iter()
        .filter(|o| o.measured_delay_ms == o.theoretical_delay_ms)
        .count();
    past_us.sort_unstable();
    let median = past_us[SESSIONS / 2];
    assert!(
        median <= MEDIAN_PAST_US,
        "median session is {median} us past n·δt (all, sorted: {past_us:?})"
    );
    assert!(
        !CHECK_EXACT_SHARE || exact * 4 >= SESSIONS * 3,
        "{exact} of {SESSIONS} sessions read n·δt to the millisecond (us past it, sorted: {past_us:?})"
    );

    drop(seeds);
    reactor.shutdown();
    dir.shutdown();
}
