//! Theorem 1 on the live stack: a session's start-up delay is `n·δt`.
//!
//! One reactor thread, `δt` = 20 ms, 12 segments of 1 KiB, and supplier
//! sets of n = 1…4 drawn from all four classes (the mix `swarm_grow`
//! streams from), 32 sessions one after another. What the requester
//! measures — `max_s(arrival_s − s·δt)` on the reactor's µs clock — is
//! held against the theorem's `n·δt`:
//!
//! * **never below it**, in every build: a paced segment is not sent
//!   before its §3 deadline, which is the timer wheel's "never early" end
//!   to end;
//! * **at it**, in the optimised build only (CI's release step), one
//!   threshold per claim: the median session is at most 500 µs past
//!   `n·δt`, and at least three sessions in four read `n·δt` to the
//!   millisecond (one in twelve did while deadlines were rounded to a
//!   2 ms wheel tick and a whole-millisecond clock). An unoptimised
//!   build's pass through the stack is several times as long, so it is
//!   not timed at all: simnet's seed sweep holds Theorem 1 exactly, in
//!   virtual time, on every build.
//!
//! The timing bounds are on the median and on a share, not on the worst
//! session: a host that takes the CPU away for some milliseconds makes a
//! session late whatever the reactor does, and the reactor's
//! `wake_late_*` / `turn_*` rows are where that shows. A failure prints
//! every session's `measured_delay_us − n·δt`, in session order, beside
//! how much the reactor's `wake_late_total` and `turn_overrun_total` grew
//! over the run, so it says whether the host stalled.

use std::time::Duration;

use p2ps_core::assignment::SegmentDuration;
use p2ps_core::{PeerClass, PeerId};
use p2ps_media::MediaInfo;
use p2ps_monitor::Snapshot;
use p2ps_node::{
    Clock, DirectoryServer, NodeConfig, NodeError, NodeReactor, PeerNode, StreamOutcome,
};
use p2ps_proto::CandidateRecord;

const DT_MS: u64 = 20;

/// The reactor's two stall counters, summed over its scopes: wake-ups
/// that came late and turns that overran.
fn reactor_stalls(snap: &Snapshot) -> [i64; 2] {
    ["wake_late_total", "turn_overrun_total"].map(|name| {
        snap.nodes()
            .iter()
            .filter_map(|n| n.metric(name))
            .map(|m| m.value().as_i64())
            .sum()
    })
}
const SESSIONS: usize = 32;

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
    let stalls_before = reactor_stalls(&reactor.monitor().snapshot());

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

    let stalls_after = reactor_stalls(&reactor.monitor().snapshot());
    let past_us: Vec<i64> = outcomes
        .iter()
        .map(|o| o.measured_delay_us as i64 - (o.theoretical_delay_ms * 1_000) as i64)
        .collect();
    let run = format!(
        "us past n·δt, per session: {past_us:?}; over the run the reactor's wake_late_total \
         grew by {} and turn_overrun_total by {}",
        stalls_after[0] - stalls_before[0],
        stalls_after[1] - stalls_before[1]
    );
    for (i, o) in outcomes.iter().enumerate() {
        assert!(
            past_us[i] >= 0,
            "session {i} (n = {}) started {} us BEFORE n·δt: a paced segment left early\n{run}",
            o.supplier_count,
            -past_us[i]
        );
        assert_eq!(o.measured_delay_ms, o.measured_delay_us / 1_000);
    }
    #[cfg(not(debug_assertions))]
    starts_at_n_dt(&outcomes, &run);

    drop(seeds);
    reactor.shutdown();
    dir.shutdown();
}

/// The timing half, held in the optimised build: the median session is
/// at most 500 µs past `n·δt` — what is left is the kernel's wake-up
/// from an idle sleep (100–200 µs on a virtual CPU) plus one pass through
/// the stack per segment, the worst of twelve — and three sessions in
/// four read `n·δt` to the millisecond. `run` says how the run went.
#[cfg(not(debug_assertions))]
fn starts_at_n_dt(outcomes: &[StreamOutcome], run: &str) {
    let mut past_us: Vec<u64> = outcomes
        .iter()
        .map(|o| o.measured_delay_us - o.theoretical_delay_ms * 1_000)
        .collect();
    past_us.sort_unstable();
    let median = past_us[SESSIONS / 2];
    assert!(
        median <= 500,
        "median session is {median} us past n·δt (all, sorted: {past_us:?})\n{run}"
    );
    let exact = outcomes
        .iter()
        .filter(|o| o.measured_delay_ms == o.theoretical_delay_ms)
        .count();
    assert!(
        exact * 4 >= SESSIONS * 3,
        "{exact} of {SESSIONS} sessions read n·δt to the millisecond (us past it, sorted: \
         {past_us:?})\n{run}"
    );
}
