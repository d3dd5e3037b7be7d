//! Seed-derived run schedules: every parameter of a run from one `u64`.
//!
//! A [`Schedule`] is the *complete* description of one adversarial run —
//! media shape, supplier mix, per-link latency/jitter/bandwidth, chunk
//! fragmentation bound, and the death times of churned suppliers — and
//! it is a pure function of `(seed, scenario)`. The simulation draws its
//! remaining randomness (chunk sizes, jitter samples) from an RNG seeded
//! by the same pair, so one `u64` reproduces a run bit for bit.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The adversity profiles the sweep crosses with its seeds: the five of
/// [`ScenarioKind::ALL`] and the adversity-free [`ScenarioKind::Ideal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// No departures: varied latency, jitter and fragmentation only.
    Steady,
    /// One or more suppliers die mid-stream (possibly all of them),
    /// forcing live replans — or a structured `SuppliersLost` failure.
    Churn,
    /// Extreme fragmentation (1..=5 byte chunks) plus one mid-stream
    /// death whose final frame is cut at an arbitrary byte boundary.
    Loss,
    /// One supplier's link is drastically slower than the rest.
    SlowPeer,
    /// Suppliers may refuse admission (busy, favored or not): the §4.2
    /// round itself is the adversity — denials, reminders and a
    /// structured `Rejected` outcome instead of a stream.
    Admission,
    /// No adversity, the setting Theorem 1 is stated in: every supplier
    /// grants, none dies, every link has one latency, no jitter and room
    /// for any frame in a millisecond, and every frame travels whole, so
    /// the start-up delay is exactly `n·δt` plus the path. Not in
    /// [`ALL`](Self::ALL).
    Ideal,
}

impl ScenarioKind {
    /// The five adversity profiles, in sweep order. [`Ideal`](Self::Ideal)
    /// is swept on its own.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::Steady,
        ScenarioKind::Churn,
        ScenarioKind::Loss,
        ScenarioKind::SlowPeer,
        ScenarioKind::Admission,
    ];

    /// Stable lowercase name for reports and repro hints.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Steady => "steady",
            ScenarioKind::Churn => "churn",
            ScenarioKind::Loss => "loss",
            ScenarioKind::SlowPeer => "slow-peer",
            ScenarioKind::Admission => "admission",
            ScenarioKind::Ideal => "ideal",
        }
    }

    /// Mixing salt so the same seed explores different worlds per
    /// scenario.
    pub(crate) fn salt(self) -> u64 {
        match self {
            ScenarioKind::Steady => 0x9e37_79b9_7f4a_7c15,
            ScenarioKind::Churn => 0xc2b2_ae3d_27d4_eb4f,
            ScenarioKind::Loss => 0x1656_67b1_9e37_79f9,
            ScenarioKind::SlowPeer => 0x2545_f491_4f6c_dd1d,
            ScenarioKind::Admission => 0x8532_7860_e17a_9cb7,
            ScenarioKind::Ideal => 0x94d0_49bb_1331_11eb,
        }
    }
}

/// What a supplier says when the `StreamRequest` reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionReply {
    /// Grant the stream (and hold the reservation).
    Grant,
    /// Deny; `busy`/`favored` mirror the wire `Deny` flags — a
    /// busy-and-favored supplier is a reminder candidate.
    Deny {
        /// The supplier is at capacity.
        busy: bool,
        /// The requester's class would have been favored.
        favored: bool,
    },
}

/// One directional link's fixed characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Base propagation delay per chunk.
    pub latency_ms: u64,
    /// Maximum extra per-chunk delay (drawn uniformly per chunk).
    pub jitter_ms: u64,
    /// Serialization bandwidth; chunks occupy the link FIFO for
    /// `len / bytes_per_ms` (ceiling) milliseconds.
    pub bytes_per_ms: u64,
}

/// Rate-matched supplier class mixes (`Σ 2^-(k-1) = 1`), the same
/// families `p2ps-sim`'s abstract scenarios draw from, so the `OTSp2p`
/// policy plans them on its §3 fast path.
const MIXES: &[&[u8]] = &[
    &[2, 2],
    &[2, 3, 3],
    &[2, 3, 4, 4],
    &[3, 3, 3, 3],
    &[2, 4, 4, 4, 4],
    &[3, 3, 4, 4, 4, 4],
    &[2, 3, 4, 5, 5],
    &[4, 4, 4, 4, 4, 4, 4, 4],
];

/// An `Ideal` link's bandwidth: far more than the largest frame (a few
/// hundred bytes), so any frame serializes in exactly one millisecond.
const IDEAL_BYTES_PER_MS: u64 = 1 << 20;

/// The complete, seed-derived description of one adversarial run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The seed this schedule was derived from (kept for repro hints).
    pub seed: u64,
    /// The adversity profile.
    pub scenario: ScenarioKind,
    /// Supplier classes (a rate-matched mix).
    pub mix: Vec<u8>,
    /// Media file length in segments.
    pub segment_count: u64,
    /// Payload bytes per segment.
    pub segment_bytes: u32,
    /// Segment playback time `δt` in milliseconds.
    pub dt_ms: u64,
    /// Upper bound on a delivered chunk's size in bytes — the stream is
    /// split at arbitrary byte boundaries into chunks of `1..=max_chunk`.
    /// `usize::MAX` (on `Ideal`) bounds nothing: every frame travels
    /// whole, as one chunk, and no split is drawn.
    pub max_chunk: usize,
    /// Per-supplier link characteristics (index = mix position).
    pub links: Vec<LinkSpec>,
    /// `(supplier, at_ms)` death times, sorted by time.
    pub deaths: Vec<(usize, u64)>,
    /// The requesting peer's class (carried in `StreamRequest` and
    /// `Reminder` frames).
    pub req_class: u8,
    /// Per-supplier admission decision (index = mix position). All
    /// `Grant` outside the `Admission` scenario, so a rate-matched mix
    /// admits and streams exactly as before.
    pub replies: Vec<AdmissionReply>,
}

impl Schedule {
    /// Derives the full run description from `(seed, scenario)`.
    pub fn derive(seed: u64, scenario: ScenarioKind) -> Schedule {
        let mut rng = SmallRng::seed_from_u64(seed ^ scenario.salt());
        let mix: Vec<u8> = MIXES[rng.gen_range(0..MIXES.len())].to_vec();
        let segment_count = rng.gen_range(8..=32u64);
        let segment_bytes = rng.gen_range(8..=128u32);
        let dt_ms = rng.gen_range(4..=20u64);
        let max_chunk = match scenario {
            ScenarioKind::Loss => rng.gen_range(1..=5usize),
            ScenarioKind::Ideal => usize::MAX,
            _ => rng.gen_range(8..=64usize),
        };
        let slow_lane = rng.gen_range(0..mix.len());
        let ideal_latency_ms = match scenario {
            ScenarioKind::Ideal => Some(rng.gen_range(0..=25u64)),
            _ => None,
        };
        let links = (0..mix.len())
            .map(|lane| {
                if let Some(latency_ms) = ideal_latency_ms {
                    LinkSpec {
                        latency_ms,
                        jitter_ms: 0,
                        bytes_per_ms: IDEAL_BYTES_PER_MS,
                    }
                } else if scenario == ScenarioKind::SlowPeer && lane == slow_lane {
                    LinkSpec {
                        latency_ms: rng.gen_range(60..=150u64),
                        jitter_ms: rng.gen_range(5..=20u64),
                        bytes_per_ms: 1,
                    }
                } else {
                    LinkSpec {
                        latency_ms: rng.gen_range(0..=25u64),
                        jitter_ms: rng.gen_range(0..=8u64),
                        bytes_per_ms: rng.gen_range(4..=64u64),
                    }
                }
            })
            .collect();
        // The rate-matched aggregate streams the file in ~total·δt; deaths
        // land anywhere in that span (plus slack for latency).
        let span = segment_count * dt_ms * 2;
        let mut deaths: Vec<(usize, u64)> = match scenario {
            ScenarioKind::Steady
            | ScenarioKind::SlowPeer
            | ScenarioKind::Admission
            | ScenarioKind::Ideal => Vec::new(),
            ScenarioKind::Churn => {
                let victims = rng.gen_range(1..=mix.len());
                let mut lanes: Vec<usize> = (0..mix.len()).collect();
                for i in (1..lanes.len()).rev() {
                    lanes.swap(i, rng.gen_range(0..=i));
                }
                lanes
                    .into_iter()
                    .take(victims)
                    .map(|lane| (lane, rng.gen_range(1..=span)))
                    .collect()
            }
            ScenarioKind::Loss => {
                vec![(rng.gen_range(0..mix.len()), rng.gen_range(1..=span))]
            }
        };
        deaths.sort_by_key(|&(lane, at)| (at, lane));
        let req_class = rng.gen_range(1..=4u8);
        // A rate-matched mix needs every grant to reach R0, so any deny
        // rejects the round: the deny count directly controls how often
        // the scenario exercises the rejection/reminder path (0 denies
        // still admits and streams).
        let replies = match scenario {
            ScenarioKind::Admission => {
                let denials = rng.gen_range(0..=mix.len());
                let mut lanes: Vec<usize> = (0..mix.len()).collect();
                for i in (1..lanes.len()).rev() {
                    lanes.swap(i, rng.gen_range(0..=i));
                }
                let deny: Vec<usize> = lanes.into_iter().take(denials).collect();
                (0..mix.len())
                    .map(|lane| {
                        if deny.contains(&lane) {
                            AdmissionReply::Deny {
                                busy: rng.gen_bool(0.8),
                                favored: rng.gen_bool(0.5),
                            }
                        } else {
                            AdmissionReply::Grant
                        }
                    })
                    .collect()
            }
            _ => vec![AdmissionReply::Grant; mix.len()],
        };
        Schedule {
            seed,
            scenario,
            mix,
            segment_count,
            segment_bytes,
            dt_ms,
            max_chunk,
            links,
            deaths,
            req_class,
            replies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        for scenario in ScenarioKind::ALL {
            let a = Schedule::derive(0xdead_beef, scenario);
            let b = Schedule::derive(0xdead_beef, scenario);
            assert_eq!(a, b, "{} schedules must be pure", scenario.name());
        }
    }

    #[test]
    fn scenarios_diverge_on_the_same_seed() {
        let steady = Schedule::derive(7, ScenarioKind::Steady);
        let churn = Schedule::derive(7, ScenarioKind::Churn);
        assert!(steady.deaths.is_empty());
        assert!(!churn.deaths.is_empty());
    }

    #[test]
    fn loss_schedules_fragment_hard() {
        for seed in 0..64u64 {
            let s = Schedule::derive(seed, ScenarioKind::Loss);
            assert!(s.max_chunk <= 5);
            assert_eq!(s.deaths.len(), 1);
        }
    }

    #[test]
    fn churn_death_lanes_are_distinct_and_in_range() {
        for seed in 0..64u64 {
            let s = Schedule::derive(seed, ScenarioKind::Churn);
            let mut lanes: Vec<usize> = s.deaths.iter().map(|&(l, _)| l).collect();
            lanes.sort_unstable();
            let len = lanes.len();
            lanes.dedup();
            assert_eq!(lanes.len(), len, "seed {seed}: duplicate victim");
            assert!(lanes.iter().all(|&l| l < s.mix.len()));
        }
    }

    #[test]
    fn only_admission_schedules_deny() {
        let mut denying_runs = 0;
        let mut all_grant_runs = 0;
        for seed in 0..64u64 {
            for scenario in ScenarioKind::ALL {
                let s = Schedule::derive(seed, scenario);
                assert_eq!(s.replies.len(), s.mix.len());
                let denies = s
                    .replies
                    .iter()
                    .filter(|r| matches!(r, AdmissionReply::Deny { .. }))
                    .count();
                if scenario == ScenarioKind::Admission {
                    if denies > 0 {
                        denying_runs += 1;
                    } else {
                        all_grant_runs += 1;
                    }
                } else {
                    assert_eq!(denies, 0, "{} must all-grant", scenario.name());
                }
            }
        }
        assert!(denying_runs > 0, "admission seeds must sometimes deny");
        assert!(all_grant_runs > 0, "admission seeds must sometimes admit");
    }

    #[test]
    fn slow_peer_has_exactly_one_crawling_link() {
        for seed in 0..64u64 {
            let s = Schedule::derive(seed, ScenarioKind::SlowPeer);
            let slow = s.links.iter().filter(|l| l.bytes_per_ms == 1).count();
            assert!(slow >= 1, "seed {seed}: no slow link");
        }
    }
}
