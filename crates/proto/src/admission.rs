//! Sans-io driver for the §4.2 admission handshake, pipelined.
//!
//! [`AdmissionDriver`] owns the *protocol* half of a requesting peer's
//! admission round: which candidate lanes to contact, what each reply
//! means, when the round is decided, and which grants must be released.
//! The caller owns the *transport* half — connects, timers, feeding
//! decoded [`Message`]s back in. In `p2ps-node` the caller is the
//! requester machine, which plans and streams once the round admits; the
//! epoll reactor and the deterministic simulator (`p2ps-simnet`) host
//! that machine, and plain unit tests drive this driver directly.
//!
//! The paper's protocol contacts candidates *sequentially* in descending
//! class order, stopping once `R0` aggregate bandwidth is secured
//! ([`attempt_admission`](p2ps_core::admission::attempt_admission)).
//! This driver contacts **all** lanes concurrently and *commits*
//! decisions with a deterministic greedy fold over the same descending
//! class order that never reads past the first still-pending lane:
//!
//! * the moment the settled prefix secures `R0`, the round is
//!   **admitted** — later replies cannot change a prefix they come after;
//! * only when *every* lane has settled short of `R0` is the round
//!   **rejected** (with the same reminder selection, greedy-Ω over the
//!   busy-but-favored lanes).
//!
//! The fold makes the pipelined outcome *identical* to the sequential
//! protocol's on the same per-candidate responses (property-tested
//! below), while the wall-clock cost drops from Σ(RTT) to ~max(RTT) —
//! and a dead candidate burns only its own timeout, nobody else's.
//! The only observable difference is benign extra traffic: lanes past
//! the sequential stop point are contacted anyway, so their grants are
//! explicitly released (the supplier's reservation is freed immediately
//! instead of expiring).
//!
//! # Examples
//!
//! A two-candidate round where the first grant alone secures `R0`:
//!
//! ```
//! use p2ps_core::PeerClass;
//! use p2ps_proto::{AdmissionDriver, AdmissionVerdict, Message};
//!
//! let class1 = PeerClass::new(1).unwrap(); // offers R0 alone
//! let mut drv = AdmissionDriver::new(42, class1, &[class1, class1]);
//! drv.start();
//! // Both lanes get a StreamRequest at once.
//! let mut requests = 0;
//! while let Some(a) = drv.pop_action() {
//!     requests += 1;
//!     assert!(matches!(a, p2ps_proto::AdmissionAction::Send { .. }));
//! }
//! assert_eq!(requests, 2);
//! // The best lane grants: admitted without waiting for the other.
//! drv.on_message(0, &Message::Grant { session: 42, class: class1 });
//! assert_eq!(drv.verdict(), &AdmissionVerdict::Admitted { granted: vec![0] });
//! ```

use std::collections::VecDeque;

use p2ps_core::admission::greedy_take;
use p2ps_core::{Bandwidth, PeerClass};

use crate::Message;

/// A transport instruction drained from the driver via
/// [`AdmissionDriver::pop_action`].
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionAction {
    /// Send `msg` on lane `lane`'s connection.
    Send {
        /// Candidate lane index (position in the candidate list).
        lane: usize,
        /// The message to put on the wire.
        msg: Message,
    },
    /// Close lane `lane`'s connection; the driver will say nothing more
    /// on it. Lanes in the admitted set are never closed — the caller
    /// hands them to the streaming session instead.
    Close {
        /// Candidate lane index.
        lane: usize,
    },
}

/// The round's current outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionVerdict {
    /// Not yet decided: at least one lane that could still change the
    /// greedy fold is awaiting its reply.
    Pending,
    /// `R0` secured: stream from `granted` (lane indices, descending
    /// class order). Their connections stay open.
    Admitted {
        /// Lanes whose grants were taken, in commitment order.
        granted: Vec<usize>,
    },
    /// Every lane settled and the fold came up short.
    Rejected {
        /// Aggregate bandwidth that had been secured (all released).
        secured: Bandwidth,
        /// Lanes left a reminder (greedy-Ω over busy-favored candidates).
        reminders: Vec<usize>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneState {
    /// StreamRequest sent (or about to be), no reply yet.
    Pending,
    /// Grant received; the supplier holds a reservation for us.
    Granted,
    /// Deny, protocol violation, connect failure, timeout, or peer close.
    Refused,
    /// Deny with `busy && favored`: a reminder may be left here.
    BusyFavored,
}

#[derive(Debug)]
struct Lane {
    /// The candidate's advertised class (orders the fold; its bandwidth
    /// is the offer, exactly as the sequential prober assumes).
    class: PeerClass,
    state: LaneState,
    /// A `Release` for this lane's grant has been emitted.
    released: bool,
    /// A `Close` for this lane has been emitted (or it joined the
    /// admitted set, which also ends the driver's interest).
    closed: bool,
}

/// Sans-io state machine for one pipelined admission round. The module
/// source's top-level comment walks through the protocol and the
/// pipelined-equals-sequential equivalence argument.
#[derive(Debug)]
pub struct AdmissionDriver {
    session: u64,
    class: PeerClass,
    lanes: Vec<Lane>,
    /// Lane indices in fold order: descending candidate class (ascending
    /// `class.get()`), ties broken by lane index (stable sort) — the
    /// exact contact order of the sequential prober.
    order: Vec<usize>,
    actions: VecDeque<AdmissionAction>,
    verdict: AdmissionVerdict,
}

impl AdmissionDriver {
    /// A driver for `session`, requesting as `class`, over one lane per
    /// candidate (index = position in `candidates`).
    pub fn new(session: u64, class: PeerClass, candidates: &[PeerClass]) -> Self {
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by_key(|&i| candidates[i].get());
        AdmissionDriver {
            session,
            class,
            lanes: candidates
                .iter()
                .map(|&c| Lane {
                    class: c,
                    state: LaneState::Pending,
                    released: false,
                    closed: false,
                })
                .collect(),
            order,
            actions: VecDeque::new(),
            verdict: AdmissionVerdict::Pending,
        }
    }

    /// Emits the concurrent `StreamRequest` burst (one per lane) and
    /// settles immediately when there are no candidates at all.
    pub fn start(&mut self) {
        for lane in 0..self.lanes.len() {
            self.actions.push_back(AdmissionAction::Send {
                lane,
                msg: Message::StreamRequest {
                    session: self.session,
                    class: self.class,
                },
            });
        }
        self.resettle();
    }

    /// Feeds one decoded reply from lane `lane`. Unexpected messages
    /// (anything but `Grant`/`Deny` for this session) refuse the lane —
    /// a misbehaving candidate costs only itself.
    pub fn on_message(&mut self, lane: usize, msg: &Message) {
        let settled = match msg {
            Message::Grant { session, .. } if *session == self.session => LaneState::Granted,
            Message::Deny {
                session,
                busy,
                favored,
            } if *session == self.session => {
                if *busy && *favored {
                    LaneState::BusyFavored
                } else {
                    LaneState::Refused
                }
            }
            _ => LaneState::Refused,
        };
        self.settle_lane(lane, settled);
    }

    /// Reports a transport failure on lane `lane` — connect error, read
    /// timeout, peer close, decode error. The lane settles as refused;
    /// no further actions will be emitted for it.
    pub fn on_lane_error(&mut self, lane: usize) {
        if let Some(l) = self.lanes.get_mut(lane) {
            l.closed = true; // the transport is already gone
        }
        self.settle_lane(lane, LaneState::Refused);
    }

    fn settle_lane(&mut self, lane: usize, state: LaneState) {
        let Some(l) = self.lanes.get_mut(lane) else {
            return;
        };
        if l.state != LaneState::Pending {
            return; // each lane settles exactly once
        }
        l.state = state;
        if self.verdict == AdmissionVerdict::Pending {
            self.resettle();
        } else {
            // Late reply after the round was decided: clean the lane up
            // (release a late grant so the supplier's reservation frees
            // immediately) without touching the verdict.
            self.cleanup_lane(lane);
        }
    }

    /// Next transport instruction, if any.
    pub fn pop_action(&mut self) -> Option<AdmissionAction> {
        self.actions.pop_front()
    }

    /// The round's current outcome. Once non-`Pending` it never changes;
    /// late lane events only produce cleanup actions.
    pub fn verdict(&self) -> &AdmissionVerdict {
        &self.verdict
    }

    /// The greedy fold: walk lanes in descending class order, committing
    /// every decision the settled prefix makes final, and decide the
    /// round the moment it can no longer change.
    fn resettle(&mut self) {
        let mut secured = Bandwidth::ZERO;
        let mut granted: Vec<usize> = Vec::new();
        let mut busy_favored: Vec<usize> = Vec::new();
        let mut blocked = false;
        for pos in 0..self.order.len() {
            let i = self.order[pos];
            if secured.is_full_rate() {
                break; // the sequential prober stops contacting here
            }
            match self.lanes[i].state {
                LaneState::Pending => {
                    // Decisions for later lanes would depend on how this
                    // one settles: the fold stops, the round stays open.
                    blocked = true;
                    break;
                }
                LaneState::Granted => {
                    let offer = self.lanes[i].class.bandwidth();
                    if secured + offer <= Bandwidth::FULL_RATE {
                        secured += offer;
                        granted.push(i);
                    } else {
                        // Overshooting grant: released on the spot, just
                        // like the sequential prober. Final — it precedes
                        // the first pending lane.
                        self.release_and_close(i);
                    }
                }
                LaneState::Refused => self.close_lane(i),
                LaneState::BusyFavored => busy_favored.push(i),
            }
        }

        if secured.is_full_rate() {
            // Admitted. Everything outside the granted set is cleaned up;
            // still-pending lanes get their cleanup when they settle.
            for i in &granted {
                self.lanes[*i].closed = true; // ours now: no Close action
            }
            for i in 0..self.lanes.len() {
                if !granted.contains(&i) && self.lanes[i].state != LaneState::Pending {
                    self.cleanup_lane(i);
                }
            }
            self.verdict = AdmissionVerdict::Admitted { granted };
        } else if !blocked {
            // Every lane settled and R0 was not reached: release what was
            // secured, leave reminders with the greedy-Ω busy-favored
            // subset covering the shortfall, close everything.
            for &i in &granted {
                self.release_and_close(i);
            }
            let shortfall = Bandwidth::FULL_RATE - secured;
            let offers: Vec<Bandwidth> = busy_favored
                .iter()
                .map(|&i| self.lanes[i].class.bandwidth())
                .collect();
            let (chosen, _) = greedy_take(&offers, shortfall);
            let reminders: Vec<usize> = chosen.into_iter().map(|j| busy_favored[j]).collect();
            for &i in &busy_favored {
                if reminders.contains(&i) {
                    self.actions.push_back(AdmissionAction::Send {
                        lane: i,
                        msg: Message::Reminder {
                            session: self.session,
                            class: self.class,
                        },
                    });
                }
                self.close_lane(i);
            }
            self.verdict = AdmissionVerdict::Rejected { secured, reminders };
        }
        // else: blocked on a pending lane — stay Pending, commit nothing
        // beyond the prefix actions already emitted.
    }

    /// Post-verdict lane cleanup: release a grant we are not using,
    /// close the connection.
    fn cleanup_lane(&mut self, lane: usize) {
        if self.lanes[lane].state == LaneState::Granted {
            self.release_and_close(lane);
        } else {
            self.close_lane(lane);
        }
    }

    fn release_and_close(&mut self, lane: usize) {
        if !self.lanes[lane].released && !self.lanes[lane].closed {
            self.lanes[lane].released = true;
            self.actions.push_back(AdmissionAction::Send {
                lane,
                msg: Message::Release {
                    session: self.session,
                },
            });
        }
        self.close_lane(lane);
    }

    fn close_lane(&mut self, lane: usize) {
        if !self.lanes[lane].closed {
            self.lanes[lane].closed = true;
            self.actions.push_back(AdmissionAction::Close { lane });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2ps_core::admission::{attempt_admission, Candidate, ProbeOutcome, RequestDecision};
    use proptest::prelude::*;

    fn class(k: u8) -> PeerClass {
        PeerClass::new(k).unwrap()
    }

    /// Scripted sequential candidate: replays a fixed decision, records
    /// the calls, for driving `attempt_admission` as the reference.
    struct Scripted {
        class: PeerClass,
        decision: RequestDecision,
        contacted: bool,
    }

    impl Candidate for Scripted {
        fn class(&self) -> PeerClass {
            self.class
        }
        fn request(&mut self, _class: PeerClass) -> RequestDecision {
            self.contacted = true;
            self.decision
        }
        fn leave_reminder(&mut self, _class: PeerClass) {}
        fn release(&mut self) {}
    }

    /// Replays `decisions` into the driver in `arrival` order and
    /// returns the final verdict.
    fn drive(
        session: u64,
        req: PeerClass,
        lanes: &[(PeerClass, RequestDecision)],
        arrival: &[usize],
    ) -> AdmissionVerdict {
        let classes: Vec<PeerClass> = lanes.iter().map(|l| l.0).collect();
        let mut drv = AdmissionDriver::new(session, req, &classes);
        drv.start();
        for &lane in arrival {
            match lanes[lane].1 {
                RequestDecision::Granted => drv.on_message(
                    lane,
                    &Message::Grant {
                        session,
                        class: lanes[lane].0,
                    },
                ),
                RequestDecision::Refused => drv.on_lane_error(lane),
                RequestDecision::Busy { favored } => drv.on_message(
                    lane,
                    &Message::Deny {
                        session,
                        busy: true,
                        favored,
                    },
                ),
            }
        }
        drv.verdict().clone()
    }

    fn reference(req: PeerClass, lanes: &[(PeerClass, RequestDecision)]) -> ProbeOutcome {
        let mut cands: Vec<Scripted> = lanes
            .iter()
            .map(|&(class, decision)| Scripted {
                class,
                decision,
                contacted: false,
            })
            .collect();
        attempt_admission(req, &mut cands)
    }

    fn assert_equivalent(verdict: AdmissionVerdict, outcome: ProbeOutcome) {
        match (verdict, outcome) {
            (AdmissionVerdict::Admitted { granted: a }, ProbeOutcome::Admitted { granted: b }) => {
                assert_eq!(a, b)
            }
            (
                AdmissionVerdict::Rejected {
                    secured: sa,
                    reminders: ra,
                },
                ProbeOutcome::Rejected {
                    secured: sb,
                    reminders: rb,
                },
            ) => {
                assert_eq!(sa, sb);
                assert_eq!(ra, rb);
            }
            (v, o) => panic!("pipelined {v:?} != sequential {o:?}"),
        }
    }

    #[test]
    fn single_class1_grant_admits_immediately() {
        let lanes = [(class(1), RequestDecision::Granted)];
        let v = drive(7, class(2), &lanes, &[0]);
        assert_eq!(v, AdmissionVerdict::Admitted { granted: vec![0] });
    }

    #[test]
    fn admits_on_settled_prefix_before_slow_lane_replies() {
        // Lane 1 (class 1, best) grants; lane 0 (class 3) never replies.
        // Fold order is [1, 0]: the prefix secures R0 with lane 1 alone,
        // so the verdict must not wait for lane 0.
        let classes = [class(3), class(1)];
        let mut drv = AdmissionDriver::new(9, class(2), &classes);
        drv.start();
        drv.on_message(
            1,
            &Message::Grant {
                session: 9,
                class: class(1),
            },
        );
        assert_eq!(
            drv.verdict(),
            &AdmissionVerdict::Admitted { granted: vec![1] }
        );
        // The slow lane's eventual grant is released, not adopted.
        while drv.pop_action().is_some() {}
        drv.on_message(
            0,
            &Message::Grant {
                session: 9,
                class: class(3),
            },
        );
        let mut acts = Vec::new();
        while let Some(a) = drv.pop_action() {
            acts.push(a);
        }
        assert_eq!(
            acts,
            vec![
                AdmissionAction::Send {
                    lane: 0,
                    msg: Message::Release { session: 9 }
                },
                AdmissionAction::Close { lane: 0 },
            ]
        );
        assert_eq!(
            drv.verdict(),
            &AdmissionVerdict::Admitted { granted: vec![1] },
            "late grant must not change a decided round"
        );
    }

    #[test]
    fn worse_lane_settling_first_cannot_decide_the_round() {
        // Fold order [best=1, worst=0]: the worst lane's grant arriving
        // first must NOT admit while the better lane is pending, because
        // the sequential prober would have taken the better grant first.
        let classes = [class(4), class(2)];
        let mut drv = AdmissionDriver::new(5, class(2), &classes);
        drv.start();
        drv.on_message(
            0,
            &Message::Grant {
                session: 5,
                class: class(4),
            },
        );
        assert_eq!(drv.verdict(), &AdmissionVerdict::Pending);
        drv.on_message(
            1,
            &Message::Grant {
                session: 5,
                class: class(2),
            },
        );
        // class 2 offers R0/2, class 4 offers R0/8: both taken, still
        // short of R0 -> rejected with both grants released.
        match drv.verdict() {
            AdmissionVerdict::Rejected { secured, reminders } => {
                assert!(!secured.is_full_rate());
                assert!(reminders.is_empty());
            }
            v => panic!("expected rejection, got {v:?}"),
        }
    }

    #[test]
    fn rejection_releases_grants_and_leaves_reminders() {
        let lanes = [
            (class(2), RequestDecision::Granted),
            (class(2), RequestDecision::Busy { favored: true }),
            (class(3), RequestDecision::Busy { favored: false }),
        ];
        let v = drive(3, class(1), &lanes, &[0, 1, 2]);
        assert_equivalent(v.clone(), reference(class(1), &lanes));
        match v {
            AdmissionVerdict::Rejected { reminders, .. } => {
                assert_eq!(reminders, vec![1], "busy-favored lane gets the reminder");
            }
            v => panic!("expected rejection, got {v:?}"),
        }
    }

    #[test]
    fn empty_candidate_list_rejects_at_start() {
        let mut drv = AdmissionDriver::new(1, class(2), &[]);
        drv.start();
        assert_eq!(
            drv.verdict(),
            &AdmissionVerdict::Rejected {
                secured: Bandwidth::ZERO,
                reminders: vec![]
            }
        );
    }

    #[test]
    fn actions_never_target_the_admitted_set() {
        // 2 + 2 classes secure R0 together; the rest must be cleaned up.
        let lanes = [
            (class(2), RequestDecision::Granted),
            (class(2), RequestDecision::Granted),
            (class(2), RequestDecision::Granted),
            (class(4), RequestDecision::Refused),
        ];
        let classes: Vec<PeerClass> = lanes.iter().map(|l| l.0).collect();
        let mut drv = AdmissionDriver::new(8, class(1), &classes);
        drv.start();
        let mut actions = Vec::new();
        while drv.pop_action().is_some() {} // discard the request burst
        for (lane, (cls, decision)) in lanes.iter().enumerate() {
            match decision {
                RequestDecision::Granted => drv.on_message(
                    lane,
                    &Message::Grant {
                        session: 8,
                        class: *cls,
                    },
                ),
                _ => drv.on_lane_error(lane),
            }
            while let Some(a) = drv.pop_action() {
                actions.push(a);
            }
        }
        let granted = match drv.verdict() {
            AdmissionVerdict::Admitted { granted } => granted.clone(),
            v => panic!("expected admission, got {v:?}"),
        };
        assert_eq!(granted, vec![0, 1]);
        for a in &actions {
            let lane = match a {
                AdmissionAction::Send { lane, .. } | AdmissionAction::Close { lane } => *lane,
            };
            assert!(
                !granted.contains(&lane),
                "action {a:?} targets an admitted lane"
            );
        }
        // The extra grant (lane 2) was released; the dead lane closed
        // by its own transport gets no redundant Close.
        assert!(actions.contains(&AdmissionAction::Send {
            lane: 2,
            msg: Message::Release { session: 8 }
        }));
        assert!(!actions.contains(&AdmissionAction::Close { lane: 3 }));
    }

    fn decision_strategy() -> impl Strategy<Value = RequestDecision> {
        prop_oneof![
            Just(RequestDecision::Granted),
            Just(RequestDecision::Refused),
            Just(RequestDecision::Busy { favored: true }),
            Just(RequestDecision::Busy { favored: false }),
        ]
    }

    proptest! {
        /// The tentpole equivalence: on identical per-candidate
        /// responses, the pipelined fold returns exactly the sequential
        /// prober's outcome — for every candidate mix and every arrival
        /// order of the replies.
        #[test]
        fn pipelined_outcome_equals_sequential(
            lanes in prop::collection::vec(
                (1u8..=4u8, decision_strategy()), 0..12),
            req_class in 1u8..=4u8,
            arrival_seed in any::<u64>(),
        ) {
            let lanes: Vec<(PeerClass, RequestDecision)> = lanes
                .into_iter()
                .map(|(k, d)| (class(k), d))
                .collect();
            // Seed-derived arrival permutation (Fisher-Yates).
            let mut arrival: Vec<usize> = (0..lanes.len()).collect();
            let mut state = arrival_seed | 1;
            for i in (1..arrival.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                arrival.swap(i, j);
            }
            let verdict = drive(11, class(req_class), &lanes, &arrival);
            assert_equivalent(verdict, reference(class(req_class), &lanes));
        }
    }
}
