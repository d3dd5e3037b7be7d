//! Sans-io supplier connection: the supplying peer's half of one
//! connection, from the §4.2 handshake to the last §3 paced segment.
//!
//! [`SupplierConn`] owns what a supplier decides *per connection*: which
//! frame it expects, what it answers, how long it waits and — once a
//! `StartSession` confirms the grant — which segment is due when (the
//! [`SupplierSchedule`] it builds from the plan). The caller owns the
//! transport, the media bytes and the clock: every entry point takes
//! `now_us` and every deadline returned is absolute on that same clock.
//! The epoll-reactor serving path (`p2ps-node`) and the deterministic
//! harness (`p2ps-simnet`) host this same machine.
//!
//! ```text
//! await-request ─ StreamRequest ─▶ decide ─┬ Granted ▶ await-start ─ StartSession ─▶ streaming ▶ done
//!                                          ├ Refused ▶ done (Deny, close after flush)
//!                                          └ Busy ───▶ reminders ─ one Reminder, if favoured ─▶ done
//! ```
//!
//! What is decided *per node* — the §4.1 vector, the one session a
//! supplier serves, the reservation a grant holds — sits behind
//! [`SupplierAdmission`].

use p2ps_core::admission::RequestDecision;
use p2ps_core::PeerClass;

use crate::{Message, SupplierSchedule};

/// How long a grant reserves the supplier while the requester assembles
/// its supplier set, and how long a denied requester may stay connected
/// to leave its reminder.
pub const GRANT_TTL_MS: u64 = 3_000;
const GRANT_TTL_US: u64 = GRANT_TTL_MS * 1_000;

/// Soft backpressure bound: while more than this many bytes sit unsent
/// in the connection's outbound queue, [`SupplierConn::on_timer`] yields
/// instead of releasing the next overdue segment (only reachable when
/// deadlines are far behind, e.g. `dt = 0` throughput runs).
pub const PACE_BACKPRESSURE_BYTES: usize = 1 << 20;

/// The node-level decisions a [`SupplierConn`] defers to its host; one
/// instance serves every connection of a supplying peer.
///
/// A `Granted` [`decide`](Self::decide) hands the calling connection the
/// supplier's single reservation. That connection gives it back through
/// exactly one of [`release`](Self::release) and
/// [`begin_session`](Self::begin_session), and follows a `begin_session`
/// with exactly one [`end_session`](Self::end_session).
pub trait SupplierAdmission {
    /// The §4.1 answer to a class-`class` `StreamRequest`: `Busy` while
    /// a reservation or a session is live.
    fn decide(&mut self, class: PeerClass) -> RequestDecision;
    /// The reservation holder went away without confirming.
    fn release(&mut self);
    /// The reservation holder confirmed: the supplier is busy from now
    /// on. Returns how many segments of the item the node can serve (a
    /// local copy may be shorter than the plan's extent).
    fn begin_session(&mut self) -> u64;
    /// The session is over, served in full or cut short (§4.1(c)).
    fn end_session(&mut self);
    /// A class-`class` requester answered a busy-and-favoured denial
    /// with its reminder (§4.2).
    fn leave_reminder(&mut self, class: PeerClass);
}

/// What becomes of the connection after a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Flow {
    /// Keep reading.
    #[default]
    Keep,
    /// Protocol violation, release, or nothing left to say: close now.
    Close,
    /// A final reply is queued: close once it has flushed.
    CloseAfterFlush,
}

/// Everything [`SupplierConn::on_message`] asks of its host.
#[derive(Debug, PartialEq, Default)]
pub struct Step {
    /// A frame to send on this connection.
    pub reply: Option<Message>,
    /// Re-arm the connection's one timer for this instant.
    pub timer_us: Option<u64>,
    /// Keep or close.
    pub flow: Flow,
}

/// What [`SupplierConn::on_timer`] asks of its host, which calls it when
/// the armed deadline fires and again after every `Send` for as long as
/// it wants to catch up on overdue segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Transmit the segment with this index as `SegmentData` now.
    Send(u64),
    /// Nothing is due before this instant: re-arm the timer for it.
    Wait(u64),
    /// A segment is due but the outbound queue is over
    /// [`PACE_BACKPRESSURE_BYTES`]: retry shortly.
    Yield,
    /// The whole schedule is served: send `EndSession` and close once it
    /// has flushed.
    End,
    /// The peer stayed quiet past the phase's deadline, or the
    /// connection is already done: close now.
    Close,
}

/// An in-flight paced transmission.
#[derive(Debug)]
struct Stream {
    sched: SupplierSchedule,
    /// Segments the node can actually serve.
    cap: u64,
    /// `now_us` at `StartSession`: the origin of every §3 deadline.
    start_us: u64,
}

impl Stream {
    /// The schedule counts in ms from zero; the deadline is absolute, so
    /// neither the clock's sub-ms part nor a late wake-up carries into
    /// the next one.
    fn deadline_us(&self) -> u64 {
        self.start_us + 1_000 * self.sched.next_deadline_ms(0)
    }
}

#[derive(Debug)]
enum Phase {
    /// Fresh connection: the first frame must be a `StreamRequest`.
    AwaitRequest,
    /// Grant sent, reservation held: a `StartSession` must confirm.
    AwaitStart,
    /// Busy denial sent. Holds the requester's class while the one
    /// reminder §4.2 allows a *favoured* requester is still to come.
    Reminders(Option<PeerClass>),
    Streaming(Stream),
    /// Closed; nothing is held any more.
    Done,
}

/// The supplier half of one connection as a sans-io state machine (see
/// the module docs).
#[derive(Debug)]
pub struct SupplierConn {
    /// The supplier's own class: echoed in `Grant`, and the pacing rate
    /// of explicit plans.
    class: PeerClass,
    session: u64,
    phase: Phase,
    /// When the current handshake phase gives up on a quiet peer.
    quiet_deadline_us: u64,
}

impl SupplierConn {
    /// The machine for a connection a class-`class` supplier accepted at
    /// `now_us`. Arm [`deadline_us`](Self::deadline_us).
    pub fn new(class: PeerClass, now_us: u64) -> Self {
        SupplierConn {
            class,
            session: 0,
            phase: Phase::AwaitRequest,
            quiet_deadline_us: now_us + 2 * GRANT_TTL_US,
        }
    }

    /// The session id the peer's `StreamRequest` named (its frames echo
    /// it; 0 until one arrived).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Whether a confirmed session is being transmitted.
    pub fn is_streaming(&self) -> bool {
        matches!(self.phase, Phase::Streaming(_))
    }

    /// When [`on_timer`](Self::on_timer) next has something to do: the
    /// quiet deadline during the handshake, the next §3 deadline while
    /// streaming, never once closed.
    pub fn deadline_us(&self) -> Option<u64> {
        match &self.phase {
            Phase::Done => None,
            Phase::Streaming(s) => Some(s.deadline_us()),
            _ => Some(self.quiet_deadline_us),
        }
    }

    /// The segment the next `Send` would carry, if a stream is running
    /// and has one left.
    pub fn peek_unsent(&mut self) -> Option<u64> {
        match &mut self.phase {
            Phase::Streaming(s) => s.sched.next_unsent(s.cap),
            _ => None,
        }
    }

    /// Feeds one decoded frame received at `now_us`.
    pub fn on_message(
        &mut self,
        msg: Message,
        now_us: u64,
        adm: &mut impl SupplierAdmission,
    ) -> Step {
        let close = Step {
            flow: Flow::Close,
            ..Step::default()
        };
        match (std::mem::replace(&mut self.phase, Phase::Done), msg) {
            (Phase::AwaitRequest, Message::StreamRequest { session, class }) => {
                self.session = session;
                let (reply, next) = match adm.decide(class) {
                    RequestDecision::Granted => {
                        let class = self.class;
                        (Message::Grant { session, class }, Phase::AwaitStart)
                    }
                    RequestDecision::Busy { favored } => {
                        let due = favored.then_some(class);
                        (deny(session, true, favored), Phase::Reminders(due))
                    }
                    RequestDecision::Refused => {
                        return Step {
                            reply: Some(deny(session, false, false)),
                            flow: Flow::CloseAfterFlush,
                            ..Step::default()
                        }
                    }
                };
                self.phase = next;
                self.wait(Some(reply), now_us)
            }
            (Phase::AwaitStart, msg) => {
                // The schedule validates the plan and derives the stride
                // (periodic §3 plans tile their period; explicit one-shot
                // plans pace at this supplier's own class rate).
                let spp = u64::from(self.class.slots_per_segment());
                let sched = match msg {
                    Message::StartSession { session, plan }
                        if session == self.session && now_us <= self.quiet_deadline_us =>
                    {
                        SupplierSchedule::new(plan, spp).ok()
                    }
                    // Release, junk, a foreign session id, or a
                    // confirmation the timer should already have cut off.
                    _ => None,
                };
                let Some(sched) = sched else {
                    adm.release();
                    return close;
                };
                let stream = Stream {
                    sched,
                    cap: adm.begin_session(),
                    start_us: now_us,
                };
                let timer_us = Some(stream.deadline_us());
                self.phase = Phase::Streaming(stream);
                Step {
                    timer_us,
                    ..Step::default()
                }
            }
            // The class is the one the StreamRequest declared and the
            // denial judged — never the frame's own, which the peer could
            // set to tighten the vector around a class it is not.
            (Phase::Reminders(Some(class)), Message::Reminder { session, .. })
                if session == self.session =>
            {
                adm.leave_reminder(class);
                self.phase = Phase::Reminders(None);
                self.wait(None, now_us)
            }
            (Phase::Streaming(mut s), msg) => {
                // Mid-stream replan: after losing another supplier the
                // requester appends an *explicit* share of the lost
                // segments, served after the running plan at the same
                // stride. No honest share outgrows the file. Anything
                // else (e.g. an early EndSession) is tolerated as noise.
                if let Message::StartSession { session, plan } = msg {
                    if session == self.session && plan.is_explicit() {
                        let pending = s.sched.pending_appended() + plan.segments.len();
                        if pending as u64 > s.sched.plan().total_segments {
                            adm.end_session();
                            return close;
                        }
                        s.sched.append(plan.segments);
                    }
                }
                self.phase = Phase::Streaming(s);
                Step::default()
            }
            _ => close,
        }
    }

    /// The armed deadline fired, or the host is catching up after a
    /// `Send`. `backlog_bytes` is what the connection's outbound queue
    /// still holds.
    pub fn on_timer(
        &mut self,
        now_us: u64,
        backlog_bytes: usize,
        adm: &mut impl SupplierAdmission,
    ) -> Pace {
        match &mut self.phase {
            Phase::Streaming(s) => {
                let Some(index) = s.sched.next_unsent(s.cap) else {
                    self.close(adm);
                    return Pace::End;
                };
                let deadline = s.deadline_us();
                if deadline > now_us {
                    Pace::Wait(deadline)
                } else if backlog_bytes > PACE_BACKPRESSURE_BYTES {
                    Pace::Yield
                } else {
                    s.sched.consume();
                    Pace::Send(index)
                }
            }
            Phase::Done => Pace::Close,
            _ if now_us < self.quiet_deadline_us => Pace::Wait(self.quiet_deadline_us),
            _ => {
                self.close(adm);
                Pace::Close
            }
        }
    }

    /// The connection is gone — the peer hung up, the transport failed,
    /// or the host is shutting the supplier down mid-stream: gives back
    /// whatever this connection held. Idempotent.
    pub fn close(&mut self, adm: &mut impl SupplierAdmission) {
        match std::mem::replace(&mut self.phase, Phase::Done) {
            Phase::AwaitStart => adm.release(),
            Phase::Streaming(_) => adm.end_session(),
            Phase::AwaitRequest | Phase::Reminders(_) | Phase::Done => {}
        }
    }

    /// Gives the peer one grant TTL from `now_us` to speak again.
    fn wait(&mut self, reply: Option<Message>, now_us: u64) -> Step {
        self.quiet_deadline_us = now_us + GRANT_TTL_US;
        Step {
            reply,
            timer_us: Some(self.quiet_deadline_us),
            flow: Flow::Keep,
        }
    }
}

fn deny(session: u64, busy: bool, favored: bool) -> Message {
    Message::Deny {
        session,
        busy,
        favored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CandidateRecord, SessionPlan};
    use bytes::Bytes;
    use p2ps_core::admission::{Protocol, SupplierConfig, SupplierState};
    use p2ps_core::PeerId;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Virtual µs clock origin of every scripted connection.
    const T0: u64 = 1_000_000;
    /// The session id the scripted requester uses.
    const S: u64 = 77;
    const TTL: u64 = GRANT_TTL_US;
    const CLOSE: Step = Step {
        reply: None,
        timer_us: None,
        flow: Flow::Close,
    };

    fn class(k: u8) -> PeerClass {
        PeerClass::new(k).unwrap()
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Decide(u8),
        Release,
        Begin,
        End,
        Remind(u8),
    }

    /// A node that answers one fixed decision and records every call.
    struct Host {
        decision: RequestDecision,
        cap: u64,
        calls: Vec<Call>,
    }

    impl Host {
        fn answering(decision: RequestDecision) -> Host {
            Host {
                decision,
                cap: 8,
                calls: Vec::new(),
            }
        }
    }

    impl SupplierAdmission for Host {
        fn decide(&mut self, class: PeerClass) -> RequestDecision {
            self.calls.push(Call::Decide(class.get()));
            self.decision
        }
        fn release(&mut self) {
            self.calls.push(Call::Release);
        }
        fn begin_session(&mut self) -> u64 {
            self.calls.push(Call::Begin);
            self.cap
        }
        fn end_session(&mut self) {
            self.calls.push(Call::End);
        }
        fn leave_reminder(&mut self, class: PeerClass) {
            self.calls.push(Call::Remind(class.get()));
        }
    }

    fn plan(segments: Vec<u32>, period: u32) -> SessionPlan {
        SessionPlan {
            item: "t".into(),
            segments,
            period,
            total_segments: 8,
            dt_ms: 10,
        }
    }

    fn start(session: u64, plan: SessionPlan) -> Message {
        Message::StartSession { session, plan }
    }

    /// Every phase a connection can be in.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum At {
        Request,
        Start,
        /// Busy-and-favoured denial, reminder not yet left.
        RemindOpen,
        /// Busy denial that did not call the requester favoured.
        RemindShut,
        Stream,
        Done,
    }

    const PHASES: [At; 6] = [
        At::Request,
        At::Start,
        At::RemindOpen,
        At::RemindShut,
        At::Stream,
        At::Done,
    ];

    /// A class-2 supplier's connection driven to `at` by a class-3
    /// requester at `T0`, with the host's call log cleared.
    fn conn_at(at: At) -> (SupplierConn, Host) {
        let decision = match at {
            At::Request | At::Start | At::Stream => RequestDecision::Granted,
            At::RemindOpen => RequestDecision::Busy { favored: true },
            At::RemindShut => RequestDecision::Busy { favored: false },
            At::Done => RequestDecision::Refused,
        };
        let mut host = Host::answering(decision);
        let mut conn = SupplierConn::new(class(2), T0);
        if at != At::Request {
            let request = Message::StreamRequest {
                session: S,
                class: class(3),
            };
            conn.on_message(request, T0, &mut host);
        }
        if at == At::Stream {
            conn.on_message(start(S, plan(vec![0], 2)), T0, &mut host);
        }
        host.calls.clear();
        (conn, host)
    }

    /// One of every frame the wire can carry, `StartSession` in the three
    /// shapes the machine tells apart.
    fn every_message() -> Vec<Message> {
        vec![
            Message::StreamRequest {
                session: S,
                class: class(2),
            },
            Message::Grant {
                session: S,
                class: class(1),
            },
            Message::Deny {
                session: S,
                busy: true,
                favored: true,
            },
            Message::Release { session: S },
            Message::Reminder {
                session: S,
                class: class(1),
            },
            start(S, plan(vec![0], 2)),
            start(S, plan(vec![5], 8)),
            start(S + 1, plan(vec![5], 8)),
            Message::SegmentData {
                session: S,
                index: 0,
                payload: Bytes::from_static(b"x"),
            },
            Message::EndSession { session: S },
            Message::Register {
                item: "t".into(),
                peer: PeerId::new(1),
                class: class(1),
                port: 1,
            },
            Message::QueryCandidates {
                item: "t".into(),
                m: 1,
            },
            Message::Candidates {
                list: Vec::<CandidateRecord>::new(),
            },
        ]
    }

    /// The cells that are not their phase's default.
    fn expected(at: At, msg: &Message) -> (Flow, Option<Message>, Vec<Call>) {
        match (at, msg) {
            (At::Request, Message::StreamRequest { .. }) => (
                Flow::Keep,
                Some(Message::Grant {
                    session: S,
                    class: class(2),
                }),
                vec![Call::Decide(2)],
            ),
            (At::Start, Message::StartSession { session: S, .. }) => {
                (Flow::Keep, None, vec![Call::Begin])
            }
            // Release, a foreign session id, anything else: the
            // reservation is freed.
            (At::Start, _) => (Flow::Close, None, vec![Call::Release]),
            // The remembered class 3, not the frame's class 1.
            (At::RemindOpen, Message::Reminder { .. }) => (Flow::Keep, None, vec![Call::Remind(3)]),
            (At::Stream, _) => (Flow::Keep, None, vec![]),
            _ => (Flow::Close, None, vec![]),
        }
    }

    #[test]
    fn every_phase_answers_every_message() {
        for at in PHASES {
            for msg in every_message() {
                let (mut conn, mut host) = conn_at(at);
                let (flow, reply, calls) = expected(at, &msg);
                let cell = format!("{at:?} x {}", msg.name());
                let step = conn.on_message(msg, T0 + 5, &mut host);
                assert_eq!(step.flow, flow, "{cell}: flow");
                assert_eq!(step.reply, reply, "{cell}: reply");
                assert_eq!(host.calls, calls, "{cell}: node calls");
                assert_eq!(
                    conn.deadline_us().is_some(),
                    flow == Flow::Keep,
                    "{cell}: a kept connection always has a deadline, a closed one never"
                );
                // Whatever happened, closing now balances the books.
                let owed = match conn.phase {
                    Phase::Streaming(_) => vec![Call::End],
                    Phase::AwaitStart => vec![Call::Release],
                    _ => vec![],
                };
                host.calls.clear();
                conn.close(&mut host);
                assert_eq!(host.calls, owed, "{cell}: close");
            }
        }
    }

    #[test]
    fn the_three_decisions_answer_on_the_wire() {
        for (decision, reply, flow) in [
            (
                RequestDecision::Refused,
                Message::Deny {
                    session: S,
                    busy: false,
                    favored: false,
                },
                Flow::CloseAfterFlush,
            ),
            (
                RequestDecision::Busy { favored: false },
                Message::Deny {
                    session: S,
                    busy: true,
                    favored: false,
                },
                Flow::Keep,
            ),
            (
                RequestDecision::Busy { favored: true },
                Message::Deny {
                    session: S,
                    busy: true,
                    favored: true,
                },
                Flow::Keep,
            ),
        ] {
            let mut host = Host::answering(decision);
            let mut conn = SupplierConn::new(class(1), T0);
            assert_eq!(conn.deadline_us(), Some(T0 + 2 * TTL));
            let request = Message::StreamRequest {
                session: S,
                class: class(4),
            };
            let step = conn.on_message(request, T0 + 9, &mut host);
            assert_eq!(step.reply, Some(reply));
            assert_eq!(step.flow, flow);
            let armed = (flow == Flow::Keep).then_some(T0 + 9 + TTL);
            assert_eq!(step.timer_us, armed);
            assert_eq!(conn.deadline_us(), armed);
        }
    }

    #[test]
    fn reservation_expires_after_ttl() {
        // Confirmed at exactly the TTL: still good.
        let (mut conn, mut host) = conn_at(At::Start);
        assert_eq!(
            conn.on_timer(T0 + TTL - 1, 0, &mut host),
            Pace::Wait(T0 + TTL)
        );
        let step = conn.on_message(start(S, plan(vec![0], 2)), T0 + TTL, &mut host);
        assert_eq!(step.flow, Flow::Keep);
        assert_eq!(host.calls, vec![Call::Begin]);

        // One tick later — the wheel is late, the frame got in first —
        // the grant is void and the supplier free again.
        let (mut conn, mut host) = conn_at(At::Start);
        let step = conn.on_message(start(S, plan(vec![0], 2)), T0 + TTL + 1, &mut host);
        assert_eq!(step, CLOSE);
        assert_eq!(host.calls, vec![Call::Release]);

        // The timer itself, at exactly the TTL.
        let (mut conn, mut host) = conn_at(At::Start);
        assert_eq!(conn.on_timer(T0 + TTL, 0, &mut host), Pace::Close);
        assert_eq!(host.calls, vec![Call::Release], "expiry frees the supplier");
        assert_eq!(conn.on_timer(T0 + TTL + 1, 0, &mut host), Pace::Close);
        conn.close(&mut host);
        assert_eq!(host.calls, vec![Call::Release], "freed exactly once");
    }

    #[test]
    fn no_reservation_is_inactive() {
        // Phases that hold nothing give nothing back, however they end.
        for at in [At::Request, At::RemindOpen, At::RemindShut, At::Done] {
            let (mut conn, mut host) = conn_at(at);
            assert_eq!(conn.on_timer(T0 + 2 * TTL, 0, &mut host), Pace::Close);
            conn.close(&mut host);
            assert_eq!(host.calls, vec![], "{at:?}");
        }
        // A silent fresh connection gets twice the grant TTL.
        let (mut conn, mut host) = conn_at(At::Request);
        assert_eq!(
            conn.on_timer(T0 + 2 * TTL - 1, 0, &mut host),
            Pace::Wait(T0 + 2 * TTL)
        );
    }

    #[test]
    fn release_frees_the_reservation_at_once() {
        let (mut conn, mut host) = conn_at(At::Start);
        let step = conn.on_message(Message::Release { session: S }, T0 + 1, &mut host);
        assert_eq!(step, CLOSE);
        assert_eq!(host.calls, vec![Call::Release]);
        assert_eq!(conn.deadline_us(), None);
    }

    #[test]
    fn a_foreign_session_id_cannot_confirm_a_grant() {
        let (mut conn, mut host) = conn_at(At::Start);
        let step = conn.on_message(start(S + 1, plan(vec![0], 2)), T0 + 1, &mut host);
        assert_eq!(step, CLOSE);
        assert_eq!(host.calls, vec![Call::Release]);
    }

    #[test]
    fn a_malformed_plan_frees_the_reservation() {
        let (mut conn, mut host) = conn_at(At::Start);
        let step = conn.on_message(start(S, plan(vec![0, 1, 2], 4)), T0 + 1, &mut host);
        assert_eq!(step, CLOSE);
        assert_eq!(host.calls, vec![Call::Release]);
    }

    #[test]
    fn reminder_phase_expires_quietly_unless_refreshed() {
        // No reminder: the denial's TTL runs out.
        let (mut conn, mut host) = conn_at(At::RemindOpen);
        assert_eq!(
            conn.on_timer(T0 + TTL - 1, 0, &mut host),
            Pace::Wait(T0 + TTL)
        );
        assert_eq!(conn.on_timer(T0 + TTL, 0, &mut host), Pace::Close);

        // The one reminder moves the deadline a full TTL on, once.
        let (mut conn, mut host) = conn_at(At::RemindOpen);
        let reminder = || Message::Reminder {
            session: S,
            class: class(3),
        };
        let step = conn.on_message(reminder(), T0 + 2_000, &mut host);
        assert_eq!(step.timer_us, Some(T0 + 2_000 + TTL));
        assert_eq!(
            conn.on_timer(T0 + TTL, 0, &mut host),
            Pace::Wait(T0 + 2_000 + TTL),
            "the old deadline no longer closes"
        );
        assert_eq!(conn.on_timer(T0 + 2_000 + TTL, 0, &mut host), Pace::Close);
        assert_eq!(host.calls, vec![Call::Remind(3)]);
    }

    #[test]
    fn an_honest_reminder_is_left_once() {
        let (mut conn, mut host) = conn_at(At::RemindOpen);
        let reminder = || Message::Reminder {
            session: S,
            class: class(3),
        };
        assert_eq!(
            conn.on_message(reminder(), T0 + 1, &mut host).flow,
            Flow::Keep
        );
        // A second one is not part of §4.2: it buys no more time and no
        // more state.
        assert_eq!(conn.on_message(reminder(), T0 + 2, &mut host), CLOSE);
        assert_eq!(host.calls, vec![Call::Remind(3)]);
    }

    #[test]
    fn a_forged_reminder_never_reaches_the_vector() {
        // Not favoured: no reminder is due, whatever class it claims.
        let (mut conn, mut host) = conn_at(At::RemindShut);
        let forged = Message::Reminder {
            session: S,
            class: class(1),
        };
        assert_eq!(conn.on_message(forged, T0 + 1, &mut host), CLOSE);
        assert_eq!(host.calls, vec![]);

        // Favoured, but claiming a higher class than it requested as: the
        // class of record is used.
        let (mut conn, mut host) = conn_at(At::RemindOpen);
        let inflated = Message::Reminder {
            session: S,
            class: class(1),
        };
        conn.on_message(inflated, T0 + 1, &mut host);
        assert_eq!(host.calls, vec![Call::Remind(3)]);

        // Another session's reminder is not this connection's.
        let (mut conn, mut host) = conn_at(At::RemindOpen);
        let foreign = Message::Reminder {
            session: S + 1,
            class: class(3),
        };
        assert_eq!(conn.on_message(foreign, T0 + 1, &mut host), CLOSE);
        assert_eq!(host.calls, vec![]);
    }

    /// Fires the timer at each deadline the machine names until it ends,
    /// returning `(µs, segment)` per send and the closing verdict.
    fn run_out(conn: &mut SupplierConn, host: &mut Host, mut now: u64) -> (Vec<(u64, u64)>, Pace) {
        let mut sent = Vec::new();
        for _ in 0..1_000 {
            match conn.on_timer(now, 0, host) {
                Pace::Send(index) => sent.push((now, index)),
                Pace::Wait(at) => {
                    assert!(at > now, "a wait must move time forward");
                    now = at;
                }
                end => return (sent, end),
            }
        }
        panic!("the stream never ended");
    }

    #[test]
    fn a_stream_paces_on_absolute_deadlines_and_ends() {
        // Stride 2 slots of 10 ms from a start off the ms grid.
        let (mut conn, mut host) = conn_at(At::Start);
        let t = T0 + 123;
        let step = conn.on_message(start(S, plan(vec![0], 2)), t, &mut host);
        assert_eq!(step.timer_us, Some(t + 20_000));
        let (sent, end) = run_out(&mut conn, &mut host, t);
        let due = |p: u64| t + (p + 1) * 20_000;
        assert_eq!(
            sent,
            vec![(due(0), 0), (due(1), 2), (due(2), 4), (due(3), 6)]
        );
        assert_eq!(end, Pace::End);
        assert_eq!(host.calls, vec![Call::Begin, Call::End]);
        assert_eq!(conn.on_timer(due(9), 0, &mut host), Pace::Close);
    }

    #[test]
    fn a_late_host_catches_up_in_one_callback_unless_the_socket_is_full() {
        let (mut conn, mut host) = conn_at(At::Stream);
        let late = T0 + 45_000; // two deadlines (20, 40 ms) behind
        assert_eq!(
            conn.on_timer(late, PACE_BACKPRESSURE_BYTES + 1, &mut host),
            Pace::Yield
        );
        assert_eq!(conn.peek_unsent(), Some(0), "a yield consumes nothing");
        assert_eq!(
            conn.on_timer(late, PACE_BACKPRESSURE_BYTES, &mut host),
            Pace::Send(0)
        );
        assert_eq!(conn.on_timer(late, 0, &mut host), Pace::Send(2));
        assert_eq!(conn.on_timer(late, 0, &mut host), Pace::Wait(T0 + 60_000));
    }

    #[test]
    fn a_short_local_copy_caps_the_stream() {
        let (mut conn, mut host) = conn_at(At::Start);
        host.cap = 3;
        conn.on_message(start(S, plan(vec![0], 2)), T0, &mut host);
        let (sent, end) = run_out(&mut conn, &mut host, T0);
        let segments: Vec<u64> = sent.iter().map(|&(_, seg)| seg).collect();
        assert_eq!(segments, vec![0, 2]);
        assert_eq!(end, Pace::End);
    }

    #[test]
    fn an_appended_replan_is_served_after_the_base_plan() {
        let (mut conn, mut host) = conn_at(At::Stream);
        let step = conn.on_message(start(S, plan(vec![7, 1], 8)), T0 + 1, &mut host);
        assert_eq!(step, Step::default(), "an append changes no deadline");
        let (sent, end) = run_out(&mut conn, &mut host, T0);
        let segments: Vec<u64> = sent.iter().map(|&(_, seg)| seg).collect();
        assert_eq!(segments, vec![0, 2, 4, 6, 7, 1]);
        let gaps: Vec<u64> = sent.windows(2).map(|w| w[1].0 - w[0].0).collect();
        assert_eq!(gaps, vec![20_000; 5], "same stride across the seam");
        assert_eq!(end, Pace::End);
    }

    #[test]
    fn an_append_that_would_outgrow_the_file_closes_the_connection() {
        let (mut conn, mut host) = conn_at(At::Stream);
        // 8 segments in the file: 5 + 3 pending is the most there can be.
        let five = start(S, plan(vec![1, 3, 5, 7, 1], 8));
        assert_eq!(conn.on_message(five, T0 + 1, &mut host), Step::default());
        let three = start(S, plan(vec![3, 5, 7], 8));
        assert_eq!(conn.on_message(three, T0 + 2, &mut host), Step::default());
        let one_more = start(S, plan(vec![1], 8));
        assert_eq!(conn.on_message(one_more, T0 + 3, &mut host), CLOSE);
        assert_eq!(
            host.calls,
            vec![Call::End],
            "the cut-short session still ends"
        );
        assert_eq!(conn.deadline_us(), None);
    }

    #[test]
    fn stopping_mid_stream_ends_the_session_without_a_goodbye() {
        let (mut conn, mut host) = conn_at(At::Stream);
        assert_eq!(conn.on_timer(T0 + 20_000, 0, &mut host), Pace::Send(0));
        conn.close(&mut host);
        assert_eq!(host.calls, vec![Call::End]);
        assert!(!conn.is_streaming());
        assert_eq!(conn.on_timer(T0 + 40_000, 0, &mut host), Pace::Close);
        assert_eq!(host.calls, vec![Call::End], "ended exactly once");
    }

    /// The real §4.1 state behind the seam, with the reservation a live
    /// node adds, checking the contract from the node's side: who holds
    /// what, and that nobody gives back what they do not hold.
    struct Node {
        state: SupplierState,
        rng: SmallRng,
        /// The connection the harness is calling the machine for.
        caller: usize,
        reserved_by: Option<usize>,
        served: Option<usize>,
        grants: u32,
    }

    impl SupplierAdmission for Node {
        fn decide(&mut self, class: PeerClass) -> RequestDecision {
            if self.reserved_by.is_some() {
                return RequestDecision::Busy { favored: true };
            }
            let d = self.state.handle_request(0, class, &mut self.rng);
            if d.is_granted() {
                assert_eq!(self.served, None, "granted while a session is live");
                self.reserved_by = Some(self.caller);
                self.grants += 1;
            }
            d
        }
        fn release(&mut self) {
            assert_eq!(self.reserved_by.take(), Some(self.caller), "release");
        }
        fn begin_session(&mut self) -> u64 {
            assert_eq!(self.reserved_by.take(), Some(self.caller), "begin");
            self.state.begin_session(0); // panics on a double-book
            self.served = Some(self.caller);
            8
        }
        fn end_session(&mut self) {
            assert_eq!(self.served.take(), Some(self.caller), "end");
            self.state.end_session(0); // panics when idle
        }
        fn leave_reminder(&mut self, class: PeerClass) {
            self.state.leave_reminder(class);
        }
    }

    proptest! {
        /// Any interleaving of frames, timer expiries and hang-ups on up
        /// to three connections of one node keeps the node's books
        /// balanced, and every connection can always be run to its end.
        #[test]
        fn interleaved_connections_never_double_book_or_leak(
            conns in 1usize..=3,
            supplier_class in 1u8..=4,
            ops in prop::collection::vec((0usize..3, 0u8..10, 0u8..4), 0..120),
        ) {
            let cfg = SupplierConfig::new(4, 0, Protocol::Dac).unwrap();
            let mut node = Node {
                state: SupplierState::new(class(supplier_class), cfg, 0).unwrap(),
                rng: SmallRng::seed_from_u64(ops.len() as u64),
                caller: 0,
                reserved_by: None,
                served: None,
                grants: 0,
            };
            let mut now = T0;
            let mut machines: Vec<SupplierConn> =
                (0..conns).map(|_| SupplierConn::new(class(supplier_class), now)).collect();
            for (i, op, arg) in ops {
                let i = i % conns;
                node.caller = i;
                if machines[i].deadline_us().is_none() {
                    // The last one closed: a new connection is accepted.
                    machines[i] = SupplierConn::new(class(supplier_class), now);
                }
                let session = u64::from(arg % 2);
                let msg = match op {
                    0 => Some(Message::StreamRequest { session, class: class(arg + 1) }),
                    1 => Some(start(session, plan(vec![0, 1], 4))),
                    2 => Some(start(session, plan(vec![u32::from(arg), 9, 3], 8))),
                    3 => Some(Message::Release { session }),
                    4 => Some(Message::Reminder { session, class: class(arg + 1) }),
                    5 => Some(Message::EndSession { session }),
                    _ => None,
                };
                if let Some(msg) = msg {
                    now += 1_000;
                    let step = machines[i].on_message(msg, now, &mut node);
                    if step.flow == Flow::Keep {
                        prop_assert_eq!(step.timer_us.is_some_and(|t| t < now), false);
                    } else {
                        prop_assert_eq!(machines[i].deadline_us(), None);
                    }
                } else if op == 9 {
                    machines[i].close(&mut node);
                } else {
                    // Timer: a short hop, a pacing stride, or a whole TTL.
                    now += [1_000, 20_000, TTL, 2 * TTL][usize::from(arg)];
                    for _ in 0..16 {
                        match machines[i].on_timer(now, 0, &mut node) {
                            Pace::Send(_) => continue,
                            Pace::Yield => prop_assert!(false, "no backlog was reported"),
                            _ => break,
                        }
                    }
                }
                let holders = machines.iter().filter(|m| {
                    m.is_streaming() || matches!(m.phase, Phase::AwaitStart)
                }).count();
                prop_assert!(holders <= 1, "two connections own the supplier");
                prop_assert_eq!(holders == 1, node.reserved_by.or(node.served).is_some());
            }
            // No hang: following its own deadlines, every connection ends.
            for (i, m) in machines.iter_mut().enumerate() {
                node.caller = i;
                let mut steps = 0;
                while let Some(deadline) = m.deadline_us() {
                    now = now.max(deadline);
                    m.on_timer(now, 0, &mut node);
                    steps += 1;
                    prop_assert!(steps < 64, "connection {} never closes", i);
                }
            }
            prop_assert_eq!(node.reserved_by, None);
            prop_assert_eq!(node.served, None);
            prop_assert!(!node.state.is_busy());
        }
    }
}
