//! The simulated world: virtual clock, event queue, and the real stack.
//!
//! [`SimWorld`] hosts one streaming session end to end with **zero**
//! threads, sockets or wall-clock reads. The protocol code is the real
//! thing — the same types the live node runs on its epoll reactor:
//!
//! * the requester side is a [`RequesterMachine`] — the session machine
//!   the reactor hosts: its §4.2 round sends `StreamRequest` on every
//!   lane and folds each supplier's `Grant`/`Deny` (with `Release`s and
//!   `Reminder`s on rejection), its §3 plan opens every used grant with
//!   `StartSession`, and its [`SessionDriver`](p2ps_node::SessionDriver)
//!   reassembles, replans and rules on completion — fed through a
//!   per-lane [`FrameDecoder`];
//! * each supplier side is a [`SupplierConn`] — the per-connection
//!   machine the reactor hosts: handshake phases, the grant reservation,
//!   reminder validation, §3 pacing with appended replan shares — fed
//!   through its own [`FrameDecoder`], its frames encoded by the real
//!   [`encode_frame`]; only its *decision* is scripted
//!   ([`AdmissionReply`] behind the [`SupplierAdmission`] seam);
//! * plans come from a real `p2ps-policy` [`SharedPolicy`].
//!
//! Only the transport is simulated: per-lane [`Link`]s impose latency,
//! jitter and bandwidth, the byte stream is fragmented at arbitrary
//! boundaries, and scheduled deaths cut a frame mid-byte before the
//! close lands. Everything is driven by one event queue keyed on virtual
//! microseconds — the clock `SupplierConn` and the reactor count in —
//! with a strictly increasing sequence number breaking ties; two runs of
//! the same [`Schedule`] replay the identical event order, asserted via
//! the run's [`trace_hash`](SimReport::trace_hash). The flight recorder
//! is stamped in ms, as on the live node.
//!
//! The transport allocates nothing per chunk. Each lane direction is a
//! `Pipe`: frames are encoded in place at the end of one reused
//! buffer, a chunk in flight is only a length, and its delivery feeds
//! the decoder the next `len` bytes of the pipe. A link never reorders,
//! so each one keeps its chunks in a FIFO and only the FIFO's head sits
//! in the `Queue`'s heap; merging the heads by `(at, seq)` pops the
//! same order one heap over every chunk would.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bytes::{Buf, BytesMut};
use p2ps_core::admission::RequestDecision;
use p2ps_core::assignment::SegmentDuration;
use p2ps_core::PeerClass;
use p2ps_media::{MediaFile, MediaInfo};
use p2ps_monitor::Recorder;
use p2ps_node::{NodeError, RequesterAction, RequesterMachine};
use p2ps_policy::SharedPolicy;
use p2ps_proto::{
    encode_frame, FrameDecoder, Message, Pace, SessionEvent, SupplierAdmission, SupplierConn,
};

use crate::link::Link;
use crate::schedule::AdmissionReply;
use crate::{Schedule, SimOutcome, SimReport, TraceHasher};

/// Which way bytes travel on a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Supplier → requester (admission replies and the stream).
    ToRequester = 0,
    /// Requester → supplier (admission requests, session setup, replans).
    ToSupplier = 1,
}

/// One thing that happens at a virtual instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Supplier `lane`'s next §3 pacing deadline.
    SupplierTick { lane: usize },
    /// The next `len` bytes of `lane`'s `dir` pipe reach that end of the
    /// connection.
    Deliver { lane: usize, dir: Dir, len: usize },
    /// The requester observes `lane`'s connection close.
    Closed { lane: usize },
    /// Supplier `lane` dies now.
    Die { lane: usize },
}

/// Queue entry: min-ordered by `(at, seq)` so equal-time events replay
/// in scheduling order.
#[derive(Debug)]
struct Scheduled {
    at: u64,
    seq: u64,
    ev: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A chunk in flight on one lane direction: its arrival, its sequence
/// number, and how many of the pipe's bytes it carries.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    at: u64,
    seq: u64,
    len: usize,
}

impl Chunk {
    fn deliver(self, lane: usize, dir: Dir) -> Scheduled {
        Scheduled {
            at: self.at,
            seq: self.seq,
            ev: Event::Deliver {
                lane,
                dir,
                len: self.len,
            },
        }
    }
}

/// The event queue: pops in `(at, seq)` order, every push taking the
/// next sequence number. Chunks wait in their link's FIFO, whose
/// arrivals are monotone and whose sequence numbers rise, so a FIFO's
/// head is its least entry and only the heads need to sit in the heap:
/// it holds O(links + ticks) entries, not every chunk in flight.
#[derive(Debug)]
struct Queue {
    heap: BinaryHeap<Scheduled>,
    /// Per lane, `[to_requester, to_supplier]`: the chunks in flight in
    /// arrival order. The front one, if any, is also in `heap`.
    in_flight: Vec<[VecDeque<Chunk>; 2]>,
    seq: u64,
}

impl Queue {
    fn new(lanes: usize) -> Queue {
        Queue {
            heap: BinaryHeap::new(),
            in_flight: (0..lanes).map(|_| Default::default()).collect(),
            seq: 0,
        }
    }

    /// Schedules `ev` at `at`; chunks go through [`push_chunk`](Self::push_chunk).
    fn push(&mut self, at: u64, ev: Event) {
        debug_assert!(!matches!(ev, Event::Deliver { .. }));
        self.seq += 1;
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            ev,
        });
    }

    /// Schedules the delivery of `len` bytes on `lane`'s `dir` link at
    /// `at`, no earlier than the link's previous chunk.
    fn push_chunk(&mut self, lane: usize, dir: Dir, at: u64, len: usize) {
        self.seq += 1;
        let chunk = Chunk {
            at,
            seq: self.seq,
            len,
        };
        let fifo = &mut self.in_flight[lane][dir as usize];
        debug_assert!(
            fifo.back().is_none_or(|prev| prev.at <= at),
            "links are FIFO"
        );
        fifo.push_back(chunk);
        if fifo.len() == 1 {
            self.heap.push(chunk.deliver(lane, dir));
        }
    }

    /// The earliest event; a delivery hands its link's next chunk to
    /// the heap.
    fn pop(&mut self) -> Option<Scheduled> {
        let s = self.heap.pop()?;
        if let Event::Deliver { lane, dir, .. } = s.ev {
            let fifo = &mut self.in_flight[lane][dir as usize];
            let head = fifo.pop_front();
            debug_assert_eq!(head.map(|c| c.seq), Some(s.seq));
            if let Some(&next) = fifo.front() {
                self.heap.push(next.deliver(lane, dir));
            }
        }
        Some(s)
    }
}

/// One direction of one lane's connection: the [`Link`] that times its
/// chunks and the bytes sent over it and not yet delivered — one buffer
/// with a read cursor, reused for the whole run, so a chunk in flight
/// costs no allocation.
#[derive(Debug)]
struct Pipe {
    link: Link,
    bytes: BytesMut,
}

impl Pipe {
    /// Encodes `msg`'s frame at the end of the pipe; returns its length.
    fn encode(&mut self, msg: &Message) -> usize {
        let start = self.bytes.len();
        encode_frame(msg, &mut self.bytes);
        self.bytes.len() - start
    }
}

/// Trace record tags (folded into the run digest).
const T_SEND: u8 = 1;
const T_CHUNK: u8 = 2;
const T_SEGMENT: u8 = 3;
const T_END: u8 = 4;
const T_START: u8 = 5;
const T_DIE: u8 = 6;
const T_CLOSED: u8 = 7;
const T_REPLAN: u8 = 8;
const T_OUTCOME: u8 = 9;
const T_ADM_TX: u8 = 10;
const T_ADM_RX: u8 = 11;
/// A flight-recorder event: the simulated session records the same
/// [`SessionEvent`] catalog the live requester does, and each one folds
/// into the digest so a recorder divergence breaks determinism loudly.
const T_EVENT: u8 = 12;

/// The narrow fields of a trace record, packed for its header word: a
/// lane and a one-byte code (a direction, a frame or outcome code).
fn narrow(lane: usize, code: u64) -> u64 {
    debug_assert!(code <= 0xff);
    ((lane as u64) << 8) | code
}

/// Small stable code for an admission-phase frame in the trace.
fn adm_code(msg: &Message) -> u64 {
    match msg {
        Message::StreamRequest { .. } => 1,
        Message::Grant { .. } => 2,
        Message::Deny { .. } => 3,
        Message::Reminder { .. } => 4,
        Message::Release { .. } => 5,
        _ => 0,
    }
}

/// One supplier's in-world state around its real [`SupplierConn`].
#[derive(Debug)]
struct SimSupplier {
    conn: SupplierConn,
    adm: Scripted,
    dec: FrameDecoder,
    alive: bool,
}

/// The node behind a simulated supplier: its §4.2 decision is the
/// schedule's script, it is never double-booked (one requester), and it
/// owns the whole file.
#[derive(Debug)]
struct Scripted {
    reply: AdmissionReply,
    segment_count: u64,
}

impl SupplierAdmission for Scripted {
    fn decide(&mut self, _class: PeerClass) -> RequestDecision {
        match self.reply {
            AdmissionReply::Grant => RequestDecision::Granted,
            AdmissionReply::Deny {
                busy: true,
                favored,
            } => RequestDecision::Busy { favored },
            AdmissionReply::Deny { busy: false, .. } => RequestDecision::Refused,
        }
    }
    fn release(&mut self) {}
    fn begin_session(&mut self) -> u64 {
        self.segment_count
    }
    fn end_session(&mut self) {}
    fn leave_reminder(&mut self, _class: PeerClass) {}
}

/// One deterministic run: virtual clock, event queue, links, and the
/// real admission/requester/supplier/policy stack. Build with
/// [`SimWorld::new`], consume with [`SimWorld::run`].
pub struct SimWorld {
    schedule: Schedule,
    /// Virtual time in µs.
    now: u64,
    queue: Queue,
    rng: SmallRng,
    trace: TraceHasher,
    /// The session's flight recorder, virtual-clock stamped — the same
    /// ring type the live requester publishes on its monitor scope.
    recorder: Recorder,

    session: u64,
    file: MediaFile,
    suppliers: Vec<SimSupplier>,
    /// Per lane: `[to_requester, to_supplier]`. Lane = mix position.
    pipes: Vec<[Pipe; 2]>,
    req_decs: Vec<FrameDecoder>,
    /// The requester: the session machine the reactor hosts, its lanes
    /// the mix positions.
    req: RequesterMachine,

    events: u64,
    segments_delivered: u64,
    bytes_on_wire: u64,
    replans: u64,
    deaths: u64,
    grants: u64,
    denials: u64,
    reminders: u64,
}

impl SimWorld {
    /// Builds the world for one schedule: synthesizes the media file,
    /// constructs the requester and supplier machines, queues the
    /// `StreamRequest` burst plus every scheduled death.
    pub fn new(schedule: Schedule) -> SimWorld {
        let session = schedule.seed;
        let info = MediaInfo::new(
            format!("simnet-{:016x}", schedule.seed),
            schedule.segment_count,
            SegmentDuration::from_millis(schedule.dt_ms),
            schedule.segment_bytes,
        );
        let file = MediaFile::synthesize(info.clone());

        let classes: Vec<PeerClass> = schedule
            .mix
            .iter()
            .map(|&k| PeerClass::new(k).expect("mix classes are valid"))
            .collect();
        let req_class = PeerClass::new(schedule.req_class).expect("req_class is valid");

        let suppliers: Vec<SimSupplier> = classes
            .iter()
            .zip(&schedule.replies)
            .map(|(&class, &reply)| SimSupplier {
                conn: SupplierConn::new(class, 0),
                adm: Scripted {
                    reply,
                    segment_count: schedule.segment_count,
                },
                dec: FrameDecoder::new(),
                alive: true,
            })
            .collect();
        let pipes: Vec<[Pipe; 2]> = schedule
            .links
            .iter()
            .map(|&spec| {
                [spec, spec].map(|spec| Pipe {
                    link: Link::new(spec),
                    bytes: BytesMut::new(),
                })
            })
            .collect();
        let lane_count = classes.len();
        let segment_capacity = schedule.segment_count as usize * 2 + 64;
        let rng_seed = schedule.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ schedule.scenario.salt();
        let scheduled_deaths = schedule.deaths.clone();

        let mut req =
            RequesterMachine::new(session, req_class, info, SharedPolicy::default(), &classes);
        req.start();

        let mut world = SimWorld {
            schedule,
            now: 0,
            queue: Queue::new(lane_count),
            rng: SmallRng::seed_from_u64(rng_seed),
            trace: TraceHasher::new(),
            // Sized to retain the whole run (one arrival per segment
            // plus the admission/replan bookends) — the report carries
            // the full timeline, not a wrapped tail.
            recorder: Recorder::standalone(segment_capacity),
            session,
            file,
            suppliers,
            pipes,
            req_decs: (0..lane_count).map(|_| FrameDecoder::new()).collect(),
            req,
            events: 0,
            segments_delivered: 0,
            bytes_on_wire: 0,
            replans: 0,
            deaths: 0,
            grants: 0,
            denials: 0,
            reminders: 0,
        };

        // The opening StreamRequest burst travels the wire like
        // everything else, framed and fragmented per lane.
        world.pump();
        for &(mix_idx, at_ms) in &scheduled_deaths {
            world
                .queue
                .push(at_ms * 1_000, Event::Die { lane: mix_idx });
        }
        world
    }

    /// Runs the world to quiescence and reports.
    pub fn run(mut self) -> SimReport {
        while !self.settled() {
            let Some(s) = self.queue.pop() else { break };
            debug_assert!(s.at >= self.now, "virtual time must be monotone");
            self.now = s.at;
            self.events += 1;
            self.dispatch(s.ev);
        }
        let received = self
            .req
            .driver()
            .map_or(0, |driver| driver.machine().received());
        let expected = self.file.info().segment_count();
        let outcome = match self.req.into_outcome() {
            Some(Ok(driver)) => {
                let (sm, _classes) = driver.into_parts();
                let byte_exact = sm
                    .into_segments()
                    .into_iter()
                    .enumerate()
                    .all(|(i, entry)| {
                        let expect = self.file.segment(i as u64).into_payload();
                        matches!(entry, Some((payload, _at)) if payload[..] == expect[..])
                    });
                SimOutcome::Completed { byte_exact }
            }
            Some(Err(e)) => match e {
                // The queue drained after the releases and reminders
                // landed — the structured end of a rejected round.
                NodeError::Rejected { reminders_left } => SimOutcome::Rejected {
                    reminders: reminders_left as u64,
                },
                NodeError::SuppliersLost { missing } => SimOutcome::SuppliersLost { missing },
                NodeError::IncompleteStream { received, expected } => {
                    SimOutcome::Incomplete { received, expected }
                }
                other => SimOutcome::ProtocolError(other.to_string()),
            },
            // The queue drained with the session unsettled — a harness
            // bug by construction (every lane replies or dies).
            None => SimOutcome::Stalled { received, expected },
        };
        self.trace.record(T_OUTCOME, outcome.tag(), &[]);
        SimReport {
            seed: self.schedule.seed,
            scenario: self.schedule.scenario,
            outcome,
            trace_hash: self.trace.digest(),
            events: self.events,
            segments_delivered: self.segments_delivered,
            bytes_on_wire: self.bytes_on_wire,
            replans: self.replans,
            deaths: self.deaths,
            grants: self.grants,
            denials: self.denials,
            reminders: self.reminders,
            recorder: self.recorder.events(),
        }
    }

    /// Whether the run is over: the session completed or failed. A
    /// rejected round keeps running until its releases and reminders
    /// have reached the suppliers.
    fn settled(&self) -> bool {
        !matches!(
            self.req.outcome(),
            None | Some(Err(NodeError::Rejected { .. }))
        )
    }

    /// Records `ev` into the flight recorder (virtual-clock stamped, in
    /// ms like the live node's) and folds it into the trace digest: the
    /// recorder stream is part of the determinism contract, so a
    /// divergence in *what the session observed* breaks the seed sweep
    /// even when the wire bytes agree.
    fn event(&mut self, ev: SessionEvent) {
        let (a, b) = ev.fields();
        self.recorder.record_at(self.now / 1_000, ev.code(), a, b);
        self.trace
            .record(T_EVENT, u64::from(ev.code()), &[self.now, a, b]);
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::SupplierTick { lane } => self.tick(lane),
            Event::Deliver {
                lane,
                dir: Dir::ToRequester,
                len,
            } => self.deliver_to_requester(lane, len),
            Event::Deliver {
                lane,
                dir: Dir::ToSupplier,
                len,
            } => self.deliver_to_supplier(lane, len),
            Event::Closed { lane } => self.closed(lane),
            Event::Die { lane } => self.die(lane),
        }
    }

    /// Puts `msg`'s frame on the wire.
    fn send(&mut self, lane: usize, dir: Dir, msg: &Message) {
        let len = self.pipes[lane][dir as usize].encode(msg);
        self.fragment(lane, dir, len);
    }

    /// Fragments the last `len` bytes encoded into the pipe at arbitrary
    /// boundaries and schedules each chunk's FIFO delivery over the
    /// lane's link.
    fn fragment(&mut self, lane: usize, dir: Dir, len: usize) {
        self.bytes_on_wire += len as u64;
        let max_chunk = self.schedule.max_chunk.max(1);
        let mut left = len;
        while left > 0 {
            let cap = left.min(max_chunk);
            let take = if cap == 1 {
                1
            } else {
                self.rng.gen_range(1..=cap)
            };
            left -= take;
            let at = self.pipes[lane][dir as usize]
                .link
                .send(self.now, take, &mut self.rng);
            self.queue.push_chunk(lane, dir, at, take);
        }
    }

    /// Executes the requester machine's queued actions: frames go on
    /// the wire, closes and timeline entries go into the trace.
    fn pump(&mut self) {
        while let Some(action) = self.req.pop_action() {
            match action {
                RequesterAction::Send { lane, msg } => {
                    let code = adm_code(&msg);
                    if code != 0 {
                        self.trace.record(T_ADM_TX, narrow(lane, code), &[self.now]);
                    }
                    self.send(lane, Dir::ToSupplier, &msg);
                }
                RequesterAction::Close { lane } => {
                    self.trace.record(T_CLOSED, narrow(lane, 0), &[self.now]);
                }
                RequesterAction::Record(ev) => {
                    if let SessionEvent::Replanned { lane, segments } = ev {
                        self.replans += 1;
                        self.trace.record(
                            T_REPLAN,
                            narrow(lane as usize, 0),
                            &[self.now, segments],
                        );
                    }
                    self.event(ev);
                }
            }
        }
    }

    /// Supplier pacing deadline: transmit the segment the machine says is
    /// due (one per tick — virtual time never runs late), or
    /// `EndSession` when its schedule (base + appends) is exhausted.
    fn tick(&mut self, lane: usize) {
        let s = &mut self.suppliers[lane];
        if !s.alive {
            return;
        }
        let session = self.session;
        match s.conn.on_timer(self.now, 0, &mut s.adm) {
            Pace::Send(index) => {
                let next = s.conn.deadline_us().expect("still streaming");
                self.trace
                    .record(T_SEND, narrow(lane, 0), &[self.now, index]);
                let payload = self.file.segment(index).into_payload();
                let msg = Message::SegmentData {
                    session,
                    index,
                    payload,
                };
                self.send(lane, Dir::ToRequester, &msg);
                self.queue
                    .push(next.max(self.now), Event::SupplierTick { lane });
            }
            Pace::End => self.send(lane, Dir::ToRequester, &Message::EndSession { session }),
            Pace::Wait(_) | Pace::Yield | Pace::Close => {}
        }
    }

    /// Bytes reach the requester: feed the lane's real decoder and every
    /// frame it yields to the requester machine.
    fn deliver_to_requester(&mut self, lane: usize, len: usize) {
        let pipe = &mut self.pipes[lane][Dir::ToRequester as usize].bytes;
        let open = self.req.is_open(lane);
        if open {
            self.trace.record(
                T_CHUNK,
                narrow(lane, Dir::ToRequester as u64),
                &[self.now, len as u64],
            );
            self.req_decs[lane].feed(&pipe[..len]);
        }
        pipe.advance(len);
        while !self.settled() && self.req.is_open(lane) {
            match self.req_decs[lane].poll() {
                Ok(Some(msg)) => {
                    self.trace_rx(lane, &msg);
                    self.req.on_message(lane, msg, self.now);
                    self.pump();
                }
                Ok(None) => return,
                Err(_) => {
                    // A corrupt stream: the reactor treats it as a
                    // structured per-lane failure, so does the simulation.
                    self.req.on_lane_closed(lane);
                    self.pump();
                    return;
                }
            }
        }
    }

    /// Folds a frame reaching the requester into the trace: an answer
    /// to the round, or a segment or end of a planned share.
    fn trace_rx(&mut self, lane: usize, msg: &Message) {
        if !self.req.streams_on(lane) {
            self.trace
                .record(T_ADM_RX, narrow(lane, adm_code(msg)), &[self.now]);
            return;
        }
        match msg {
            Message::SegmentData {
                session,
                index,
                payload,
            } if *session == self.session => {
                self.segments_delivered += 1;
                self.trace.record(
                    T_SEGMENT,
                    narrow(lane, 0),
                    &[self.now, *index, payload.len() as u64],
                );
            }
            Message::EndSession { session } if *session == self.session => {
                self.trace.record(T_END, narrow(lane, 0), &[self.now]);
            }
            _ => {}
        }
    }

    /// Admission, setup and replan bytes reach a supplier: decode with
    /// the real decoder and let the real machine answer. The handshake
    /// deadlines it asks for are not scheduled — no simulated peer goes
    /// quiet for [`GRANT_TTL_MS`](p2ps_proto::GRANT_TTL_MS), it answers
    /// or dies — so only a started stream's first §3 deadline becomes an
    /// event.
    fn deliver_to_supplier(&mut self, lane: usize, len: usize) {
        let pipe = &mut self.pipes[lane][Dir::ToSupplier as usize].bytes;
        let alive = self.suppliers[lane].alive;
        if alive {
            self.trace.record(
                T_CHUNK,
                narrow(lane, Dir::ToSupplier as u64),
                &[self.now, len as u64],
            );
            self.suppliers[lane].dec.feed(&pipe[..len]);
        }
        pipe.advance(len);
        if !alive {
            return;
        }
        while let Ok(Some(msg)) = self.suppliers[lane].dec.poll() {
            match &msg {
                Message::StartSession { plan, .. } => self.trace.record(
                    T_START,
                    narrow(lane, 0),
                    &[self.now, plan.segments.len() as u64],
                ),
                Message::Reminder { .. } => {
                    self.reminders += 1;
                    self.trace
                        .record(T_ADM_RX, narrow(lane, adm_code(&msg)), &[self.now]);
                }
                _ => {}
            }
            let s = &mut self.suppliers[lane];
            let step = s.conn.on_message(msg, self.now, &mut s.adm);
            let first_tick = step.timer_us.filter(|_| s.conn.is_streaming());
            if let Some(reply) = step.reply {
                match reply {
                    Message::Grant { .. } => self.grants += 1,
                    _ => self.denials += 1,
                }
                self.trace
                    .record(T_ADM_TX, narrow(lane, adm_code(&reply)), &[self.now]);
                self.send(lane, Dir::ToRequester, &reply);
            }
            if let Some(at) = first_tick {
                self.queue.push(at, Event::SupplierTick { lane });
            }
        }
    }

    /// A scheduled death: the dying supplier's next frame is cut at an
    /// arbitrary byte boundary (the truncated prefix still arrives,
    /// stressing the decoder), then the close lands on the same FIFO.
    fn die(&mut self, lane: usize) {
        if !self.suppliers[lane].alive {
            return;
        }
        self.suppliers[lane].alive = false;
        self.deaths += 1;
        self.trace.record(T_DIE, narrow(lane, 0), &[self.now]);
        let s = &mut self.suppliers[lane];
        let partial = s.conn.peek_unsent();
        s.conn.close(&mut s.adm);
        if let Some(seg) = partial {
            let pipe = &mut self.pipes[lane][Dir::ToRequester as usize];
            let len = pipe.encode(&Message::SegmentData {
                session: self.session,
                index: seg,
                payload: self.file.segment(seg).into_payload(),
            });
            // Only the first `cut` bytes leave before the connection dies.
            let cut = self.rng.gen_range(0..len);
            pipe.bytes.resize(pipe.bytes.len() - (len - cut), 0);
            if cut > 0 {
                self.fragment(lane, Dir::ToRequester, cut);
            }
        }
        let at = self.pipes[lane][Dir::ToRequester as usize]
            .link
            .send(self.now, 0, &mut self.rng);
        // The requester sees the close 1 ms after the link's last byte.
        self.queue.push(at + 1_000, Event::Closed { lane });
    }

    /// The requester observes a lane's connection close — a mid-round
    /// death settles the admission lane, a mid-stream one fails the
    /// session lane.
    fn closed(&mut self, lane: usize) {
        if !self.req.is_open(lane) {
            return;
        }
        self.trace.record(T_CLOSED, narrow(lane, 0), &[self.now]);
        self.req.on_lane_closed(lane);
        self.pump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops both queues once and demands the same event.
    fn pop_both(queue: &mut Queue, oracle: &mut BinaryHeap<Scheduled>) -> Option<u64> {
        let got = queue.pop().map(|s| (s.at, s.seq, s.ev));
        let want = oracle.pop().map(|s| (s.at, s.seq, s.ev));
        assert_eq!(got, want, "per-link FIFOs and one heap disagree");
        got.map(|(at, ..)| at)
    }

    /// The per-link FIFOs merged through the heap pop exactly what one
    /// heap over every event, ordered by `(at, seq)`, pops: random
    /// monotone arrivals per link, ties frequent, interleaved with
    /// ticks, closes, deaths and pops.
    #[test]
    fn per_link_fifos_pop_in_one_heap_order() {
        const LANES: usize = 3;
        for seed in 0..256u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut queue = Queue::new(LANES);
            let mut oracle = BinaryHeap::new();
            let (mut seq, mut now) = (0u64, 0u64);
            let mut link_at = [[0u64; 2]; LANES];
            for _ in 0..512 {
                if rng.gen_bool(0.4) {
                    now = pop_both(&mut queue, &mut oracle).unwrap_or(now);
                    continue;
                }
                let lane = rng.gen_range(0..LANES);
                // Offsets of 0–2 ms from now: most instants are shared.
                let mut at = now + rng.gen_range(0..3u64);
                seq += 1;
                let ev = match rng.gen_range(0..5) {
                    0 => Event::SupplierTick { lane },
                    1 => Event::Closed { lane },
                    2 => Event::Die { lane },
                    pick => {
                        let dir = [Dir::ToRequester, Dir::ToSupplier][pick - 3];
                        let clamp = &mut link_at[lane][dir as usize];
                        at = at.max(*clamp);
                        *clamp = at;
                        let len = rng.gen_range(1..=64);
                        queue.push_chunk(lane, dir, at, len);
                        oracle.push(Scheduled {
                            at,
                            seq,
                            ev: Event::Deliver { lane, dir, len },
                        });
                        continue;
                    }
                };
                queue.push(at, ev);
                oracle.push(Scheduled { at, seq, ev });
            }
            while pop_both(&mut queue, &mut oracle).is_some() {}
            assert!(queue.in_flight.iter().flatten().all(VecDeque::is_empty));
        }
    }
}
