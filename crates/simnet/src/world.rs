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
//!   `StartSession`, and it reassembles into a
//!   [`RequesterSession`](p2ps_proto::RequesterSession), replans and
//!   rules on completion — fed through a per-lane [`FrameDecoder`];
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
//! is stamped in ms, as on the live node. Every input reaches the
//! requester machine with the virtual clock, as the reactor's reaches it
//! on the live node: the machine stamps the hand-off, stores arrivals in
//! µs since it — they fold into the run's start-up delay
//! ([`SimReport::startup_us`]) — and keeps its lanes' deadlines. The
//! world holds at most one wake-up per lane, the one the machine asked
//! for last, and only a wake-up at which the machine acts is an event of
//! the run, so a deadline that never expires leaves no trace.
//!
//! The transport allocates nothing per chunk, and a run allocates little
//! beyond what it keeps. Every byte the run sends lives in one wire
//! log, sized from the [`Schedule`] to hold the whole run: frames are
//! encoded in place at its end, a chunk in flight is a range of it, and
//! its delivery feeds the decoder those bytes. A link never reorders, so
//! each one keeps its chunks in a FIFO — a list threaded through one
//! slab of chunk slots — and only the FIFO's head sits in the `Queue`'s
//! heap; merging the heads by `(at, seq)` pops the same order one heap
//! over every chunk would. A heap entry is 16 bytes: `(at, seq)` packed
//! into one `u64` key and an 8-byte event.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bytes::BytesMut;
use p2ps_core::admission::RequestDecision;
use p2ps_core::assignment::SegmentDuration;
use p2ps_core::PeerClass;
use p2ps_media::{MediaFile, MediaInfo};
use p2ps_monitor::Recorder;
use p2ps_node::{NodeError, RequesterAction, RequesterMachine, WatchdogConfig};
use p2ps_policy::SharedPolicy;
use p2ps_proto::{
    encode_frame, FrameDecoder, Message, Pace, SessionEvent, SupplierAdmission, SupplierConn,
};

use crate::link::Link;
use crate::schedule::{AdmissionReply, LinkSpec};
use crate::{Schedule, SimOutcome, SimReport, TraceHasher};

/// Which way bytes travel on a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Supplier → requester (admission replies and the stream).
    ToRequester = 0,
    /// Requester → supplier (admission requests, session setup, replans).
    ToSupplier = 1,
}

/// One thing that happens at a virtual instant. Lanes are `u16`, so an
/// event takes 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Supplier `lane`'s next §3 pacing deadline.
    SupplierTick { lane: u16 },
    /// The oldest chunk in flight on `lane`'s `dir` link reaches that end
    /// of the connection.
    Deliver { lane: u16, dir: Dir },
    /// The requester observes `lane`'s connection close.
    Closed { lane: u16 },
    /// Supplier `lane` dies now.
    Die { lane: u16 },
    /// The requester machine asked to be woken for `lane` now.
    Wake { lane: u16 },
}

/// Bits of a queue key below the arrival time, holding the sequence
/// number. The time keeps the 40 above: 2^40 µs is over twelve days.
const SEQ_BITS: u32 = 24;

/// `(at, seq)` packed into one key that orders the same way: `at` in
/// the high bits, `seq` in the low [`SEQ_BITS`].
///
/// # Panics
///
/// If either half overflows its bits, which would reorder the queue.
fn key(at: u64, seq: u64) -> u64 {
    assert!(
        at >> (64 - SEQ_BITS) == 0,
        "virtual time {at} µs overflows the queue key"
    );
    assert!(
        seq >> SEQ_BITS == 0,
        "event {seq} overflows the queue key's sequence number"
    );
    (at << SEQ_BITS) | seq
}

/// The arrival time a [`key`] holds.
fn key_at(key: u64) -> u64 {
    key >> SEQ_BITS
}

/// Queue entry: min-ordered by its packed `(at, seq)` key, so equal-time
/// events replay in scheduling order.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    key: u64,
    ev: Event,
}

const _: () = assert!(std::mem::size_of::<Scheduled>() == 16);

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        other.key.cmp(&self.key)
    }
}

/// The end of a chunk list.
const NIL: u32 = u32::MAX;

/// A chunk in flight: its queue key, where its bytes sit in the wire
/// log, and the next chunk on its link (or [`NIL`]); in a free slot,
/// `next` is the next free slot.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    key: u64,
    start: u32,
    len: u32,
    next: u32,
}

/// A link's chunks in flight, oldest first: the ends of a list threaded
/// through the [`Queue`]'s chunk slots, both [`NIL`] when the link is
/// idle. The oldest one, if any, is also in the heap.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
}

impl Default for Fifo {
    fn default() -> Self {
        Fifo {
            head: NIL,
            tail: NIL,
        }
    }
}

/// The event queue: pops in `(at, seq)` order, every push taking the
/// next sequence number. Chunks wait in their link's [`Fifo`], whose
/// arrivals are monotone and whose sequence numbers rise, so a FIFO's
/// head is its least entry and only the heads need to sit in the heap:
/// it holds O(links + ticks) entries, not every chunk in flight.
#[derive(Debug)]
struct Queue {
    heap: BinaryHeap<Scheduled>,
    /// Every chunk in flight, each link's linked oldest first; a
    /// delivered chunk's slot goes on the free list at `free`.
    chunks: Vec<Chunk>,
    free: u32,
    seq: u64,
}

impl Queue {
    fn with_capacity(events: usize, chunks: usize) -> Queue {
        Queue {
            heap: BinaryHeap::with_capacity(events),
            chunks: Vec::with_capacity(chunks),
            free: NIL,
            seq: 0,
        }
    }

    /// The key of the next event scheduled at `at`.
    fn next_key(&mut self, at: u64) -> u64 {
        self.seq += 1;
        key(at, self.seq)
    }

    /// Schedules `ev` at `at`; chunks go through [`push_chunk`](Self::push_chunk).
    fn push(&mut self, at: u64, ev: Event) {
        debug_assert!(!matches!(ev, Event::Deliver { .. }));
        let key = self.next_key(at);
        self.heap.push(Scheduled { key, ev });
    }

    /// Schedules the delivery of the wire log's `bytes` on `lane`'s `dir`
    /// link, whose chunks are `fifo`, at `at` — no earlier than the
    /// link's previous chunk.
    fn push_chunk(&mut self, fifo: &mut Fifo, lane: u16, dir: Dir, at: u64, bytes: Range<usize>) {
        let key = self.next_key(at);
        let chunk = Chunk {
            key,
            start: u32::try_from(bytes.start).expect("the wire log stays under 4 GiB"),
            len: u32::try_from(bytes.len()).expect("the wire log stays under 4 GiB"),
            next: NIL,
        };
        let slot = if self.free == NIL {
            self.chunks.push(chunk);
            u32::try_from(self.chunks.len() - 1).expect("fewer than 2^32 chunks in flight")
        } else {
            let slot = self.free;
            self.free = self.chunks[slot as usize].next;
            self.chunks[slot as usize] = chunk;
            slot
        };
        if fifo.tail == NIL {
            fifo.head = slot;
            self.heap.push(Scheduled {
                key,
                ev: Event::Deliver { lane, dir },
            });
        } else {
            let prev = &mut self.chunks[fifo.tail as usize];
            debug_assert!(key_at(prev.key) <= at, "links are FIFO");
            prev.next = slot;
        }
        fifo.tail = slot;
    }

    /// The earliest event and its instant. A delivery also yields the
    /// wire log's bytes it carries (empty for any other event) and hands
    /// its link's next chunk to the heap, in the popped entry's place;
    /// `fifo` names the link's chunks.
    fn pop<'a>(
        &mut self,
        fifo: impl FnOnce(u16, Dir) -> &'a mut Fifo,
    ) -> Option<(u64, Event, Range<usize>)> {
        let mut top = self.heap.peek_mut()?;
        let Scheduled { key, ev } = *top;
        let Event::Deliver { lane, dir } = ev else {
            PeekMut::pop(top);
            return Some((key_at(key), ev, 0..0));
        };
        let fifo = fifo(lane, dir);
        let slot = fifo.head;
        let chunk = self.chunks[slot as usize];
        debug_assert_eq!(chunk.key, key, "only a link's oldest chunk is in the heap");
        fifo.head = chunk.next;
        if chunk.next == NIL {
            fifo.tail = NIL;
            PeekMut::pop(top);
        } else {
            // One sift down instead of a pop and a push.
            top.key = self.chunks[chunk.next as usize].key;
        }
        self.chunks[slot as usize].next = self.free;
        self.free = slot;
        let start = chunk.start as usize;
        Some((key_at(key), ev, start..start + chunk.len as usize))
    }
}

/// One direction of one lane's connection: the [`Link`] that times its
/// chunks and the chunks in flight on it.
#[derive(Debug)]
struct Pipe {
    link: Link,
    fifo: Fifo,
}

impl Pipe {
    fn new(spec: LinkSpec) -> Pipe {
        Pipe {
            link: Link::new(spec),
            fifo: Fifo::default(),
        }
    }
}

/// One mix position: the supplier at its far end, both directions of
/// its connection, and the requester's decoder for what arrives on it.
#[derive(Debug)]
struct Lane {
    supplier: SimSupplier,
    /// `[to_requester, to_supplier]`.
    pipes: [Pipe; 2],
    req_dec: FrameDecoder,
    /// The requester machine's wake-up for the lane, the last one it
    /// asked for; an earlier-queued one is stale.
    wake_us: Option<u64>,
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
    /// On `Freeze`, when the supplier stops pacing.
    freeze_us: Option<u64>,
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

/// Wire bytes of a `SegmentData` frame beyond its payload: prefix, tag,
/// session, index and payload length.
const SEGMENT_FRAME_OVERHEAD: usize = 4 + 1 + 8 + 8 + 4;

/// Wire bytes a lane's admission frames and its `EndSession` can take.
const LANE_CONTROL_BYTES: usize = 128;

/// Wire bytes of a `StartSession` frame beyond its 4-byte segment
/// entries (its item name is 23 bytes).
const PLAN_FRAME_BYTES: usize = 64;

/// What a run of `schedule` can put on the wire, to size its log: each
/// segment's frame once and the frame each death cuts, every lane's
/// admission and setup frames, and the plan frames — one per lane, then
/// one per survivor a death's share is replanned over, their entries
/// covering the file once per plan round.
fn wire_bound(schedule: &Schedule) -> usize {
    let segments = schedule.segment_count as usize;
    let lanes = schedule.mix.len();
    let rounds = 1 + schedule.deaths.len();
    (segments + schedule.deaths.len()) * (schedule.segment_bytes as usize + SEGMENT_FRAME_OVERHEAD)
        + lanes * LANE_CONTROL_BYTES
        + rounds * (lanes * PLAN_FRAME_BYTES + 4 * segments)
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
    /// Lane = mix position.
    lanes: Vec<Lane>,
    /// Every byte sent, in sending order; chunks in flight are ranges of
    /// it.
    wire: BytesMut,
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
    /// constructs the requester and supplier machines, sizes the wire
    /// log and the queue, queues the `StreamRequest` burst plus every
    /// scheduled death.
    pub fn new(schedule: Schedule) -> SimWorld {
        let session = schedule.seed;
        let info = MediaInfo::new(
            format!("simnet-{:016x}", schedule.seed),
            schedule.segment_count,
            SegmentDuration::from_millis(schedule.dt_ms),
            schedule.segment_bytes,
        );

        let classes: Vec<PeerClass> = schedule
            .mix
            .iter()
            .map(|&k| PeerClass::new(k).expect("mix classes are valid"))
            .collect();
        assert!(
            u16::try_from(classes.len()).is_ok(),
            "a lane index must fit an event"
        );
        let req_class = PeerClass::new(schedule.req_class).expect("req_class is valid");

        let lanes: Vec<Lane> = classes
            .iter()
            .zip(&schedule.replies)
            .zip(&schedule.links)
            .enumerate()
            .map(|(lane, ((&class, &reply), &spec))| Lane {
                supplier: SimSupplier {
                    conn: SupplierConn::new(class, 0),
                    adm: Scripted {
                        reply,
                        segment_count: schedule.segment_count,
                    },
                    dec: FrameDecoder::new(),
                    alive: true,
                    freeze_us: schedule
                        .freeze
                        .and_then(|(frozen, at_ms)| (frozen == lane).then_some(at_ms * 1_000)),
                },
                pipes: [Pipe::new(spec), Pipe::new(spec)],
                req_dec: FrameDecoder::new(),
                wake_us: None,
            })
            .collect();
        let wire_capacity = wire_bound(&schedule);
        // Per lane: two link heads, a pacing tick, a close, a death and
        // the requester's wake-ups for its reply and its first segment.
        let event_capacity = 7 * lanes.len();
        // The whole wire log in flight at once, in chunks of the mean
        // size.
        let chunk_capacity = wire_capacity / schedule.max_chunk.max(1).div_ceil(2);
        let segment_capacity = schedule.segment_count as usize * 2 + 64;
        let rng_seed = schedule.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ schedule.scenario.salt();

        let mut req = RequesterMachine::new(
            session,
            req_class,
            info.clone(),
            SharedPolicy::default(),
            &classes,
            WatchdogConfig::default().grace_ms,
        );
        req.start(0);

        let mut world = SimWorld {
            now: 0,
            queue: Queue::with_capacity(event_capacity, chunk_capacity),
            rng: SmallRng::seed_from_u64(rng_seed),
            trace: TraceHasher::new(),
            // Sized to retain the whole run (one arrival per segment
            // plus the admission/replan bookends) — the report carries
            // the full timeline, not a wrapped tail.
            recorder: Recorder::standalone(segment_capacity),
            session,
            file: MediaFile::synthesize(info),
            lanes,
            wire: BytesMut::with_capacity(wire_capacity),
            req,
            schedule,
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
        for &(mix_idx, at_ms) in &world.schedule.deaths {
            world.queue.push(
                at_ms * 1_000,
                Event::Die {
                    lane: mix_idx as u16,
                },
            );
        }
        world
    }

    /// Runs the world to quiescence and reports.
    pub fn run(mut self) -> SimReport {
        while !self.settled() {
            let lanes = &mut self.lanes;
            let Some((at, ev, bytes)) = self
                .queue
                .pop(|lane, dir| &mut lanes[usize::from(lane)].pipes[dir as usize].fifo)
            else {
                break;
            };
            debug_assert!(at >= self.now, "virtual time must be monotone");
            self.now = at;
            self.events += u64::from(self.dispatch(ev, bytes));
        }
        let sm = self.req.reassembly();
        let received = sm.map_or(0, |sm| sm.received());
        let expected = self.file.info().segment_count();
        let startup_us = sm.and_then(|sm| sm.startup_us(self.schedule.dt_ms * 1_000));
        let theorem_us = sm.map(|_| self.req.theoretical_delay_ms() * 1_000);
        let outcome = match self.req.into_outcome() {
            Some(Ok((sm, _classes))) => {
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
            startup_us,
            theorem_us,
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

    /// Handles `ev`; a delivery carries the wire log's `bytes`. Returns
    /// whether it was an event of the run: a wake-up at which the
    /// requester does nothing is not.
    fn dispatch(&mut self, ev: Event, bytes: Range<usize>) -> bool {
        match ev {
            Event::SupplierTick { lane } => self.tick(lane.into()),
            Event::Deliver {
                lane,
                dir: Dir::ToRequester,
            } => self.deliver_to_requester(lane.into(), bytes),
            Event::Deliver {
                lane,
                dir: Dir::ToSupplier,
            } => self.deliver_to_supplier(lane.into(), bytes),
            Event::Closed { lane } => self.closed(lane.into()),
            Event::Die { lane } => self.die(lane.into()),
            Event::Wake { lane } => return self.wake(lane.into()),
        }
        true
    }

    /// Puts `msg`'s frame on the wire.
    fn send(&mut self, lane: usize, dir: Dir, msg: &Message) {
        let start = self.wire.len();
        encode_frame(msg, &mut self.wire);
        self.fragment(lane, dir, start);
    }

    /// Fragments the wire log's bytes from `start` on at arbitrary
    /// boundaries and schedules each chunk's FIFO delivery over the
    /// lane's link. An unbounded `max_chunk` (`Ideal`) sends them whole
    /// and draws nothing, so no split moves the start-up delay.
    fn fragment(&mut self, lane: usize, dir: Dir, start: usize) {
        let end = self.wire.len();
        self.bytes_on_wire += (end - start) as u64;
        let max_chunk = self.schedule.max_chunk.max(1);
        let pipe = &mut self.lanes[lane].pipes[dir as usize];
        let mut from = start;
        while from < end {
            let cap = (end - from).min(max_chunk);
            let take = if cap == 1 || max_chunk == usize::MAX {
                cap
            } else {
                self.rng.gen_range(1..=cap)
            };
            let at = pipe.link.send(self.now, take, &mut self.rng);
            self.queue
                .push_chunk(&mut pipe.fifo, lane as u16, dir, at, from..from + take);
            from += take;
        }
    }

    /// Executes the requester machine's queued actions: frames go on
    /// the wire, closes and timeline entries go into the trace, and a
    /// wake-up replaces the lane's last one.
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
                RequesterAction::Wake { lane, at_us } => {
                    self.lanes[lane].wake_us = Some(at_us);
                    self.queue.push(at_us, Event::Wake { lane: lane as u16 });
                }
            }
        }
    }

    /// `lane`'s wake-up comes, unless a later ask replaced it: the
    /// requester machine judges the lane against its deadline. Returns
    /// whether the machine cut the lane; the cut's timeline entries and
    /// close go into the trace as any others do.
    fn wake(&mut self, lane: usize) -> bool {
        if self.lanes[lane].wake_us != Some(self.now) {
            return false;
        }
        self.lanes[lane].wake_us = None;
        let cut = self.req.on_timer(lane, self.now);
        self.pump();
        cut
    }

    /// Supplier pacing deadline: transmit the segment the machine says is
    /// due (one per tick — virtual time never runs late), or
    /// `EndSession` when its schedule (base + appends) is exhausted.
    fn tick(&mut self, lane: usize) {
        let s = &mut self.lanes[lane].supplier;
        if !s.alive || s.freeze_us.is_some_and(|at| self.now >= at) {
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
                self.queue.push(
                    next.max(self.now),
                    Event::SupplierTick { lane: lane as u16 },
                );
            }
            Pace::End => self.send(lane, Dir::ToRequester, &Message::EndSession { session }),
            Pace::Wait(_) | Pace::Yield | Pace::Close => {}
        }
    }

    /// Bytes reach the requester: feed the lane's real decoder and every
    /// frame it yields to the requester machine.
    fn deliver_to_requester(&mut self, lane: usize, bytes: Range<usize>) {
        if self.req.is_open(lane) {
            self.trace.record(
                T_CHUNK,
                narrow(lane, Dir::ToRequester as u64),
                &[self.now, bytes.len() as u64],
            );
            self.lanes[lane].req_dec.feed(&self.wire[bytes]);
        }
        while !self.settled() && self.req.is_open(lane) {
            match self.lanes[lane].req_dec.poll() {
                Ok(Some(msg)) => {
                    self.trace_rx(lane, &msg);
                    self.req.on_message(lane, msg, self.now);
                    self.pump();
                }
                Ok(None) => return,
                Err(_) => {
                    // A corrupt stream: the reactor treats it as a
                    // structured per-lane failure, so does the simulation.
                    self.req.on_lane_closed(lane, self.now);
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
    fn deliver_to_supplier(&mut self, lane: usize, bytes: Range<usize>) {
        if !self.lanes[lane].supplier.alive {
            return;
        }
        self.trace.record(
            T_CHUNK,
            narrow(lane, Dir::ToSupplier as u64),
            &[self.now, bytes.len() as u64],
        );
        self.lanes[lane].supplier.dec.feed(&self.wire[bytes]);
        while let Ok(Some(msg)) = self.lanes[lane].supplier.dec.poll() {
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
            let s = &mut self.lanes[lane].supplier;
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
                self.queue
                    .push(at, Event::SupplierTick { lane: lane as u16 });
            }
        }
    }

    /// A scheduled death: the dying supplier's next frame is cut at an
    /// arbitrary byte boundary (the truncated prefix still arrives,
    /// stressing the decoder), then the close lands on the same FIFO.
    fn die(&mut self, lane: usize) {
        let s = &mut self.lanes[lane].supplier;
        if !s.alive {
            return;
        }
        s.alive = false;
        let partial = s.conn.peek_unsent();
        s.conn.close(&mut s.adm);
        self.deaths += 1;
        self.trace.record(T_DIE, narrow(lane, 0), &[self.now]);
        if let Some(seg) = partial {
            let start = self.wire.len();
            encode_frame(
                &Message::SegmentData {
                    session: self.session,
                    index: seg,
                    payload: self.file.segment(seg).into_payload(),
                },
                &mut self.wire,
            );
            // Only the first `cut` bytes leave before the connection dies.
            let cut = self.rng.gen_range(0..self.wire.len() - start);
            self.wire.resize(start + cut, 0);
            if cut > 0 {
                self.fragment(lane, Dir::ToRequester, start);
            }
        }
        let at =
            self.lanes[lane].pipes[Dir::ToRequester as usize]
                .link
                .send(self.now, 0, &mut self.rng);
        // The requester sees the close 1 ms after the link's last byte.
        self.queue
            .push(at + 1_000, Event::Closed { lane: lane as u16 });
    }

    /// The requester observes a lane's connection close — a mid-round
    /// death settles the admission lane, a mid-stream one fails the
    /// session lane.
    fn closed(&mut self, lane: usize) {
        if !self.req.is_open(lane) {
            return;
        }
        self.trace.record(T_CLOSED, narrow(lane, 0), &[self.now]);
        self.req.on_lane_closed(lane, self.now);
        self.pump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A queued event as the oracle keeps it: `(at, seq, event, bytes)`.
    type Entry = (u64, u64, Event, Range<usize>);

    /// Pops the queue and the oracle once and demands the same event.
    fn pop_both(
        queue: &mut Queue,
        fifos: &mut [[Fifo; 2]],
        oracle: &mut Vec<Entry>,
    ) -> Option<u64> {
        let got = queue.pop(|lane, dir| &mut fifos[usize::from(lane)][dir as usize]);
        let least = (0..oracle.len()).min_by_key(|&i| (oracle[i].0, oracle[i].1));
        let want = least.map(|i| oracle.swap_remove(i));
        let want = want.map(|(at, _, ev, bytes)| (at, ev, bytes));
        assert_eq!(got, want, "per-link FIFOs and one (at, seq) order disagree");
        got.map(|(at, ..)| at)
    }

    /// The per-link FIFOs merged through the heap of packed keys pop
    /// exactly what one queue over every event, ordered by `(at, seq)`,
    /// pops: random monotone arrivals per link, ties frequent,
    /// interleaved with ticks, closes, deaths and pops, at instants
    /// from zero to the top of the key's time bits.
    #[test]
    fn per_link_fifos_pop_in_one_heap_order() {
        const LANES: u16 = 3;
        for seed in 0..256u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut queue = Queue::with_capacity(0, 0);
            let mut fifos = [[Fifo::default(); 2]; LANES as usize];
            let mut oracle = Vec::new();
            let base = if seed % 2 == 0 {
                0
            } else {
                (1 << (64 - SEQ_BITS)) - 4_096
            };
            let (mut seq, mut now, mut wire) = (0u64, base, 0usize);
            let mut link_at = [[0u64; 2]; LANES as usize];
            for _ in 0..512 {
                if rng.gen_bool(0.4) {
                    now = pop_both(&mut queue, &mut fifos, &mut oracle).unwrap_or(now);
                    continue;
                }
                let lane = rng.gen_range(0..LANES);
                // Offsets of 0–2 µs from now: most instants are shared.
                let mut at = now + rng.gen_range(0..3u64);
                seq += 1;
                let ev = match rng.gen_range(0..5) {
                    0 => Event::SupplierTick { lane },
                    1 => Event::Closed { lane },
                    2 => Event::Die { lane },
                    pick => {
                        let dir = [Dir::ToRequester, Dir::ToSupplier][pick - 3];
                        let clamp = &mut link_at[usize::from(lane)][dir as usize];
                        at = at.max(*clamp);
                        *clamp = at;
                        let bytes = wire..wire + rng.gen_range(1..=64usize);
                        wire = bytes.end;
                        let fifo = &mut fifos[usize::from(lane)][dir as usize];
                        queue.push_chunk(fifo, lane, dir, at, bytes.clone());
                        oracle.push((at, seq, Event::Deliver { lane, dir }, bytes));
                        continue;
                    }
                };
                queue.push(at, ev);
                oracle.push((at, seq, ev, 0..0));
            }
            while pop_both(&mut queue, &mut fifos, &mut oracle).is_some() {}
            assert!(fifos
                .iter()
                .flatten()
                .all(|f| f.head == NIL && f.tail == NIL));
            let mut free = 0;
            let mut slot = queue.free;
            while slot != NIL {
                free += 1;
                slot = queue.chunks[slot as usize].next;
            }
            assert_eq!(free, queue.chunks.len(), "every chunk slot is free again");
        }
    }

    #[test]
    fn the_packed_key_orders_like_at_then_seq() {
        let pairs = [(0, 1), (0, 2), (1, 1), (1, (1 << SEQ_BITS) - 1), (2, 1)];
        for w in pairs.windows(2) {
            assert!(key(w[0].0, w[0].1) < key(w[1].0, w[1].1));
        }
        let top = (1 << (64 - SEQ_BITS)) - 1;
        assert_eq!(key_at(key(top, 5)), top);
    }

    #[test]
    #[should_panic(expected = "overflows the queue key")]
    fn a_time_past_the_key_bits_panics() {
        key(1 << (64 - SEQ_BITS), 1);
    }

    #[test]
    #[should_panic(expected = "overflows the queue key")]
    fn a_sequence_number_past_the_key_bits_panics() {
        key(0, 1 << SEQ_BITS);
    }
}
