//! Probes of the layers that never touch a socket: proto, policy, core,
//! media, monitor.

use std::hint::black_box;

use bytes::{Bytes, BytesMut};
use p2ps_core::admission::{AdmissionVector, Protocol, SupplierConfig, SupplierState};
use p2ps_core::assignment::{otsp2p, SegmentDuration};
use p2ps_core::PeerClass;
use p2ps_media::{MediaFile, MediaInfo, PlaybackBuffer, Segment, SegmentStore};
use p2ps_monitor::{Monitor, Recorder};
use p2ps_policy::{
    Otsp2p, RandomBaseline, RarestFirst, SelectionPolicy, SequentialWindow, SessionContext,
};
use p2ps_proto::{
    decode_frame, encode_frame, AdmissionDriver, FrameDecoder, FrameEncoder, Message,
    RequesterSession, SessionPlan, SupplierSchedule,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{ns_per_call, thread_allocs};

type Out = Vec<(&'static str, f64)>;

/// `swarm_bulk`'s segment.
const BULK_BYTES: usize = 64 * 1024;
/// `swarm_small`'s segment.
const SMALL_BYTES: usize = 256;
/// Segments per probed session (`swarm_small`'s file length).
const SEGMENTS: u64 = 512;

fn class(k: u8) -> PeerClass {
    PeerClass::new(k).expect("probe classes are valid")
}

/// The supplier mix of the paper's Fig. 1: classes {2, 3, 4, 4}.
fn fig1_mix() -> Vec<PeerClass> {
    [2u8, 3, 4, 4].map(class).to_vec()
}

fn segment_message(bytes: usize) -> Message {
    Message::SegmentData {
        session: 7,
        index: 42,
        payload: Bytes::from(vec![0xabu8; bytes]),
    }
}

fn wire_of(msg: &Message) -> Vec<u8> {
    let mut enc = FrameEncoder::new();
    enc.push(msg);
    let mut wire = Vec::new();
    while let Some(chunk) = enc.pop_chunk() {
        wire.extend_from_slice(&chunk);
    }
    wire
}

/// One frame through the decoder the way the reactor delivers it: two
/// fragments, so the accumulator is exercised and never donated.
fn decode_one(dec: &mut FrameDecoder, wire: &[u8]) {
    dec.feed(&wire[..10]);
    dec.feed(&wire[10..]);
    let msg = dec.poll().expect("valid frame").expect("one whole frame");
    black_box(msg);
}

fn encode_one(enc: &mut FrameEncoder, msg: &Message) {
    enc.push(msg);
    while let Some(chunk) = enc.pop_chunk() {
        black_box(chunk);
    }
}

/// Frame codec, admission round and the two session machines.
pub fn proto(out: &mut Out) {
    for (bytes, decode, encode) in [
        (BULK_BYTES, "proto.decode_ns_bulk", "proto.encode_ns_bulk"),
        (
            SMALL_BYTES,
            "proto.decode_ns_small",
            "proto.encode_ns_small",
        ),
    ] {
        let msg = segment_message(bytes);
        let wire = wire_of(&msg);
        let mut dec = FrameDecoder::new();
        out.push((decode, ns_per_call(|| decode_one(&mut dec, &wire))));
        let mut enc = FrameEncoder::new();
        out.push((encode, ns_per_call(|| encode_one(&mut enc, &msg))));
    }

    // Exact: the warmed steady path allocates nothing per frame.
    let wire = wire_of(&segment_message(BULK_BYTES));
    let mut dec = FrameDecoder::new();
    for _ in 0..32 {
        decode_one(&mut dec, &wire);
    }
    const FRAMES: u64 = 256;
    let before = thread_allocs();
    for _ in 0..FRAMES {
        decode_one(&mut dec, &wire);
    }
    out.push((
        "proto.decode_allocs_per_frame",
        (thread_allocs() - before) as f64 / FRAMES as f64,
    ));

    let control = Message::StartSession {
        session: 99,
        plan: SessionPlan {
            item: "video".into(),
            segments: vec![0, 1, 3, 7],
            period: 8,
            total_segments: 3_600,
            dt_ms: 1_000,
        },
    };
    out.push((
        "proto.control_ns",
        ns_per_call(|| {
            let mut buf = BytesMut::with_capacity(128);
            encode_frame(black_box(&control), &mut buf);
            black_box(decode_frame(&mut buf).expect("valid").expect("whole"));
        }),
    ));

    // One §4.2 round over eight lanes with scripted replies and no
    // sockets: the greedy fold has to walk past busy lanes to reach R0.
    let lanes: Vec<PeerClass> = [2u8, 2, 3, 3, 4, 4, 4, 4].map(class).to_vec();
    out.push((
        "proto.admission_round_ns",
        ns_per_call(|| {
            let mut drv = AdmissionDriver::new(42, class(2), black_box(&lanes));
            drv.start();
            while let Some(action) = drv.pop_action() {
                black_box(action);
            }
            for (lane, k) in lanes.iter().enumerate() {
                let reply = if lane % 3 == 1 {
                    Message::Deny {
                        session: 42,
                        busy: true,
                        favored: true,
                    }
                } else {
                    Message::Grant {
                        session: 42,
                        class: *k,
                    }
                };
                drv.on_message(lane, &reply);
            }
            while let Some(action) = drv.pop_action() {
                black_box(action);
            }
            black_box(drv.verdict());
        }),
    ));

    let payload = Bytes::from(vec![0u8; SMALL_BYTES]);
    out.push((
        "proto.requester_ns_per_segment",
        ns_per_call(|| {
            let mut sm = RequesterSession::new(SEGMENTS);
            sm.add_supplier(0..SEGMENTS);
            for i in 0..SEGMENTS {
                sm.on_segment(0, i, payload.clone(), i);
            }
            black_box(sm.into_segments());
        }) / SEGMENTS as f64,
    ));

    let plan = SessionPlan {
        item: "video".into(),
        segments: vec![0],
        period: 1,
        total_segments: SEGMENTS,
        dt_ms: 1,
    };
    out.push((
        "proto.supplier_ns_per_segment",
        ns_per_call(|| {
            let mut sched = SupplierSchedule::new(plan.clone(), 1).expect("tiling plan");
            while let Some(seg) = sched.next_unsent(SEGMENTS) {
                black_box((sched.next_deadline_ms(0), seg));
                sched.consume();
            }
        }) / SEGMENTS as f64,
    ));
}

/// `plan` of every built-in policy and `Otsp2p`'s `replan`.
pub fn policy(out: &mut Out) {
    let ctx = SessionContext::full(&fig1_mix(), 256).with_seed(7);
    let policies: [(&'static str, &dyn SelectionPolicy); 4] = [
        ("policy.plan_ns_otsp2p", &Otsp2p),
        ("policy.plan_ns_sequential", &SequentialWindow::default()),
        ("policy.plan_ns_rarest", &RarestFirst),
        ("policy.plan_ns_random", &RandomBaseline),
    ];
    for (name, policy) in policies {
        out.push((
            name,
            ns_per_call(|| {
                black_box(
                    policy
                        .plan(black_box(&ctx))
                        .expect("rate-matched mix plans"),
                );
            }),
        ));
    }
    // The class-4 supplier left mid-stream: its quarter of the second
    // half is spread over the three survivors.
    let survivors = SessionContext::full(&fig1_mix()[..3], 256)
        .with_playhead(128)
        .with_seed(7);
    let missing: Vec<u64> = (128..256).step_by(4).collect();
    out.push((
        "policy.replan_ns_otsp2p",
        ns_per_call(|| {
            black_box(
                Otsp2p
                    .replan(black_box(&survivors), black_box(&missing))
                    .expect("survivors can absorb the share"),
            );
        }),
    ));
}

/// The paper's algorithms themselves.
pub fn core(out: &mut Out) {
    let mix = fig1_mix();
    out.push((
        "core.otsp2p_ns",
        ns_per_call(|| {
            black_box(otsp2p(black_box(&mix)).expect("rate-matched mix"));
        }),
    ));
    let cfg = SupplierConfig::new(4, 1_200, Protocol::Dac).expect("four classes");
    let mut supplier = SupplierState::new(class(2), cfg, 0).expect("valid supplier");
    let mut rng = SmallRng::seed_from_u64(7);
    let mut now = 0u64;
    out.push((
        "core.supplier_decide_ns",
        ns_per_call(|| {
            now += 1;
            black_box(supplier.handle_request(now, class(3), &mut rng));
        }),
    ));
    let vector = AdmissionVector::initial(class(1), 4).expect("four classes");
    out.push((
        "core.vector_relax_ns",
        ns_per_call(|| {
            let mut v = vector.clone();
            v.relax();
            v.tighten(class(2));
            black_box(v);
        }),
    ));
}

/// File synthesis, reassembly and the views in between.
pub fn media(out: &mut Out) {
    let dt = SegmentDuration::from_millis(1);
    let bulk = MediaInfo::new("probe-bulk", 64, dt, BULK_BYTES as u32);
    let small = MediaInfo::new("probe-small", SEGMENTS, dt, SMALL_BYTES as u32);

    out.push((
        "media.synthesize_us_bulk",
        ns_per_call(|| {
            black_box(MediaFile::synthesize(bulk.clone()));
        }) / 1e3,
    ));
    for (info, name) in [
        (&bulk, "media.from_store_us_bulk"),
        (&small, "media.from_store_us_small"),
    ] {
        let file = MediaFile::synthesize(info.clone());
        let mut store = SegmentStore::new(info.segment_count());
        store.extend(file.iter());
        out.push((
            name,
            ns_per_call(|| {
                black_box(MediaFile::from_store(info.clone(), &store).expect("complete store"));
            }) / 1e3,
        ));
    }

    let file = MediaFile::synthesize(small.clone());
    let segments: Vec<Segment> = file.iter().collect();
    out.push((
        "media.store_insert_ns",
        ns_per_call(|| {
            let mut store = SegmentStore::new(SEGMENTS);
            for segment in &segments {
                store.insert(segment.clone());
            }
            black_box(store);
        }) / SEGMENTS as f64,
    ));
    let mut index = 0u64;
    out.push((
        "media.segment_view_ns",
        ns_per_call(|| {
            index = (index + 1) % SEGMENTS;
            black_box(file.segment(black_box(index)));
        }),
    ));
    out.push((
        "media.playback_delay_ns_per_segment",
        ns_per_call(|| {
            let mut buffer = PlaybackBuffer::new(SEGMENTS, dt);
            for i in 0..SEGMENTS {
                buffer.record_arrival(i, i + 3);
            }
            black_box(buffer.min_feasible_delay_ms());
        }) / SEGMENTS as f64,
    ));
}

/// Counter updates, recorder writes and a snapshot of a 64-session tree.
pub fn monitor(out: &mut Out) {
    let root = Monitor::root();
    let scope = root.child("reactor", 0).child("session", 42);
    let counter = scope.counter("bytes_total", "probe counter");
    out.push(("monitor.counter_ns", ns_per_call(|| counter.incr())));
    let disabled = Recorder::disabled();
    out.push((
        "monitor.record_disabled_ns",
        ns_per_call(|| black_box(&disabled).record(black_box(6), black_box(1), black_box(2))),
    ));
    let enabled = scope.events("events", "probe ring");
    out.push((
        "monitor.record_enabled_ns",
        ns_per_call(|| black_box(&enabled).record(black_box(6), black_box(1), black_box(2))),
    ));

    let tree = Monitor::root();
    let mut keep = Vec::new();
    for shard in 0..2usize {
        let reactor = tree.child("reactor", shard);
        keep.push(reactor.gauge("connections", "open connections"));
        for s in 0..32u64 {
            let session = reactor.child("session", shard as u64 * 32 + s);
            keep.push(session.gauge("received_segments", "received"));
            keep.push(session.gauge("owed_segments", "owed"));
            keep.push(session.gauge("last_progress_ms", "progress clock"));
        }
    }
    out.push((
        "monitor.snapshot_us",
        ns_per_call(|| {
            black_box(tree.snapshot());
        }) / 1e3,
    ));
    drop(keep);
}
