//! Pins what the receive path — and the supplier's pacing decisions on
//! the send path — cost in heap allocations, with a counting global
//! allocator:
//!
//! * once a `FrameDecoder` has warmed up, decoding a `SegmentData` frame
//!   whose payload the consumer drops performs **zero** allocations —
//!   the decoder assembles the next frame in the allocation the consumer
//!   just let go of;
//! * a consumer that retains every payload (a reassembling session)
//!   pays at most one allocation pair — storage plus shared block — per
//!   `feed`, however many small frames the burst carries and wherever
//!   the burst is cut;
//! * a streaming `SupplierConn` decides every paced segment, and the end
//!   of the session, with **zero** allocations.
//!
//! The allocator counts per thread, so the tests of this binary, which
//! the default harness runs on several threads, do not see each other.

use bytes::Bytes;
use p2ps_core::admission::RequestDecision;
use p2ps_core::PeerClass;
use p2ps_proto::{
    FrameDecoder, FrameEncoder, Message, Pace, SessionPlan, SupplierAdmission, SupplierConn,
};
use p2ps_testkit::thread_allocs;

#[global_allocator]
static A: p2ps_testkit::CountingAlloc = p2ps_testkit::CountingAlloc;

/// The wire bytes of `msgs`, back to back.
fn wire(msgs: &[Message]) -> Vec<u8> {
    let mut enc = FrameEncoder::new();
    let mut wire = Vec::new();
    for msg in msgs {
        enc.push(msg);
    }
    while let Some(chunk) = enc.pop_chunk() {
        wire.extend_from_slice(&chunk);
    }
    wire
}

#[test]
fn steady_segment_data_decode_allocates_nothing() {
    const PAYLOAD: usize = 16 * 1024;
    const WARMUP: u64 = 32;
    const MEASURED: u64 = 256;

    // Pre-encode one frame per index on the supplier side; the wire
    // bytes are reused so the measured loop exercises only the decoder.
    let wire = wire(&[Message::SegmentData {
        session: 7,
        index: 0,
        payload: Bytes::from(vec![0xabu8; PAYLOAD]),
    }]);

    let mut dec = FrameDecoder::new();
    let decode_one = |dec: &mut FrameDecoder| {
        // Two fragments, the reactor's shape: the first announces a
        // large frame, which is then assembled in the allocation the
        // previous frame's consumer dropped.
        dec.feed(&wire[..10]);
        dec.feed(&wire[10..]);
        let msg = dec.poll().unwrap().expect("one whole frame was fed");
        match msg {
            Message::SegmentData { payload, .. } => assert_eq!(payload.len(), PAYLOAD),
            other => panic!("unexpected message {other:?}"),
        }
        // The payload view drops here: its allocation is free again.
    };

    for _ in 0..WARMUP {
        decode_one(&mut dec);
    }

    let before = thread_allocs();
    for _ in 0..MEASURED {
        decode_one(&mut dec);
    }
    let delta = thread_allocs() - before;
    assert_eq!(
        delta, 0,
        "steady-path decode of {MEASURED} SegmentData frames allocated {delta} times \
         (must be zero: the dropped frame's allocation is reused)"
    );
}

#[test]
fn a_retaining_consumer_pays_one_allocation_pair_per_feed() {
    const FRAMES: u64 = 40;
    let burst: Vec<Message> = (0..FRAMES)
        .map(|index| Message::SegmentData {
            session: 7,
            index,
            payload: Bytes::from(vec![index as u8; 100]),
        })
        .collect();
    let frame_len = wire(&burst[..1]).len();
    let wire = wire(&burst);

    let mut dec = FrameDecoder::new();
    // Room for every payload of every round, so that keeping them does
    // not allocate inside the measured region.
    let mut kept: Vec<Bytes> = Vec::with_capacity((wire.len() + 2) * FRAMES as usize);
    let mut drain = |dec: &mut FrameDecoder| {
        while let Some(msg) = dec.poll().unwrap() {
            match msg {
                Message::SegmentData { payload, .. } => kept.push(payload),
                other => panic!("unexpected message {other:?}"),
            }
        }
    };
    // Warm-up: the longest fragment a small frame can leave behind sizes
    // the decoder's accumulator and its queue of ready bursts.
    dec.feed(&wire[..frame_len - 1]);
    drain(&mut dec);
    dec.feed(&wire[frame_len - 1..]);
    drain(&mut dec);

    // The burst cut in two at every byte: nothing can be recycled (every
    // payload is still held), so each feed may cost the pair for the one
    // allocation its whole frames are lifted into — and no more.
    for cut in 0..=wire.len() {
        for part in [&wire[..cut], &wire[cut..]] {
            let before = thread_allocs();
            dec.feed(part);
            let delta = thread_allocs() - before;
            assert!(
                delta <= 2,
                "cut at byte {cut}: feeding {} bytes allocated {delta} times",
                part.len()
            );
            drain(&mut dec);
        }
    }
    assert_eq!(kept.len() as u64, FRAMES * (wire.len() as u64 + 2));
}

#[test]
fn the_supplier_pace_loop_allocates_nothing() {
    const SEGMENTS: u64 = 4_096;

    struct Idle;
    impl SupplierAdmission for Idle {
        fn decide(&mut self, _: PeerClass) -> RequestDecision {
            RequestDecision::Granted
        }
        fn release(&mut self) {}
        fn begin_session(&mut self) -> u64 {
            SEGMENTS
        }
        fn end_session(&mut self) {}
        fn leave_reminder(&mut self, _: PeerClass) {}
    }

    let class = PeerClass::HIGHEST;
    let mut conn = SupplierConn::new(class, 0);
    conn.on_message(Message::StreamRequest { session: 7, class }, 0, &mut Idle);
    let plan = SessionPlan {
        item: "t".into(),
        segments: vec![0, 1],
        period: 2,
        total_segments: SEGMENTS,
        dt_ms: 1,
    };
    conn.on_message(Message::StartSession { session: 7, plan }, 0, &mut Idle);
    assert!(conn.is_streaming());

    // A host hopelessly late on every deadline: each call releases the
    // next segment, the last one ends the session.
    let late = u64::MAX / 2;
    let before = thread_allocs();
    let mut sent = 0;
    let end = loop {
        match conn.on_timer(late, 0, &mut Idle) {
            Pace::Send(index) => {
                assert_eq!(index, sent);
                sent += 1;
            }
            end => break end,
        }
    };
    let allocs = thread_allocs() - before;
    assert_eq!((sent, end), (SEGMENTS, Pace::End));
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over {SEGMENTS} paced segments"
    );
}
