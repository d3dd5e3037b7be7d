//! `FrameDecoder` must be split-invariant: however a byte stream is cut
//! into chunks — at every single byte boundary, or at seeded random
//! ones — the decoded message sequence is identical to the whole-stream
//! decode, whether the consumer keeps every message (so no allocation
//! can be recycled) or drops each one at once (so every allocation is).
//! The simulation harness (`p2ps-simnet`) leans on exactly this property
//! when it fragments wire traffic at arbitrary boundaries, so it is
//! pinned here directly against the codec. The second half pins what the
//! decoder promises around its allocations and around corrupt input:
//! a view handed out is never written again, and errors surface in wire
//! order.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

use p2ps_core::{PeerClass, PeerId};
use p2ps_proto::{
    encode_frame, CandidateRecord, DecodeError, FrameDecoder, Message, SessionPlan, MAX_FRAME_LEN,
};

/// A stream touching every message family: lookup, admission and
/// streaming plane, with string, list, plan and payload field shapes.
fn sample_messages(payload: &[u8]) -> Vec<Message> {
    vec![
        Message::Register {
            item: "movie".into(),
            peer: PeerId::new(7),
            class: PeerClass::new(2).unwrap(),
            port: 9000,
        },
        Message::QueryCandidates {
            item: "movie".into(),
            m: 5,
        },
        Message::Candidates {
            list: vec![
                CandidateRecord {
                    id: PeerId::new(1),
                    class: PeerClass::HIGHEST,
                    port: 9001,
                },
                CandidateRecord {
                    id: PeerId::new(2),
                    class: PeerClass::new(3).unwrap(),
                    port: 9002,
                },
            ],
        },
        Message::StreamRequest {
            session: 0xfeed,
            class: PeerClass::new(4).unwrap(),
        },
        Message::Grant {
            session: 0xfeed,
            class: PeerClass::new(2).unwrap(),
        },
        Message::Deny {
            session: 0xfeed,
            busy: true,
            favored: false,
        },
        Message::Reminder {
            session: 0xfeed,
            class: PeerClass::new(4).unwrap(),
        },
        Message::StartSession {
            session: 0xfeed,
            plan: SessionPlan {
                item: "movie".into(),
                segments: vec![0, 3],
                period: 4,
                total_segments: 16,
                dt_ms: 10,
            },
        },
        Message::SegmentData {
            session: 0xfeed,
            index: 3,
            payload: Bytes::from(payload.to_vec()),
        },
        Message::Release { session: 0xfeed },
        Message::EndSession { session: 0xfeed },
    ]
}

/// Encodes `msgs` back to back into one contiguous byte stream.
fn wire(msgs: &[Message]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    for m in msgs {
        encode_frame(m, &mut buf);
    }
    buf.to_vec()
}

/// What the consumer does with a decoded message.
#[derive(Debug, Clone, Copy)]
enum Consumer {
    /// Keeps every message (payload views included) until the stream
    /// ends: the decoder can never recycle an allocation.
    Retains,
    /// Compares each message with the expected one and drops it before
    /// the next poll: the decoder recycles whenever it can.
    Drops,
}

/// Feeds `stream` to a fresh decoder in the given chunks and checks that
/// exactly `expected` comes out, with no decode error and no leftovers.
fn assert_decodes(
    stream: &[u8],
    chunks: impl Iterator<Item = usize>,
    consumer: Consumer,
    expected: &[Message],
    what: &str,
) {
    let mut dec = FrameDecoder::new();
    let mut kept = Vec::new();
    let mut seen = 0;
    let mut at = 0;
    for len in chunks {
        let end = (at + len).min(stream.len());
        dec.feed(&stream[at..end]);
        at = end;
        while let Some(msg) = dec.poll().expect("valid stream must decode") {
            match consumer {
                Consumer::Retains => kept.push(msg),
                Consumer::Drops => {
                    assert_eq!(Some(&msg), expected.get(seen), "{what}: message {seen}")
                }
            }
            seen += 1;
        }
    }
    assert_eq!(at, stream.len(), "every byte fed");
    assert_eq!(dec.buffered(), 0, "{what}: no partial frame left behind");
    assert_eq!(seen, expected.len(), "{what}: message count");
    if let Consumer::Retains = consumer {
        // Compared only now: a view overwritten by a later frame would
        // have changed in the meantime.
        assert_eq!(kept, expected, "{what}");
    }
}

#[test]
fn every_split_point_of_a_multi_message_stream_decodes_identically() {
    // A payload of a few bytes keeps every frame in the small-frame
    // path; 5,000 bytes makes the segment a large frame that is
    // assembled in its own exact-size buffer.
    for payload in [
        b"segment payload bytes \x00\xff\x7f".to_vec(),
        vec![0x5a; 5_000],
    ] {
        let msgs = sample_messages(&payload);
        let stream = wire(&msgs);
        // One cut at every byte boundary, including the degenerate
        // empty-first-chunk and empty-second-chunk splits.
        for cut in 0..=stream.len() {
            for consumer in [Consumer::Retains, Consumer::Drops] {
                assert_decodes(
                    &stream,
                    [cut, stream.len() - cut].into_iter(),
                    consumer,
                    &msgs,
                    &format!("split at byte {cut}, consumer {consumer:?}"),
                );
            }
        }
    }
}

#[test]
fn one_byte_at_a_time_decodes_identically() {
    let msgs = sample_messages(&[0xaa; 63]);
    let stream = wire(&msgs);
    for consumer in [Consumer::Retains, Consumer::Drops] {
        let bytes = std::iter::repeat_n(1, stream.len());
        assert_decodes(&stream, bytes, consumer, &msgs, "one byte at a time");
    }
}

proptest! {
    /// Seeded random chunkings of a randomized-payload stream: any
    /// partition of the wire bytes decodes to the same messages.
    #[test]
    fn random_chunk_splits_are_decode_invariant(
        payload in prop::collection::vec(any::<u8>(), 0..200),
        sizes in prop::collection::vec(1usize..48, 1..128),
    ) {
        let msgs = sample_messages(&payload);
        let stream = wire(&msgs);
        // Cycle the drawn sizes until the stream is exhausted.
        let mut cuts = Vec::new();
        let mut covered = 0;
        for len in sizes.iter().cycle() {
            if covered >= stream.len() {
                break;
            }
            cuts.push(*len);
            covered += len;
        }
        assert_decodes(&stream, cuts.iter().copied(), Consumer::Retains, &msgs, "random cuts");
        assert_decodes(&stream, cuts.into_iter(), Consumer::Drops, &msgs, "random cuts");
    }
}

fn segment(index: u64, payload: Vec<u8>) -> Message {
    Message::SegmentData {
        session: 9,
        index,
        payload: Bytes::from(payload),
    }
}

#[test]
fn a_retained_view_is_never_overwritten_by_a_later_frame() {
    // Every third payload is kept, the rest are dropped at once, so the
    // decoder keeps finding its spare allocation free, half free and
    // pinned in turn; small and large frames alternate so both the burst
    // allocation and the exact-size buffer are exercised. Bursts of
    // seven frames are cut at an odd stride so cuts land everywhere.
    let frames: Vec<Message> = (0..210u64)
        .map(|i| segment(i, vec![i as u8; if i % 5 == 0 { 6_000 } else { 100 }]))
        .collect();
    let stream = wire(&frames);
    let mut dec = FrameDecoder::new();
    let mut kept: Vec<(u64, Bytes)> = Vec::new();
    for chunk in stream.chunks(7 * 131) {
        dec.feed(chunk);
        while let Some(msg) = dec.poll().unwrap() {
            let Message::SegmentData { index, payload, .. } = msg else {
                panic!("only segments were sent");
            };
            if index % 3 == 0 {
                kept.push((index, payload));
            }
        }
    }
    assert_eq!(kept.len(), 70);
    for (index, payload) in kept {
        let len = if index % 5 == 0 { 6_000 } else { 100 };
        assert_eq!(&payload[..], &vec![index as u8; len][..], "segment {index}");
    }
}

/// Polls until the decoder wants more bytes, collecting results.
fn drain(dec: &mut FrameDecoder, into: &mut Vec<Result<Message, DecodeError>>) {
    loop {
        match dec.poll() {
            Ok(None) => return,
            Ok(Some(msg)) => into.push(Ok(msg)),
            Err(e) => {
                // An oversized prefix is reported on every poll from
                // then on; one copy of it is enough here.
                let sticky = matches!(e, DecodeError::FrameTooLarge(_));
                into.push(Err(e));
                if sticky {
                    return;
                }
            }
        }
    }
}

#[test]
fn frames_ahead_of_an_oversized_prefix_are_delivered_before_the_error() {
    let good = [segment(1, vec![1; 40]), segment(2, vec![2; 5_000])];
    let mut stream = wire(&good);
    stream.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
    stream.extend_from_slice(b"whatever follows a dead prefix is never looked at");
    for cut in 0..=stream.len() {
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        dec.feed(&stream[..cut]);
        drain(&mut dec, &mut got);
        if !matches!(got.last(), Some(Err(_))) {
            dec.feed(&stream[cut..]);
            drain(&mut dec, &mut got);
        }
        assert_eq!(
            got,
            vec![
                Ok(good[0].clone()),
                Ok(good[1].clone()),
                Err(DecodeError::FrameTooLarge(MAX_FRAME_LEN + 1)),
            ],
            "split at byte {cut}"
        );
        // The stream is dead: more input changes nothing.
        dec.feed(&wire(&good));
        assert_eq!(
            dec.poll(),
            Err(DecodeError::FrameTooLarge(MAX_FRAME_LEN + 1))
        );
    }
}

#[test]
fn a_corrupt_frame_is_reported_in_its_place_in_the_stream() {
    let before = segment(1, vec![1; 40]);
    let after = Message::EndSession { session: 9 };
    let mut stream = wire(std::slice::from_ref(&before));
    stream.extend_from_slice(&2u32.to_le_bytes());
    stream.extend_from_slice(&[0x7f, 0x00]); // no message has tag 0x7f
    stream.extend_from_slice(&wire(std::slice::from_ref(&after)));
    for cut in 0..=stream.len() {
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for part in [&stream[..cut], &stream[cut..]] {
            dec.feed(part);
            drain(&mut dec, &mut got);
        }
        assert_eq!(
            got,
            vec![
                Ok(before.clone()),
                Err(DecodeError::UnknownTag(0x7f)),
                Ok(after.clone()),
            ],
            "split at byte {cut}"
        );
    }
}
