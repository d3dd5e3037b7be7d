//! Frame encoding and decoding.

use std::io::{Read, Write};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use p2ps_core::{PeerClass, PeerId};

use crate::{CandidateRecord, DecodeError, Message, SessionPlan};

/// Maximum accepted frame body length (16 MiB). Large enough for any
/// realistic segment payload, small enough to bound a malicious peer's
/// allocation demand.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Encodes `msg` as one length-prefixed frame appended to `buf`.
pub fn encode_frame(msg: &Message, buf: &mut BytesMut) {
    let body_start = buf.len() + 4;
    buf.put_u32_le(0); // patched below
    buf.put_u8(msg.tag());
    match msg {
        Message::Register {
            item,
            peer,
            class,
            port,
        } => {
            put_str(buf, item);
            buf.put_u64_le(peer.get());
            buf.put_u8(class.get());
            buf.put_u16_le(*port);
        }
        Message::QueryCandidates { item, m } => {
            put_str(buf, item);
            buf.put_u16_le(*m);
        }
        Message::Candidates { list } => {
            buf.put_u16_le(list.len() as u16);
            for c in list {
                buf.put_u64_le(c.id.get());
                buf.put_u8(c.class.get());
                buf.put_u16_le(c.port);
            }
        }
        Message::StreamRequest { session, class } => {
            buf.put_u64_le(*session);
            buf.put_u8(class.get());
        }
        Message::Grant { session, class } => {
            buf.put_u64_le(*session);
            buf.put_u8(class.get());
        }
        Message::Deny {
            session,
            busy,
            favored,
        } => {
            buf.put_u64_le(*session);
            buf.put_u8(u8::from(*busy) | (u8::from(*favored) << 1));
        }
        Message::Release { session } => {
            buf.put_u64_le(*session);
        }
        Message::Reminder { session, class } => {
            buf.put_u64_le(*session);
            buf.put_u8(class.get());
        }
        Message::StartSession { session, plan } => {
            buf.put_u64_le(*session);
            put_str(buf, &plan.item);
            buf.put_u32_le(plan.segments.len() as u32);
            for &s in &plan.segments {
                buf.put_u32_le(s);
            }
            buf.put_u32_le(plan.period);
            buf.put_u64_le(plan.total_segments);
            buf.put_u32_le(plan.dt_ms);
        }
        Message::SegmentData {
            session,
            index,
            payload,
        } => {
            buf.put_u64_le(*session);
            buf.put_u64_le(*index);
            buf.put_u32_le(payload.len() as u32);
            buf.put_slice(payload);
        }
        Message::EndSession { session } => {
            buf.put_u64_le(*session);
        }
    }
    let body_len = (buf.len() - body_start) as u32;
    buf[body_start - 4..body_start].copy_from_slice(&body_len.to_le_bytes());
}

/// Attempts to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` does not yet hold a complete frame (read
/// more bytes and retry); on success the frame's bytes are consumed. A
/// decoded segment payload is an O(1) shared view of the frame, not a
/// copy.
///
/// # Examples
///
/// Round-trip through the codec:
///
/// ```
/// use bytes::{Bytes, BytesMut};
/// use p2ps_proto::{decode_frame, encode_frame, Message};
///
/// let msg = Message::SegmentData {
///     session: 7,
///     index: 3,
///     payload: Bytes::from(&b"segment payload"[..]),
/// };
/// let mut buf = BytesMut::new();
/// encode_frame(&msg, &mut buf);
/// assert_eq!(decode_frame(&mut buf)?, Some(msg));
/// assert!(buf.is_empty());
/// # Ok::<(), p2ps_proto::DecodeError>(())
/// ```
///
/// # Errors
///
/// Any [`DecodeError`]; the buffer state is unspecified afterwards and the
/// connection should be dropped.
pub fn decode_frame(buf: &mut BytesMut) -> Result<Option<Message>, DecodeError> {
    let Some(len) = complete_frame_len(buf)? else {
        return Ok(None);
    };
    // Fast path: the accumulator holds exactly this frame AND fits it
    // tightly — move the allocation into the shared store instead of
    // copying the frame out. The tight-capacity guard matters twice: a
    // long-lived accumulator (growth-doubled capacity) must keep its
    // buffer rather than reallocate on every message, and a payload
    // view must not pin a much larger allocation than the frame.
    // (Streaming callers use `FrameDecoder`, which sizes a large frame's
    // buffer to the frame up front and never copies it.)
    let body = if buf.len() == 4 + len && buf.capacity() == buf.len() {
        let mut whole = std::mem::take(buf).freeze();
        whole.advance(4);
        whole
    } else {
        buf.advance(4);
        // One copy of the frame out of the mutable accumulator into a
        // shared allocation; every field decoded from it — in particular
        // a segment payload — is then an O(1) view of that allocation.
        buf.copy_to_bytes(len)
    };
    decode_whole_body(body).map(Some)
}

/// Length of the payload of the frame at the head of `buf`, when a
/// complete frame is buffered; `None` when more bytes are needed.
///
/// # Errors
///
/// [`DecodeError::FrameTooLarge`] when the prefix claims more than
/// [`MAX_FRAME_LEN`].
pub(crate) fn complete_frame_len(buf: &BytesMut) -> Result<Option<usize>, DecodeError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(DecodeError::FrameTooLarge(len));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some(len))
}

/// Decodes one complete frame body (length prefix already stripped),
/// rejecting trailing bytes.
pub(crate) fn decode_whole_body(mut body: Bytes) -> Result<Message, DecodeError> {
    let msg = decode_body(&mut body)?;
    if !body.is_empty() {
        return Err(DecodeError::TrailingBytes(body.len()));
    }
    Ok(msg)
}

fn decode_body(b: &mut Bytes) -> Result<Message, DecodeError> {
    let tag = get_u8(b)?;
    let msg = match tag {
        0x01 => Message::Register {
            item: get_str(b)?,
            peer: PeerId::new(get_u64(b)?),
            class: get_class(b)?,
            port: get_u16(b)?,
        },
        0x02 => Message::QueryCandidates {
            item: get_str(b)?,
            m: get_u16(b)?,
        },
        0x03 => {
            let n = get_u16(b)? as usize;
            let mut list = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                list.push(CandidateRecord {
                    id: PeerId::new(get_u64(b)?),
                    class: get_class(b)?,
                    port: get_u16(b)?,
                });
            }
            Message::Candidates { list }
        }
        0x10 => Message::StreamRequest {
            session: get_u64(b)?,
            class: get_class(b)?,
        },
        0x11 => Message::Grant {
            session: get_u64(b)?,
            class: get_class(b)?,
        },
        0x12 => {
            let session = get_u64(b)?;
            let flags = get_u8(b)?;
            Message::Deny {
                session,
                busy: flags & 1 != 0,
                favored: flags & 2 != 0,
            }
        }
        0x13 => Message::Release {
            session: get_u64(b)?,
        },
        0x14 => Message::Reminder {
            session: get_u64(b)?,
            class: get_class(b)?,
        },
        0x20 => {
            let session = get_u64(b)?;
            let item = get_str(b)?;
            let n = get_u32(b)? as usize;
            if b.remaining() < n * 4 {
                return Err(DecodeError::UnexpectedEof);
            }
            let mut segments = Vec::with_capacity(n);
            for _ in 0..n {
                segments.push(get_u32(b)?);
            }
            Message::StartSession {
                session,
                plan: SessionPlan {
                    item,
                    segments,
                    period: get_u32(b)?,
                    total_segments: get_u64(b)?,
                    dt_ms: get_u32(b)?,
                },
            }
        }
        0x21 => {
            let session = get_u64(b)?;
            let index = get_u64(b)?;
            let n = get_u32(b)? as usize;
            if b.remaining() < n {
                return Err(DecodeError::UnexpectedEof);
            }
            // O(1): the payload is a shared view of the frame allocation,
            // not a copy.
            let payload = b.split_to(n);
            Message::SegmentData {
                session,
                index,
                payload,
            }
        }
        0x22 => Message::EndSession {
            session: get_u64(b)?,
        },
        other => return Err(DecodeError::UnknownTag(other)),
    };
    Ok(msg)
}

/// Writes one frame to a blocking [`Write`] sink (the TCP path). A `&mut`
/// reference also works as the writer.
///
/// A transport shim over [`FrameEncoder`](crate::FrameEncoder):
/// [`Message::SegmentData`] — the hot path of a supplier's serving loop —
/// leaves as a small fixed header chunk plus the payload view itself,
/// gathered into one vectored write. The payload bytes are never copied
/// into an intermediate frame buffer, and a `TCP_NODELAY` socket still
/// sees a single writev instead of a 25-byte packet followed by the
/// payload.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_message<W: Write>(mut w: W, msg: &Message) -> std::io::Result<()> {
    let mut enc = crate::FrameEncoder::new();
    enc.push(msg);
    enc.write_to(&mut w)?;
    w.flush()
}

/// Reads one complete frame from a blocking [`Read`] source (the TCP
/// path). A `&mut` reference also works as the reader.
///
/// A transport shim over [`FrameDecoder`](crate::FrameDecoder): it reads
/// exactly the decoder's [`bytes_needed`](crate::FrameDecoder::bytes_needed)
/// hint at every step (the 4-byte prefix, then the whole body — two
/// reads per frame), so it never consumes bytes belonging to a later
/// read from the same stream. A frame over 4 KiB is read straight into
/// the buffer its payload view will keep alive; nothing passes through
/// an intermediate scratch buffer.
///
/// # Errors
///
/// Propagates I/O errors; decode failures surface as
/// [`std::io::ErrorKind::InvalidData`]. A clean EOF before the length
/// prefix yields [`std::io::ErrorKind::UnexpectedEof`].
pub fn read_message<R: Read>(mut r: R) -> std::io::Result<Message> {
    let mut dec = crate::FrameDecoder::new();
    loop {
        if let Some(msg) = dec.poll()? {
            return Ok(msg);
        }
        let want = dec.bytes_needed();
        dec.fill_from(&mut r, want)?;
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_u8(b: &mut Bytes) -> Result<u8, DecodeError> {
    if b.remaining() < 1 {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok(b.get_u8())
}

fn get_u16(b: &mut Bytes) -> Result<u16, DecodeError> {
    if b.remaining() < 2 {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok(b.get_u16_le())
}

fn get_u32(b: &mut Bytes) -> Result<u32, DecodeError> {
    if b.remaining() < 4 {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok(b.get_u32_le())
}

fn get_u64(b: &mut Bytes) -> Result<u64, DecodeError> {
    if b.remaining() < 8 {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok(b.get_u64_le())
}

fn get_class(b: &mut Bytes) -> Result<PeerClass, DecodeError> {
    let raw = get_u8(b)?;
    PeerClass::new(raw).map_err(|_| DecodeError::InvalidClass(raw))
}

fn get_str(b: &mut Bytes) -> Result<String, DecodeError> {
    let n = get_u16(b)? as usize;
    if b.remaining() < n {
        return Err(DecodeError::UnexpectedEof);
    }
    let raw = b.split_to(n);
    // Validate in place on the shared view; the only copy is the one
    // into the returned String (the old intermediate Vec doubled it).
    std::str::from_utf8(&raw)
        .map(str::to_owned)
        .map_err(|_| DecodeError::InvalidUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(k: u8) -> PeerClass {
        PeerClass::new(k).unwrap()
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Register {
                item: "video".into(),
                peer: PeerId::new(7),
                class: class(2),
                port: 9000,
            },
            Message::QueryCandidates {
                item: "video".into(),
                m: 8,
            },
            Message::Candidates {
                list: vec![
                    CandidateRecord {
                        id: PeerId::new(1),
                        class: class(1),
                        port: 9001,
                    },
                    CandidateRecord {
                        id: PeerId::new(2),
                        class: class(4),
                        port: 9002,
                    },
                ],
            },
            Message::StreamRequest {
                session: 99,
                class: class(3),
            },
            Message::Grant {
                session: 99,
                class: class(2),
            },
            Message::Deny {
                session: 99,
                busy: true,
                favored: true,
            },
            Message::Deny {
                session: 99,
                busy: false,
                favored: false,
            },
            Message::Release { session: 99 },
            Message::Reminder {
                session: 99,
                class: class(1),
            },
            Message::StartSession {
                session: 99,
                plan: SessionPlan {
                    item: "video".into(),
                    segments: vec![0, 1, 3, 7],
                    period: 8,
                    total_segments: 3_600,
                    dt_ms: 1_000,
                },
            },
            Message::SegmentData {
                session: 99,
                index: 42,
                payload: Bytes::from(vec![0xab; 1_024]),
            },
            Message::EndSession { session: 99 },
        ]
    }

    #[test]
    fn round_trip_every_message() {
        for msg in all_messages() {
            let mut buf = BytesMut::new();
            encode_frame(&msg, &mut buf);
            let decoded = decode_frame(&mut buf).unwrap().unwrap();
            assert_eq!(decoded, msg, "round trip of {}", msg.name());
            assert!(buf.is_empty(), "frame fully consumed for {}", msg.name());
        }
    }

    #[test]
    fn multiple_frames_in_one_buffer() {
        let msgs = all_messages();
        let mut buf = BytesMut::new();
        for m in &msgs {
            encode_frame(m, &mut buf);
        }
        for expected in &msgs {
            let got = decode_frame(&mut buf).unwrap().unwrap();
            assert_eq!(&got, expected);
        }
        assert!(decode_frame(&mut buf).unwrap().is_none());
    }

    #[test]
    fn partial_frames_request_more_bytes() {
        let mut full = BytesMut::new();
        encode_frame(&Message::Release { session: 5 }, &mut full);
        for cut in 0..full.len() {
            let mut partial = BytesMut::from(&full[..cut]);
            assert_eq!(
                decode_frame(&mut partial).unwrap(),
                None,
                "cut at {cut} bytes"
            );
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le((MAX_FRAME_LEN + 1) as u32);
        buf.put_slice(&[0; 8]);
        assert!(matches!(
            decode_frame(&mut buf),
            Err(DecodeError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1);
        buf.put_u8(0x7f);
        assert_eq!(decode_frame(&mut buf), Err(DecodeError::UnknownTag(0x7f)));
    }

    #[test]
    fn invalid_class_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(10);
        buf.put_u8(0x10); // StreamRequest
        buf.put_u64_le(1);
        buf.put_u8(0); // class 0 invalid
        assert_eq!(decode_frame(&mut buf), Err(DecodeError::InvalidClass(0)));
    }

    #[test]
    fn truncated_body_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(3);
        buf.put_u8(0x13); // Release needs 8 more bytes, only 2 present
        buf.put_u16_le(0);
        assert_eq!(decode_frame(&mut buf), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(10);
        buf.put_u8(0x22); // EndSession: 8 bytes of session
        buf.put_u64_le(1);
        buf.put_u8(0xee); // extra byte
        assert_eq!(decode_frame(&mut buf), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1 + 2 + 2 + 2);
        buf.put_u8(0x02); // QueryCandidates
        buf.put_u16_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        buf.put_u16_le(8);
        assert_eq!(decode_frame(&mut buf), Err(DecodeError::InvalidUtf8));
    }

    #[test]
    fn segment_data_write_matches_encode_frame() {
        // The zero-copy write path hand-builds the frame header; it must
        // stay byte-identical to the generic encoder.
        for size in [0usize, 1, 1_024, 64 * 1024] {
            let msg = Message::SegmentData {
                session: 0x0102_0304_0506_0708,
                index: 0x1122_3344_5566_7788,
                payload: Bytes::from(vec![0x5a; size]),
            };
            let mut framed = BytesMut::new();
            encode_frame(&msg, &mut framed);
            let mut written = Vec::new();
            write_message(&mut written, &msg).unwrap();
            assert_eq!(&written[..], &framed[..], "payload size {size}");
        }
    }

    #[test]
    fn decoded_payload_round_trips_and_clones_shared() {
        // The payload-as-view property itself (split_to aliasing the
        // frame allocation) is pinned at the Bytes layer by
        // vendor/bytes' `copy_to_bytes_is_a_view_for_bytes` /
        // `clone_and_views_share_the_allocation`; decode_body reaches it
        // through `Bytes::split_to`. Here we pin what is observable
        // through the public codec API: contents survive the trip and the
        // handed-out payload clones by pointer.
        let payload = Bytes::from(vec![0xcd; 4 * 1024]);
        let msg = Message::SegmentData {
            session: 1,
            index: 2,
            payload: payload.clone(),
        };
        let mut buf = BytesMut::new();
        encode_frame(&msg, &mut buf);
        let Some(Message::SegmentData { payload: got, .. }) = decode_frame(&mut buf).unwrap()
        else {
            panic!("expected segment data");
        };
        assert_eq!(got, payload);
        let cloned = got.clone();
        assert_eq!(cloned.as_ptr(), got.as_ptr(), "clone is O(1)");
    }

    #[test]
    fn io_read_write_round_trip() {
        let mut wire = Vec::new();
        for m in all_messages() {
            write_message(&mut wire, &m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        for expected in all_messages() {
            let got = read_message(&mut cursor).unwrap();
            assert_eq!(got, expected);
        }
        // clean EOF afterwards
        let err = read_message(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn empty_payload_and_empty_strings() {
        let msgs = [
            Message::SegmentData {
                session: 0,
                index: 0,
                payload: Bytes::new(),
            },
            Message::QueryCandidates {
                item: String::new(),
                m: 0,
            },
            Message::Candidates { list: vec![] },
        ];
        for msg in msgs {
            let mut buf = BytesMut::new();
            encode_frame(&msg, &mut buf);
            assert_eq!(decode_frame(&mut buf).unwrap().unwrap(), msg);
        }
    }
}
