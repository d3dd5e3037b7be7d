//! Sans-io framing: incremental decode and queued encode, no transport.
//!
//! [`FrameDecoder`] and [`FrameEncoder`] hold the *protocol* half of a
//! connection — byte accumulation, frame boundaries, zero-copy payload
//! views — while the caller owns the *transport* half (blocking sockets,
//! a nonblocking reactor, an in-memory test harness). The blocking
//! [`read_message`](crate::read_message) / [`write_message`](crate::write_message)
//! helpers are thin transport shims over these same types, so every I/O
//! style speaks byte-identical wire format.
//!
//! ```text
//!   bytes in ──▶ FrameDecoder::feed ──▶ poll ──▶ Message
//!   Message ──▶ FrameEncoder::push ──▶ pop_chunk ──▶ bytes out
//! ```
//!
//! Both directions work per *burst*, not per frame. `feed` puts what one
//! read delivered straight into the allocation it will live in — the
//! whole frames of the burst share one, a large frame still arriving
//! gets a buffer of exactly its size — and `poll` only hands out views;
//! see [`FrameDecoder`] for what that costs in copies and allocations.
//! `push` queues chunks for one vectored write of up to
//! [`MAX_GATHER_SLICES`](crate::MAX_GATHER_SLICES) of them.
//!
//! # Examples
//!
//! Drive a decoder with arbitrarily fragmented input:
//!
//! ```
//! use p2ps_proto::{FrameDecoder, FrameEncoder, Message};
//!
//! let msg = Message::Release { session: 7 };
//! let mut enc = FrameEncoder::new();
//! enc.push(&msg);
//! let mut dec = FrameDecoder::new();
//! while let Some(chunk) = enc.pop_chunk() {
//!     for byte in chunk.iter() {
//!         dec.feed(&[*byte]); // one byte at a time
//!     }
//! }
//! assert_eq!(dec.poll()?, Some(msg));
//! # Ok::<(), p2ps_proto::DecodeError>(())
//! ```

use std::collections::VecDeque;
use std::io::{Read, Write};

use bytes::{Buf, Bytes, BytesMut};

use crate::codec::{decode_whole_body, encode_frame};
use crate::{ChunkQueue, DecodeError, Message, MAX_FRAME_LEN};

/// A frame of at most this many bytes that arrives in pieces waits in the
/// decoder's reusable accumulator and is copied once more, into the
/// allocation of the burst it completes in; a larger one is assembled in
/// place in an exact-size buffer. Copying this much costs about what the
/// allocation pair it saves does.
const SMALL_FRAME: usize = 4096;

/// Length, prefix included, of the frame `head` starts — known once its
/// four prefix bytes are there. Not yet checked against [`MAX_FRAME_LEN`].
fn frame_total(head: &[u8]) -> Option<usize> {
    let prefix = head.first_chunk::<4>()?;
    Some((u32::from_le_bytes(*prefix) as usize).saturating_add(4))
}

/// [`frame_total`] of a frame that gets an exact-size buffer of its own:
/// bigger than [`SMALL_FRAME`] and within [`MAX_FRAME_LEN`].
fn large_total(head: &[u8]) -> Option<usize> {
    frame_total(head).filter(|total| (SMALL_FRAME + 1..=4 + MAX_FRAME_LEN).contains(total))
}

/// Length of the run of whole frames `bytes` starts with. The run ends at
/// the first frame that is incomplete or whose prefix claims more than
/// [`MAX_FRAME_LEN`].
fn whole_frames(bytes: &[u8]) -> usize {
    let mut at = 0;
    while let Some(total) = frame_total(&bytes[at..]) {
        if total > 4 + MAX_FRAME_LEN || total > bytes.len() - at {
            break;
        }
        at += total;
    }
    at
}

/// Incremental frame decoder: feed bytes in any fragmentation, poll
/// complete [`Message`]s out.
///
/// [`feed`](Self::feed) sorts incoming bytes straight into the allocation
/// they will live in, so a payload byte is copied once in user space:
///
/// * the run of whole frames a burst starts with is lifted into **one**
///   allocation, and [`poll`](Self::poll) hands the frames out as O(1)
///   views of it — allocation is per burst, not per frame;
/// * a frame that is not all there yet and is larger than 4 KiB is
///   assembled in a buffer of exactly its size, which is handed out as
///   is once the last byte arrives — allocation is per frame, and there
///   is no second copy however large the frame;
/// * only the fragment of a *small* incomplete frame waits in a reusable
///   accumulator and is copied again, in front of the burst that
///   completes it. The accumulator makes room for the whole frame once
///   its 4-byte prefix is there (a prefix still arriving waits inline),
///   so a frame trickling in byte by byte grows it at most once.
///
/// Decoded `SegmentData` payloads are views, never copies. A view pins
/// the allocation of its whole burst (one `feed`'s worth of bytes, or the
/// recycled buffer they were copied into) for as long as it lives and is
/// never written again: the decoder reuses an allocation only when it
/// holds the last reference. It keeps one candidate — the allocation
/// [`poll`](Self::poll) drained last — so once a connection has warmed
/// up, a consumer that drops each message before the next burst arrives
/// decodes with **zero** heap allocations, and one that retains every
/// payload pays one allocation pair (storage + shared block) per burst of
/// small frames or per large frame.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Whole frames in wire order, not yet polled. Each element is one
    /// allocation holding one or more frames back to back, prefixes
    /// included.
    ready: VecDeque<Bytes>,
    /// The first `prefix_len` bytes of the next frame's length prefix,
    /// while fewer than four of them have arrived; `tail` is empty
    /// meanwhile.
    prefix: [u8; 4],
    prefix_len: usize,
    /// The frame under assembly, from its complete prefix on; always
    /// begins at a frame boundary and is empty or at least four bytes
    /// long. Holds a whole frame only transiently inside
    /// `feed`/`fill_from`. After an oversized prefix it keeps that prefix
    /// for `poll` to report and the decoder takes no more input.
    tail: BytesMut,
    /// The allocation `poll` drained last: the next buffer, if the
    /// consumer has let go of every view of it by then.
    spare: Option<Bytes>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Takes raw bytes from the transport, in any fragmentation.
    pub fn feed(&mut self, mut bytes: &[u8]) {
        // The frame under assembly takes what it lacks: the rest of its
        // prefix first, because only the length says where the body
        // belongs, then the body.
        while self.prefix_len > 0 || !self.tail.is_empty() {
            let lacks = match self.tail_lacks() {
                Err(_) => return, // oversized prefix: poll reports it
                Ok(0) => break,
                Ok(n) => n,
            };
            if bytes.is_empty() {
                return;
            }
            let (piece, rest) = bytes.split_at(lacks.min(bytes.len()));
            self.assemble(piece);
            bytes = rest;
        }
        let rest = self.lift(bytes);
        if !rest.is_empty() {
            // An incomplete frame, or an oversized prefix and whatever
            // follows it.
            self.assemble(rest);
        }
    }

    /// Attempts to decode the next complete frame.
    ///
    /// Returns `Ok(None)` when more bytes are needed ([`feed`](Self::feed)
    /// and retry; [`bytes_needed`](Self::bytes_needed) says how many).
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`]; the stream is corrupt and the connection
    /// should be dropped. Errors surface in wire order: every frame ahead
    /// of a corrupt one, or of an oversized prefix, is delivered first.
    pub fn poll(&mut self) -> Result<Option<Message>, DecodeError> {
        let Some(block) = self.ready.front_mut() else {
            // At rest the tail is never a whole frame: more bytes are
            // needed unless its prefix is oversized.
            return self.tail_lacks().map(|_| None);
        };
        let total = frame_total(block).expect("only whole frames are lifted");
        let mut frame = block.split_to(total);
        frame.advance(4);
        if block.is_empty() {
            self.spare = self.ready.pop_front();
        }
        decode_whole_body(frame).map(Some)
    }

    /// Minimum number of additional bytes that must be fed before
    /// [`poll`](Self::poll) can possibly return a frame.
    ///
    /// Meaningful after `poll` returned `Ok(None)`: a blocking caller can
    /// `read_exact` exactly this many bytes and never consume bytes
    /// belonging to a later read from the same stream.
    pub fn bytes_needed(&self) -> usize {
        // An oversized prefix is an error poll() reports without further
        // input; claim one byte so callers that read first never block
        // forever waiting for nothing.
        self.tail_lacks().unwrap_or(0).max(1)
    }

    /// Reads exactly `n` bytes from `r` straight into the frame under
    /// assembly — no intermediate scratch buffer, one `read_exact` worth
    /// of syscalls per piece. Combined with
    /// [`bytes_needed`](Self::bytes_needed), a blocking caller receives a
    /// whole frame (however large) in two reads and one
    /// kernel-to-final-allocation copy.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the piece being read is rolled back, so the
    /// decoder holds only bytes `r` really delivered.
    /// [`std::io::ErrorKind::InvalidData`] once an oversized prefix has
    /// ended the stream.
    pub fn fill_from<R: Read>(&mut self, r: &mut R, mut n: usize) -> std::io::Result<()> {
        while n > 0 {
            // Only what the frame under assembly lacks can be read
            // straight into it; with nothing under assembly that is the
            // next prefix.
            let piece = self.tail_lacks()?.min(n);
            if self.tail.is_empty() {
                let have = self.prefix_len;
                r.read_exact(&mut self.prefix[have..have + piece])?;
                self.prefix_len += piece;
                self.place_prefix();
            } else {
                let old_len = self.tail.len();
                self.tail.resize(old_len + piece, 0);
                if let Err(e) = r.read_exact(&mut self.tail[old_len..]) {
                    self.tail.resize(old_len, 0);
                    return Err(e);
                }
            }
            n -= piece;
            if self.tail_lacks() == Ok(0) {
                self.lift(&[]);
            }
        }
        Ok(())
    }

    /// Bytes currently buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.ready.iter().map(Bytes::len).sum::<usize>() + self.prefix_len + self.tail.len()
    }

    /// Bytes the frame under assembly still lacks — of its prefix while
    /// that is incomplete (4 with nothing under assembly), then of its
    /// body.
    ///
    /// # Errors
    ///
    /// [`DecodeError::FrameTooLarge`] once the prefix claims more than
    /// [`MAX_FRAME_LEN`].
    fn tail_lacks(&self) -> Result<usize, DecodeError> {
        match frame_total(&self.tail) {
            None => Ok(4 - self.prefix_len),
            Some(total) if total > 4 + MAX_FRAME_LEN => Err(DecodeError::FrameTooLarge(total - 4)),
            Some(total) => Ok(total - self.tail.len()),
        }
    }

    /// Appends `piece` to the frame under assembly: to the inline prefix
    /// until that is complete, then to the tail.
    fn assemble(&mut self, mut piece: &[u8]) {
        if self.tail.is_empty() {
            let have = self.prefix_len;
            let take = (4 - have).min(piece.len());
            self.prefix[have..have + take].copy_from_slice(&piece[..take]);
            self.prefix_len += take;
            piece = &piece[take..];
            self.place_prefix();
        }
        self.tail.extend_from_slice(piece);
    }

    /// Moves a complete prefix into the tail, which first makes room for
    /// the whole frame: a large frame gets a buffer of its own size, so
    /// that its body lands where it will stay; a small one is reserved in
    /// the accumulator, so that its body arrives without growing it. An
    /// oversized prefix reserves nothing.
    fn place_prefix(&mut self) {
        if self.prefix_len < 4 {
            return;
        }
        let total = frame_total(&self.prefix).expect("four prefix bytes");
        if let Some(total) = large_total(&self.prefix) {
            self.tail = self.buffer(total);
        } else if total <= SMALL_FRAME {
            self.tail.reserve(total);
        }
        self.tail.extend_from_slice(&self.prefix);
        self.prefix_len = 0;
    }

    /// Hands the whole frame in the tail (if any) and the run of whole
    /// frames `bytes` starts with to `ready`; returns what follows the
    /// run. A large tail frame is handed out as it stands, a small one is
    /// copied in front of the run so that the burst stays one allocation.
    fn lift<'a>(&mut self, bytes: &'a [u8]) -> &'a [u8] {
        if self.tail.len() > SMALL_FRAME {
            let whole = std::mem::take(&mut self.tail).freeze();
            self.ready.push_back(whole);
        }
        let (run, rest) = bytes.split_at(whole_frames(bytes));
        if !self.tail.is_empty() || !run.is_empty() {
            let mut burst = self.buffer(self.tail.len() + run.len());
            burst.extend_from_slice(&self.tail);
            burst.extend_from_slice(run);
            self.tail.clear();
            self.ready.push_back(burst.freeze());
        }
        rest
    }

    /// An empty buffer with room for `n` bytes: the spare allocation when
    /// no view of it is alive any more, a fresh one otherwise.
    fn buffer(&mut self, n: usize) -> BytesMut {
        match self.spare.take().map(Bytes::try_into_mut) {
            Some(Ok(mut recycled)) => {
                recycled.clear();
                recycled.reserve(n);
                recycled
            }
            _ => BytesMut::with_capacity(n),
        }
    }
}

/// Queued frame encoder: push [`Message`]s, drain ready [`Bytes`] chunks.
///
/// Small messages become one owned chunk. `SegmentData` — the serving hot
/// path — becomes a fixed 25-byte header chunk followed by the payload
/// *view itself*: the payload bytes are never copied into a frame buffer,
/// so a supplier serving the same segment to a thousand sessions queues a
/// thousand views of one allocation.
#[derive(Debug, Default)]
pub struct FrameEncoder {
    queue: ChunkQueue,
}

impl FrameEncoder {
    /// An empty encoder.
    pub fn new() -> Self {
        FrameEncoder::default()
    }

    /// Encodes `msg` into its wire chunks without queueing them: the
    /// header-or-whole-frame chunk, plus the zero-copy payload view for
    /// `SegmentData`.
    ///
    /// The concatenation of the returned chunks is byte-identical to
    /// [`encode_frame`](crate::encode_frame) (pinned by tests).
    pub fn frame(msg: &Message) -> (Bytes, Option<Bytes>) {
        if let Message::SegmentData {
            session,
            index,
            payload,
        } = msg
        {
            // Layout must match encode_frame exactly:
            // len | tag | session | index | payload_len | payload.
            let body_len = (1 + 8 + 8 + 4 + payload.len()) as u32;
            let mut head = Vec::with_capacity(25);
            head.extend_from_slice(&body_len.to_le_bytes());
            head.push(msg.tag());
            head.extend_from_slice(&session.to_le_bytes());
            head.extend_from_slice(&index.to_le_bytes());
            head.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            (Bytes::from(head), Some(payload.clone()))
        } else {
            let mut buf = BytesMut::new();
            encode_frame(msg, &mut buf);
            (buf.freeze(), None)
        }
    }

    /// Queues one message's frame chunks for draining.
    pub fn push(&mut self, msg: &Message) {
        let (head, payload) = Self::frame(msg);
        self.queue.push(head);
        if let Some(p) = payload {
            self.queue.push(p);
        }
    }

    /// Removes and returns the next ready chunk, front first.
    pub fn pop_chunk(&mut self) -> Option<Bytes> {
        self.queue.pop()
    }

    /// Total bytes queued across all pending chunks.
    pub fn pending_bytes(&self) -> usize {
        self.queue.pending_bytes()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Marks `n` queued bytes as written, consuming chunks front first.
    /// A reactor that gathered the front chunks into a partial
    /// `write_vectored` calls this with the short count (see
    /// [`ChunkQueue::advance`], which owns the bookkeeping).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`pending_bytes`](Self::pending_bytes).
    pub fn advance(&mut self, n: usize) {
        self.queue.advance(n);
    }

    /// Drains every queued chunk into a blocking writer with vectored
    /// writes (a `SegmentData` header and its payload leave in one
    /// `writev`, never re-buffered) — [`ChunkQueue::write_to`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; only bytes the writer actually accepted are
    /// consumed, so the unwritten tail stays queued.
    pub fn write_to<W: Write>(&mut self, w: W) -> std::io::Result<()> {
        self.queue.write_to(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CandidateRecord;
    use p2ps_core::{PeerClass, PeerId};

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Register {
                item: "video".into(),
                peer: PeerId::new(7),
                class: PeerClass::new(2).unwrap(),
                port: 9000,
            },
            Message::Candidates {
                list: vec![CandidateRecord {
                    id: PeerId::new(1),
                    class: PeerClass::new(1).unwrap(),
                    port: 9001,
                }],
            },
            Message::SegmentData {
                session: 99,
                index: 42,
                payload: Bytes::from(vec![0xab; 2_048]),
            },
            Message::SegmentData {
                session: 1,
                index: 2,
                payload: Bytes::new(), // empty payload is legal
            },
            Message::EndSession { session: 99 },
        ]
    }

    #[test]
    fn encoder_chunks_match_encode_frame() {
        for msg in sample_messages() {
            let mut enc = FrameEncoder::new();
            enc.push(&msg);
            let mut wire = Vec::new();
            while let Some(c) = enc.pop_chunk() {
                wire.extend_from_slice(&c);
            }
            let mut framed = BytesMut::new();
            encode_frame(&msg, &mut framed);
            assert_eq!(&wire[..], &framed[..], "chunks differ for {}", msg.name());
        }
    }

    #[test]
    fn segment_payload_chunk_is_a_view_not_a_copy() {
        let payload = Bytes::from(vec![0x5a; 4 * 1024]);
        let msg = Message::SegmentData {
            session: 1,
            index: 2,
            payload: payload.clone(),
        };
        let (_, tail) = FrameEncoder::frame(&msg);
        let tail = tail.expect("segment data has a payload chunk");
        assert_eq!(
            tail.as_ptr(),
            payload.as_ptr(),
            "payload must not be copied"
        );
    }

    #[test]
    fn decoder_handles_any_fragmentation() {
        let msgs = sample_messages();
        let mut wire = Vec::new();
        for m in &msgs {
            let mut enc = FrameEncoder::new();
            enc.push(m);
            while let Some(c) = enc.pop_chunk() {
                wire.extend_from_slice(&c);
            }
        }
        for step in [1usize, 3, 7, wire.len()] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for chunk in wire.chunks(step) {
                dec.feed(chunk);
                while let Some(m) = dec.poll().unwrap() {
                    got.push(m);
                }
            }
            assert_eq!(got, msgs, "fragmentation step {step}");
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn bytes_needed_is_an_exact_blocking_read_hint() {
        // Reading exactly bytes_needed() at every step must produce one
        // frame without ever over-reading (read_message's contract).
        let msg = Message::SegmentData {
            session: 3,
            index: 4,
            payload: Bytes::from(vec![9u8; 333]),
        };
        let mut enc = FrameEncoder::new();
        enc.push(&msg);
        let mut wire = Vec::new();
        while let Some(c) = enc.pop_chunk() {
            wire.extend_from_slice(&c);
        }
        let mut dec = FrameDecoder::new();
        let mut offset = 0;
        loop {
            if let Some(got) = dec.poll().unwrap() {
                assert_eq!(got, msg);
                break;
            }
            let need = dec.bytes_needed();
            assert!(need > 0);
            dec.feed(&wire[offset..offset + need]);
            offset += need;
        }
        assert_eq!(offset, wire.len(), "consumed exactly one frame");
    }

    #[test]
    fn fill_from_deposits_directly_and_rolls_back_on_error() {
        let msg = Message::SegmentData {
            session: 1,
            index: 2,
            payload: Bytes::from(vec![0x42; 1_000]),
        };
        let mut enc = FrameEncoder::new();
        enc.push(&msg);
        let mut wire = Vec::new();
        enc.write_to(&mut wire).unwrap();

        // Whole frame in exactly two reads: prefix, then body.
        let mut cursor = std::io::Cursor::new(&wire[..]);
        let mut dec = FrameDecoder::new();
        assert!(dec.poll().unwrap().is_none());
        dec.fill_from(&mut cursor, dec.bytes_needed()).unwrap(); // 4-byte prefix
        assert!(dec.poll().unwrap().is_none());
        dec.fill_from(&mut cursor, dec.bytes_needed()).unwrap(); // whole body
        assert_eq!(dec.poll().unwrap(), Some(msg));
        assert_eq!(cursor.position() as usize, wire.len());

        // A short source fails without corrupting the accumulator.
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..10]);
        let before = dec.buffered();
        let mut short = std::io::Cursor::new(&wire[10..20]);
        assert!(dec.fill_from(&mut short, 100).is_err());
        assert_eq!(dec.buffered(), before, "rolled back after EOF");
    }

    #[test]
    fn oversized_prefix_still_claims_a_byte() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(dec.bytes_needed() >= 1);
        assert!(matches!(dec.poll(), Err(DecodeError::FrameTooLarge(_))));
    }

    #[test]
    fn write_to_drains_through_a_short_writer() {
        // A writer that accepts one byte per call exercises the partial
        // chunk bookkeeping.
        struct OneByte(Vec<u8>);
        impl Write for OneByte {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.is_empty() {
                    return Ok(0);
                }
                self.0.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let msg = Message::SegmentData {
            session: 8,
            index: 9,
            payload: Bytes::from(vec![7u8; 100]),
        };
        let mut enc = FrameEncoder::new();
        enc.push(&msg);
        let mut sink = OneByte(Vec::new());
        enc.write_to(&mut sink).unwrap();
        assert!(enc.is_empty());
        assert_eq!(enc.pending_bytes(), 0);
        let mut framed = BytesMut::new();
        encode_frame(&msg, &mut framed);
        assert_eq!(&sink.0[..], &framed[..]);
    }
}
