//! A queue of zero-copy chunks with vectored-write bookkeeping.
//!
//! Both halves of the transport stack queue outbound [`Bytes`] chunks
//! and drain them with `writev`: the blocking
//! [`FrameEncoder`](crate::FrameEncoder) and the reactor's
//! per-connection flush (`p2ps-net`). The gather loop (up to
//! [`MAX_GATHER_SLICES`] per write) and the partial-advance arithmetic (a short write consumes whole
//! front chunks plus a slice of the next) used to be duplicated in both;
//! [`ChunkQueue`] is the one shared implementation.

use std::collections::VecDeque;
use std::io::{IoSlice, Write};

use bytes::Bytes;

/// Upper bound of chunks gathered into one vectored write: a frame is at
/// most two chunks (header + payload view), so 64 slices carry the 32
/// frames of a supplier's catch-up burst in one syscall while the slice
/// array (1 KiB) stays on the stack. The reactor also flushes a
/// connection early once this many chunks wait on it.
pub const MAX_GATHER_SLICES: usize = 64;

/// An ordered queue of [`Bytes`] chunks plus the byte count not yet
/// written, with partial-write consumption.
///
/// Chunks are never copied: a partial write slices the front chunk in
/// place (`Bytes::split_to` moves the view's start, not the data).
///
/// # Examples
///
/// ```
/// use p2ps_proto::ChunkQueue;
/// use bytes::Bytes;
///
/// let mut q = ChunkQueue::new();
/// q.push(Bytes::from(vec![1, 2, 3]));
/// q.push(Bytes::from(vec![4, 5]));
/// assert_eq!(q.pending_bytes(), 5);
/// q.advance(4); // consumes the first chunk and one byte of the second
/// assert_eq!(q.pending_bytes(), 1);
/// ```
#[derive(Debug, Default)]
pub struct ChunkQueue {
    chunks: VecDeque<Bytes>,
    queued: usize,
}

impl ChunkQueue {
    /// An empty queue.
    pub fn new() -> Self {
        ChunkQueue::default()
    }

    /// Appends one chunk.
    pub fn push(&mut self, chunk: Bytes) {
        self.queued += chunk.len();
        self.chunks.push_back(chunk);
    }

    /// Removes and returns the front chunk.
    pub fn pop(&mut self) -> Option<Bytes> {
        let chunk = self.chunks.pop_front()?;
        self.queued -= chunk.len();
        Some(chunk)
    }

    /// Bytes queued across all chunks.
    pub fn pending_bytes(&self) -> usize {
        self.queued
    }

    /// True when no chunks are queued (zero-length chunks count until
    /// [`clear`](Self::clear) or a draining write removes them).
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Drops every queued chunk.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.queued = 0;
    }

    /// Fills `slices` with views of the front non-empty chunks (at most
    /// `slices.len()`), returning how many were filled — the gather half
    /// of one vectored write.
    pub fn gather<'a>(&'a self, slices: &mut [IoSlice<'a>]) -> usize {
        let mut count = 0;
        for chunk in self
            .chunks
            .iter()
            .filter(|c| !c.is_empty())
            .take(slices.len())
        {
            slices[count] = IoSlice::new(&chunk[..]);
            count += 1;
        }
        count
    }

    /// Marks `n` queued bytes as written, consuming chunks front first;
    /// a chunk written halfway is sliced, not copied. Leading zero-length
    /// chunks (empty payload views) are swept along.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`pending_bytes`](Self::pending_bytes).
    pub fn advance(&mut self, mut n: usize) {
        assert!(n <= self.queued, "advance past the queued bytes");
        self.queued -= n;
        while n > 0 || self.chunks.front().is_some_and(|c| c.is_empty()) {
            let front = self.chunks.front_mut().expect("accounted chunks");
            if front.len() <= n {
                n -= front.len();
                self.chunks.pop_front();
            } else {
                let _ = front.split_to(n);
                n = 0;
            }
        }
    }

    /// Drains the whole queue into a blocking writer with vectored
    /// writes. On success the queue is empty (trailing zero-length
    /// chunks included).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors ([`std::io::ErrorKind::WriteZero`] for a
    /// writer that stops accepting bytes); only accepted bytes are
    /// consumed, so the unwritten tail stays queued.
    pub fn write_to<W: Write>(&mut self, mut w: W) -> std::io::Result<()> {
        while self.queued > 0 {
            let mut slices = [IoSlice::new(&[]); MAX_GATHER_SLICES];
            let count = self.gather(&mut slices);
            let n = w.write_vectored(&slices[..count])?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write the whole frame",
                ));
            }
            self.advance(n);
        }
        self.chunks.clear(); // zero-length payload chunks carry no bytes
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue_of(parts: &[&[u8]]) -> ChunkQueue {
        let mut q = ChunkQueue::new();
        for p in parts {
            q.push(Bytes::from(p.to_vec()));
        }
        q
    }

    #[test]
    fn push_pop_accounting() {
        let mut q = queue_of(&[b"abc", b"", b"de"]);
        assert_eq!(q.pending_bytes(), 5);
        assert!(!q.is_empty());
        assert_eq!(q.pop().unwrap(), Bytes::from(&b"abc"[..]));
        assert_eq!(q.pending_bytes(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pending_bytes(), 0);
    }

    #[test]
    fn gather_skips_empty_chunks_and_caps_at_slice_count() {
        let mut q = ChunkQueue::new();
        q.push(Bytes::new());
        for i in 0..MAX_GATHER_SLICES + 4 {
            q.push(Bytes::from(vec![i as u8]));
        }
        let mut slices = [IoSlice::new(&[]); MAX_GATHER_SLICES];
        let count = q.gather(&mut slices);
        assert_eq!(count, MAX_GATHER_SLICES);
        assert_eq!(&slices[0][..], &[0u8]);
    }

    #[test]
    fn advance_slices_partial_chunks() {
        let mut q = queue_of(&[b"abcd", b"efgh"]);
        q.advance(6);
        assert_eq!(q.pending_bytes(), 2);
        assert_eq!(q.pop().unwrap(), Bytes::from(&b"gh"[..]));
    }

    #[test]
    fn advance_sweeps_leading_empties() {
        let mut q = ChunkQueue::new();
        q.push(Bytes::from(vec![1, 2]));
        q.push(Bytes::new());
        q.push(Bytes::from(vec![3]));
        q.advance(2);
        // The empty chunk behind the consumed one is swept too.
        assert_eq!(q.pop().unwrap(), Bytes::from(vec![3]));
    }

    #[test]
    #[should_panic(expected = "advance past")]
    fn advance_past_queue_panics() {
        queue_of(&[b"ab"]).advance(3);
    }

    #[test]
    fn write_to_drains_through_short_writers() {
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
        let mut q = queue_of(&[b"hello", b"", b" world"]);
        let mut sink = OneByte(Vec::new());
        q.write_to(&mut sink).unwrap();
        assert_eq!(sink.0, b"hello world");
        assert!(q.is_empty());
        assert_eq!(q.pending_bytes(), 0);
    }

    #[test]
    fn write_zero_surfaces_and_preserves_tail() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut q = queue_of(&[b"abc"]);
        let err = q.write_to(Dead).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
        assert_eq!(q.pending_bytes(), 3, "nothing consumed");
    }
}
