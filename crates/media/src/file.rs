//! Media file metadata and synthetic content.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use p2ps_core::assignment::SegmentDuration;

use crate::Segment;

/// Metadata of a CBR media file (paper §2(5)): equal-size sequential
/// segments, each playing for `δt`.
///
/// # Examples
///
/// ```
/// use p2ps_media::MediaInfo;
/// use p2ps_core::assignment::SegmentDuration;
///
/// // The paper's video: a 60-minute show. With δt = 1 s that is 3600
/// // segments.
/// let info = MediaInfo::new("show", 3_600, SegmentDuration::from_secs(1), 64 * 1024);
/// assert_eq!(info.duration().as_secs(), 3_600);
/// assert_eq!(info.total_bytes(), 3_600 * 64 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MediaInfo {
    name: String,
    segment_count: u64,
    segment_duration: SegmentDuration,
    segment_bytes: u32,
}

impl MediaInfo {
    /// Describes a media file.
    ///
    /// # Panics
    ///
    /// Panics if `segment_count == 0` or `segment_bytes == 0` — an empty
    /// media file cannot be streamed.
    pub fn new(
        name: impl Into<String>,
        segment_count: u64,
        segment_duration: SegmentDuration,
        segment_bytes: u32,
    ) -> Self {
        assert!(segment_count > 0, "media file needs at least one segment");
        assert!(segment_bytes > 0, "segments must carry payload");
        MediaInfo {
            name: name.into(),
            segment_count,
            segment_duration,
            segment_bytes,
        }
    }

    /// Human-readable name of the media item.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of segments.
    pub fn segment_count(&self) -> u64 {
        self.segment_count
    }

    /// Playback duration `δt` of each segment.
    pub fn segment_duration(&self) -> SegmentDuration {
        self.segment_duration
    }

    /// Payload size of each segment in bytes (CBR: all equal).
    pub fn segment_bytes(&self) -> u32 {
        self.segment_bytes
    }

    /// Total playback duration of the file.
    pub fn duration(&self) -> std::time::Duration {
        std::time::Duration::from_millis(self.segment_duration.as_millis() * self.segment_count)
    }

    /// Total payload size of the file in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.segment_count * self.segment_bytes as u64
    }
}

/// A fully materialized media file with deterministic synthetic content.
///
/// Payload bytes are generated from the file name and segment index, so
/// any peer can validate that what it received is exactly what the origin
/// would have produced — the integration tests use this to prove
/// end-to-end integrity of the streaming path.
///
/// The whole file lives in **one contiguous [`Bytes`] allocation**;
/// [`segment`](MediaFile::segment) hands out O(1) shared sub-views of it.
/// Cloning a `MediaFile` is therefore O(1) too — a supplier can snapshot
/// the file per session without duplicating payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediaFile {
    info: MediaInfo,
    /// Segment `i` occupies `i*segment_bytes .. (i+1)*segment_bytes`.
    data: Bytes,
}

impl MediaFile {
    /// Synthesizes the file contents for `info`.
    pub fn synthesize(info: MediaInfo) -> Self {
        let mut data = Vec::with_capacity(info.total_bytes() as usize);
        for i in 0..info.segment_count {
            synthesize_payload_into(&info, i, &mut data);
        }
        MediaFile {
            info,
            data: Bytes::from(data),
        }
    }

    /// Reassembles a file from received segments (the path a requesting
    /// peer takes after a streaming session: "playback *and store*").
    ///
    /// Returns `None` unless the store holds every segment of `info` with
    /// the exact segment size — an incomplete or corrupt download must not
    /// be re-served to other peers.
    pub fn from_store(info: MediaInfo, store: &crate::SegmentStore) -> Option<Self> {
        if store.expected() != info.segment_count || !store.is_complete() {
            return None;
        }
        // Compact the received segments into one contiguous allocation
        // (one copy at reassembly) so that re-serving the file later hands
        // out O(1) views like a synthesized original.
        let mut data = Vec::with_capacity(info.total_bytes() as usize);
        for i in 0..info.segment_count {
            let payload = store.get(i)?;
            if payload.len() != info.segment_bytes as usize {
                return None;
            }
            data.extend_from_slice(payload);
        }
        Some(MediaFile {
            info,
            data: Bytes::from(data),
        })
    }

    /// The file's metadata.
    pub fn info(&self) -> &MediaInfo {
        &self.info
    }

    /// Segment `index` as an owned [`Segment`] whose payload is an O(1)
    /// shared view into the file's single allocation — no payload bytes
    /// are copied, however large the segment.
    ///
    /// # Examples
    ///
    /// ```
    /// use p2ps_media::{MediaFile, MediaInfo};
    /// use p2ps_core::assignment::SegmentDuration;
    ///
    /// let info = MediaInfo::new("demo", 4, SegmentDuration::from_millis(250), 1_024);
    /// let file = MediaFile::synthesize(info);
    /// let a = file.segment(2);
    /// let b = file.segment(2);
    /// // Both segments view the same bytes of the same allocation.
    /// assert_eq!(a.payload().as_ptr(), b.payload().as_ptr());
    /// assert_eq!(a.payload().len(), 1_024);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `index >= segment_count`.
    pub fn segment(&self, index: u64) -> Segment {
        Segment::new(index, self.data.slice(self.payload_range(index)))
    }

    fn payload_range(&self, index: u64) -> std::ops::Range<usize> {
        assert!(
            index < self.info.segment_count,
            "segment index out of range"
        );
        let sz = self.info.segment_bytes as usize;
        let start = index as usize * sz;
        start..start + sz
    }

    /// Iterates over all segments in order.
    pub fn iter(&self) -> impl Iterator<Item = Segment> + '_ {
        (0..self.info.segment_count).map(|i| self.segment(i))
    }

    /// Verifies that `segment` carries exactly the payload this file would
    /// produce for its index.
    pub fn verify(&self, segment: &Segment) -> bool {
        segment.index() < self.info.segment_count
            && self.data[self.payload_range(segment.index())] == segment.payload()[..]
    }
}

/// Deterministic per-segment payload appended to `out`: a keyed xorshift
/// stream seeded from the file name and segment index.
///
/// The name is folded FNV-style (the FNV offset basis, xor then
/// multiply) but with this crate's own multiplier `0x1000_0000_01b3`,
/// which is *not* the FNV-1a prime `0x0000_0100_0000_01b3`. Every
/// synthesized payload byte depends on it and the pinned simnet digests
/// (`crates/simnet/tests/pinned_runs.rs`) hold it in place: do not
/// "correct" it, and do not share a hasher with the real FNV-1a users.
fn synthesize_payload_into(info: &MediaInfo, index: u64, out: &mut Vec<u8>) {
    let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
    for b in info.name.as_bytes() {
        seed = (seed ^ *b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    seed ^= index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    if seed == 0 {
        seed = 1;
    }
    let target = out.len() + info.segment_bytes as usize;
    let mut x = seed;
    while out.len() < target {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let need = target - out.len();
        out.extend_from_slice(&x.to_le_bytes()[..need.min(8)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> MediaInfo {
        MediaInfo::new("test", 8, SegmentDuration::from_millis(100), 256)
    }

    #[test]
    fn metadata_accessors() {
        let i = info();
        assert_eq!(i.name(), "test");
        assert_eq!(i.segment_count(), 8);
        assert_eq!(i.segment_bytes(), 256);
        assert_eq!(i.duration(), std::time::Duration::from_millis(800));
        assert_eq!(i.total_bytes(), 2048);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_file_panics() {
        let _ = MediaInfo::new("x", 0, SegmentDuration::from_millis(1), 1);
    }

    #[test]
    #[should_panic(expected = "carry payload")]
    fn zero_byte_segments_panic() {
        let _ = MediaInfo::new("x", 1, SegmentDuration::from_millis(1), 0);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = MediaFile::synthesize(info());
        let b = MediaFile::synthesize(info());
        assert_eq!(a, b);
        for i in 0..8 {
            assert_eq!(a.segment(i), b.segment(i));
        }
    }

    #[test]
    fn different_files_differ() {
        let a = MediaFile::synthesize(info());
        let other = MediaInfo::new("other", 8, SegmentDuration::from_millis(100), 256);
        let b = MediaFile::synthesize(other);
        assert_ne!(a.segment(0).payload(), b.segment(0).payload());
    }

    #[test]
    fn segments_differ_from_each_other() {
        let f = MediaFile::synthesize(info());
        assert_ne!(f.segment(0).payload(), f.segment(1).payload());
    }

    #[test]
    fn verify_accepts_own_segments_and_rejects_forgeries() {
        let f = MediaFile::synthesize(info());
        let s = f.segment(5);
        assert!(f.verify(&s));
        let forged = Segment::new(5, Bytes::from(vec![0u8; 256]));
        assert!(!f.verify(&forged));
        let out_of_range = Segment::new(99, s.payload().clone());
        assert!(!f.verify(&out_of_range));
    }

    #[test]
    fn iter_yields_all_segments_in_order() {
        let f = MediaFile::synthesize(info());
        let indices: Vec<u64> = f.iter().map(|s| s.index()).collect();
        assert_eq!(indices, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn from_store_round_trips() {
        use crate::SegmentStore;
        let f = MediaFile::synthesize(info());
        let mut store = SegmentStore::new(8);
        for s in f.iter() {
            store.insert(s);
        }
        let rebuilt = MediaFile::from_store(info(), &store).unwrap();
        assert_eq!(rebuilt, f);
    }

    #[test]
    fn from_store_rejects_incomplete_or_corrupt() {
        use crate::SegmentStore;
        let f = MediaFile::synthesize(info());
        let mut store = SegmentStore::new(8);
        for s in f.iter().take(7) {
            store.insert(s);
        }
        assert!(MediaFile::from_store(info(), &store).is_none());
        // wrong-size payload
        store.insert(Segment::new(7, Bytes::from_static(b"short")));
        assert!(MediaFile::from_store(info(), &store).is_none());
        // wrong expected count
        let empty = SegmentStore::new(9);
        assert!(MediaFile::from_store(info(), &empty).is_none());
    }

    #[test]
    fn segments_are_views_not_copies() {
        // The zero-copy contract: every segment (and every clone of the
        // file) points into the file's single allocation.
        let f = MediaFile::synthesize(info());
        let base = f.data.as_ptr();
        for i in 0..8 {
            let s = f.segment(i);
            assert_eq!(
                s.payload().as_ptr(),
                base.wrapping_add(i as usize * 256),
                "segment {i} must be a view into the file allocation"
            );
            let copy = s.clone();
            assert_eq!(copy.payload().as_ptr(), s.payload().as_ptr());
        }
        let snapshot = f.clone();
        assert_eq!(snapshot.data.as_ptr(), base, "cloning the file is O(1)");
    }

    #[test]
    fn payload_sizes_are_exact() {
        let odd = MediaInfo::new("odd", 2, SegmentDuration::from_millis(1), 13);
        let f = MediaFile::synthesize(odd);
        assert_eq!(f.segment(0).payload().len(), 13);
        assert_eq!(f.segment(1).payload().len(), 13);
    }
}
