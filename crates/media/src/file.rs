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
/// Segment `i`'s payload is a keyed xorshift stream: its seed folds the
/// file name and `i`, and each step of the stream gives the next eight
/// bytes, little-endian (the last step of a segment is cut to
/// `segment_bytes % 8` bytes).
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
    ///
    /// One xorshift chain waits on its own last shift at every step, so
    /// the file is written four segments at a time: their streams
    /// advance in lockstep, four independent chains, and every step
    /// stores a whole `u64` into the file's one allocation. The file is
    /// reserved once and each group of four segments is zeroed just
    /// before its streams overwrite it, while it is still in cache; the
    /// last `segment_count % 4` segments run one stream each.
    pub fn synthesize(info: MediaInfo) -> Self {
        let segment_bytes = info.segment_bytes as usize;
        let key = name_key(&info.name);
        let mut data = Vec::with_capacity(info.total_bytes() as usize);
        let mut index = 0;
        while index < info.segment_count {
            let lanes = (info.segment_count - index).min(LANES as u64) as usize;
            let start = data.len();
            data.resize(start + lanes * segment_bytes, 0);
            let group = &mut data[start..];
            if lanes == LANES {
                let seeds = std::array::from_fn(|j| segment_seed(key, index + j as u64));
                fill_streams::<LANES>(group, segment_bytes, seeds);
            } else {
                for (j, segment) in group.chunks_exact_mut(segment_bytes).enumerate() {
                    fill_streams(
                        segment,
                        segment_bytes,
                        [segment_seed(key, index + j as u64)],
                    );
                }
            }
            index += lanes as u64;
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

/// Segments whose streams [`MediaFile::synthesize`] advances in lockstep.
const LANES: usize = 4;

/// The file name folded FNV-style (the FNV offset basis, xor then
/// multiply) but with this crate's own multiplier `0x1000_0000_01b3`,
/// which is *not* the FNV-1a prime `0x0000_0100_0000_01b3`. Every
/// synthesized payload byte depends on it, and two tests hold it in
/// place: `synthesize_writes_the_reference_bytes` compares every byte
/// with the reference formula below, and `a_small_file_keeps_its_pinned_bytes`
/// pins one file's bytes as a literal. Do not "correct" the multiplier,
/// and do not share a hasher with the real FNV-1a users.
fn name_key(name: &str) -> u64 {
    let mut key: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        key = (key ^ *b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    key
}

/// Seed of segment `index`'s stream (never 0, xorshift's fixed point).
fn segment_seed(key: u64, index: u64) -> u64 {
    match key ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15) {
        0 => 1,
        seed => seed,
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Writes `N` consecutive segments of `segment_bytes` each into `group`,
/// segment `j` from the stream seeded `seeds[j]`. The `N` streams step
/// together, one word of every segment per round.
fn fill_streams<const N: usize>(group: &mut [u8], segment_bytes: usize, seeds: [u64; N]) {
    let mut segments = group.chunks_exact_mut(segment_bytes);
    let mut words: [_; N] = std::array::from_fn(|_| {
        segments
            .next()
            .expect("a group holds N segments")
            .chunks_exact_mut(8)
    });
    let mut x = seeds;
    for _ in 0..segment_bytes / 8 {
        for (stream, words) in x.iter_mut().zip(&mut words) {
            *stream = xorshift(*stream);
            let word = words
                .next()
                .expect("a segment holds segment_bytes / 8 words");
            word.copy_from_slice(&stream.to_le_bytes());
        }
    }
    for (stream, words) in x.into_iter().zip(words) {
        let tail = words.into_remainder();
        let len = tail.len();
        tail.copy_from_slice(&xorshift(stream).to_le_bytes()[..len]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Today's formula, kept one word at a time as the oracle that
    /// [`MediaFile::synthesize`]'s four-stream kernel must match byte for
    /// byte: segment `index`'s payload appended to `out`.
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

    /// The whole file by the reference formula.
    fn reference(info: &MediaInfo) -> Vec<u8> {
        let mut data = Vec::new();
        for i in 0..info.segment_count {
            synthesize_payload_into(info, i, &mut data);
        }
        data
    }

    proptest::proptest! {
        /// The four-stream kernel writes the reference's bytes for any
        /// name, group remainder and word tail.
        #[test]
        fn synthesize_writes_the_reference_bytes(
            name in "[a-zA-Z0-9 _.-]{0,24}",
            segments in 1u64..=40,
            bytes in 1u32..=300,
        ) {
            let info = MediaInfo::new(name, segments, SegmentDuration::from_millis(10), bytes);
            proptest::prop_assert_eq!(&MediaFile::synthesize(info.clone()).data[..], &reference(&info)[..]);
        }
    }

    #[test]
    fn every_residue_and_the_bulk_shape_match_the_reference() {
        let grid =
            (1..=40).flat_map(|segments| (1..=300).map(move |bytes| ("grid", segments, bytes)));
        for (name, segments, bytes) in grid.chain([("bulk", 64, 65_536)]) {
            let info = MediaInfo::new(name, segments, SegmentDuration::from_millis(10), bytes);
            assert!(
                MediaFile::synthesize(info.clone()).data[..] == reference(&info)[..],
                "{segments} x {bytes} B differs from the reference"
            );
        }
    }

    /// Five 11-byte segments of file `pin`, computed with the formula the
    /// reference keeps: a four-segment group, a one-segment remainder and
    /// a 3-byte tail per segment. Fails if kernel and reference are ever
    /// changed together.
    #[test]
    fn a_small_file_keeps_its_pinned_bytes() {
        let info = MediaInfo::new("pin", 5, SegmentDuration::from_millis(10), 11);
        let pinned = [
            "429e20c13fd32b8cfe0fb1",
            "efd3d3ca91a43050886fdf",
            "1805c6d6633c1d3412cf6d",
            "55bb7037914ea351632f9c",
            "f6a8edee870d46fe278e0a",
        ];
        let file = MediaFile::synthesize(info);
        assert_eq!(file.iter().count(), pinned.len());
        for (segment, hex) in file.iter().zip(pinned) {
            let got: String = segment
                .payload()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(got, hex, "segment {}", segment.index());
        }
    }

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
