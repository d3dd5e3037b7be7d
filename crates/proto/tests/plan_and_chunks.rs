//! Edge-case units for the two small shared engines the whole stack
//! leans on: `SessionPlan`'s wire expansion rule
//! (`expanded`/`is_explicit`) and `ChunkQueue`'s partial-advance
//! arithmetic around a gather window.

use std::io::IoSlice;

use bytes::Bytes;

use p2ps_proto::{ChunkQueue, SessionPlan, MAX_GATHER_SLICES};

fn plan(segments: Vec<u32>, period: u32, total: u64) -> SessionPlan {
    SessionPlan {
        item: "clip".into(),
        segments,
        period,
        total_segments: total,
        dt_ms: 10,
    }
}

// ---- SessionPlan::expanded / is_explicit -------------------------------

#[test]
fn empty_plan_expands_to_nothing() {
    let p = plan(vec![], 4, 16);
    assert_eq!(p.expanded().count(), 0);
    assert_eq!(p.nth_segment(0), None);
}

#[test]
fn explicit_plan_yields_segments_once_verbatim() {
    // period == total_segments ⇒ explicit one-shot plan.
    let p = plan(vec![2, 5, 11], 16, 16);
    assert!(p.is_explicit());
    assert_eq!(p.expanded().collect::<Vec<_>>(), vec![2, 5, 11]);
}

#[test]
fn periodic_plan_repeats_with_period_offsets_until_total() {
    // Class-2 share of a 10-segment file: segment 1 of every period of 4.
    let p = plan(vec![1, 2], 4, 10);
    assert!(!p.is_explicit());
    assert_eq!(p.expanded().collect::<Vec<_>>(), vec![1, 2, 5, 6, 9]);
}

#[test]
fn expansion_ends_at_first_out_of_range_segment() {
    // Period 4 over 6 segments: the second period's `4 + 3 = 7` is out of
    // range and ends the session even though `4 + 1 = 5` would fit after.
    let p = plan(vec![3, 1], 4, 6);
    assert_eq!(p.expanded().collect::<Vec<_>>(), vec![3, 1]);
}

#[test]
fn single_segment_plan_strides_by_period() {
    let p = plan(vec![0], 2, 7);
    assert_eq!(p.expanded().collect::<Vec<_>>(), vec![0, 2, 4, 6]);
}

#[test]
fn zero_total_segments_is_explicit_for_period_one() {
    // `is_explicit` floors the file length at one segment, so the
    // degenerate empty-file plan (period 1, total 0) counts as explicit
    // and expands to nothing.
    let p = plan(vec![0], 1, 0);
    assert!(p.is_explicit());
    assert_eq!(p.expanded().count(), 0);
}

#[test]
fn is_explicit_is_exact_on_the_period() {
    assert!(plan(vec![0], 8, 8).is_explicit());
    assert!(!plan(vec![0], 4, 8).is_explicit());
    assert!(!plan(vec![0], 16, 8).is_explicit());
}

// ---- ChunkQueue partial advance around the gather limit ----------------

fn queue_of(parts: &[&[u8]]) -> ChunkQueue {
    let mut q = ChunkQueue::new();
    for p in parts {
        q.push(Bytes::from(p.to_vec()));
    }
    q
}

#[test]
fn advance_zero_on_empty_queue_is_a_no_op() {
    let mut q = ChunkQueue::new();
    q.advance(0);
    assert!(q.is_empty());
    assert_eq!(q.pending_bytes(), 0);
}

#[test]
fn single_chunk_advances_byte_by_byte() {
    let mut q = queue_of(&[b"abcde"]);
    for left in (0..5usize).rev() {
        q.advance(1);
        assert_eq!(q.pending_bytes(), left);
    }
    assert!(q.is_empty());
}

#[test]
fn partial_advance_straddling_a_chunk_boundary() {
    let mut q = queue_of(&[b"abc", b"defg"]);
    // Consume the whole front chunk plus one byte of the next in one go.
    q.advance(4);
    assert_eq!(q.pending_bytes(), 3);
    let mut slices = [IoSlice::new(&[]); MAX_GATHER_SLICES];
    let n = q.gather(&mut slices);
    assert_eq!(n, 1);
    assert_eq!(&slices[0][..], b"efg");
}

#[test]
fn gather_caps_at_sixteen_slices_and_wraps_on_advance() {
    // 20 one-byte chunks into a 16-slice window (`gather` caps at the
    // array it is handed, whatever `MAX_GATHER_SLICES` is): a full
    // vectored write gathers only the first 16; advancing past them
    // exposes the remaining 4 on the next pass — the wrap the reactor's
    // flush loop performs.
    const WINDOW: usize = 16;
    let mut q = ChunkQueue::new();
    for i in 0..20u8 {
        q.push(Bytes::from(vec![i]));
    }
    let mut slices = [IoSlice::new(&[]); WINDOW];
    let first = q.gather(&mut slices);
    assert_eq!(first, WINDOW);
    let gathered: usize = slices[..first].iter().map(|s| s.len()).sum();
    q.advance(gathered);
    assert_eq!(q.pending_bytes(), 4);

    let mut slices = [IoSlice::new(&[]); WINDOW];
    let second = q.gather(&mut slices);
    assert_eq!(second, 4);
    let tail: Vec<u8> = slices[..second].iter().map(|s| s[0]).collect();
    assert_eq!(tail, vec![16, 17, 18, 19]);
}

#[test]
fn partial_advance_inside_the_gather_window() {
    // A short write that lands mid-chunk: whole front chunks go, the
    // split chunk's tail stays at the front of the next gather.
    let mut q = queue_of(&[b"aa", b"bb", b"cc", b"dd"]);
    q.advance(5); // "aa" + "bb" + first byte of "cc"
    assert_eq!(q.pending_bytes(), 3);
    let mut slices = [IoSlice::new(&[]); MAX_GATHER_SLICES];
    let n = q.gather(&mut slices);
    assert_eq!(n, 2);
    assert_eq!(&slices[0][..], b"c");
    assert_eq!(&slices[1][..], b"dd");
}

#[test]
fn empty_chunks_are_invisible_to_gather_but_swept_by_advance() {
    let mut q = ChunkQueue::new();
    q.push(Bytes::new());
    q.push(Bytes::from(vec![1]));
    q.push(Bytes::new());
    q.push(Bytes::from(vec![2]));
    let mut slices = [IoSlice::new(&[]); MAX_GATHER_SLICES];
    let n = q.gather(&mut slices);
    assert_eq!(n, 2, "gather skips empty chunks");
    q.advance(1);
    // The leading empty, the consumed chunk and the empty behind it are
    // all gone; only the last byte remains.
    assert_eq!(q.pop().unwrap(), Bytes::from(vec![2]));
    assert!(q.is_empty());
}
