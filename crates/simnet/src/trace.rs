//! Run tracing: a rolling digest of everything that happened, folded one
//! 64-bit word per step.
//!
//! Every event the simulation processes — chunk deliveries, decoded
//! messages, deaths, replans, the final outcome — folds its salient
//! fields into one 64-bit [`TraceHasher`]. Two runs of the same
//! [`Schedule`](crate::Schedule) must produce the *same* digest: that is
//! the harness's determinism contract, asserted by the seed sweep on
//! every seed it visits.
//!
//! A record is a header word — its kind, its field count and any narrow
//! fields (a lane, a direction, a code) packed without loss — followed
//! by one word per wide field (a time, an index, a length). Each word
//! goes through one step `h ← g((h ⊕ w) · M)`, where `M` is odd and
//! `g(y) = y ⊕ (y ≫ 32)`. Both the multiply and `g` are bijections of
//! the state, so for a fixed word a step is a bijection of `h`, and for
//! a fixed `h` it is injective in the word. Two traces of equal length
//! that differ in one field therefore differ in one word, and that
//! difference survives every later step: they can never give the same
//! digest. Only a difference in two or more places can cancel, with the
//! odds of any 64-bit collision.

/// Rolling 64-bit word-fold digest of a simulation run.
#[derive(Debug, Clone)]
pub struct TraceHasher {
    h: u64,
    records: u64,
}

/// The empty trace's digest (FNV-1a's offset basis; any constant would
/// do).
const SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// The step's odd multiplier (MurmurHash3's first `fmix64` constant).
const MUL: u64 = 0xff51_afd7_ed55_8ccd;
/// Bits of the header word below the narrow fields: kind, field count.
const NARROW_SHIFT: u32 = 16;

impl TraceHasher {
    /// An empty trace.
    pub fn new() -> Self {
        TraceHasher {
            h: SEED,
            records: 0,
        }
    }

    /// Folds one word: one multiply on the dependency chain.
    #[inline]
    fn fold(&mut self, w: u64) {
        let y = (self.h ^ w).wrapping_mul(MUL);
        self.h = y ^ (y >> 32);
    }

    /// Folds one trace record: a header word packing `kind` (bits 0–7),
    /// the number of `fields` (8–15) and `narrow` (16–63), then each of
    /// `fields` as one word. Counts toward [`records`](Self::records).
    ///
    /// # Panics
    ///
    /// If `narrow` needs more than 48 bits or there are more than 255
    /// fields: the header would no longer pack them without loss.
    #[inline]
    pub fn record(&mut self, kind: u8, narrow: u64, fields: &[u64]) {
        assert!(
            narrow >> (64 - NARROW_SHIFT) == 0 && fields.len() <= 0xff,
            "trace record does not fit its header word"
        );
        self.records += 1;
        self.fold(u64::from(kind) | ((fields.len() as u64) << 8) | (narrow << NARROW_SHIFT));
        for &f in fields {
            self.fold(f);
        }
    }

    /// Number of records folded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The current digest value.
    pub fn digest(&self) -> u64 {
        self.h
    }
}

impl Default for TraceHasher {
    fn default() -> Self {
        TraceHasher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(kind, narrow, fields)`.
    type Rec = (u8, u64, Vec<u64>);

    fn digest(trace: &[Rec]) -> u64 {
        let mut h = TraceHasher::new();
        for (kind, narrow, fields) in trace {
            h.record(*kind, *narrow, fields);
        }
        h.digest()
    }

    #[test]
    fn identical_records_give_identical_digests() {
        let mut a = TraceHasher::new();
        let mut b = TraceHasher::new();
        for h in [&mut a, &mut b] {
            h.record(1, 0, &[2, 3]);
            h.record(4, 7, &[5]);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.records(), 2);
    }

    #[test]
    fn order_and_fields_change_the_digest() {
        let mut a = TraceHasher::new();
        a.record(1, 0, &[2]);
        a.record(3, 0, &[4]);
        let mut b = TraceHasher::new();
        b.record(3, 0, &[4]);
        b.record(1, 0, &[2]);
        assert_ne!(a.digest(), b.digest(), "order must matter");

        let mut c = TraceHasher::new();
        c.record(1, 0, &[2]);
        c.record(3, 0, &[5]);
        assert_ne!(a.digest(), c.digest(), "fields must matter");
    }

    #[test]
    fn record_boundaries_are_in_the_digest() {
        let mut one = TraceHasher::new();
        one.record(1, 0, &[2, 3]);
        let mut two = TraceHasher::new();
        two.record(1, 0, &[2]);
        two.record(3, 0, &[]);
        assert_ne!(one.digest(), two.digest());

        // The same words split between the narrow and the wide part.
        let mut narrow = TraceHasher::new();
        narrow.record(1, 5, &[]);
        let mut wide = TraceHasher::new();
        wide.record(1, 0, &[5]);
        assert_ne!(narrow.digest(), wide.digest());
    }

    /// Every single-field change of a 64-record trace, to several
    /// values, moves the digest — what the bijective steps guarantee.
    #[test]
    fn flipping_any_single_field_changes_the_digest() {
        let trace: Vec<Rec> = (0..64u64)
            .map(|i| {
                let wide = (0..i % 4).map(|j| i * 1_000 + j).collect();
                ((i % 12 + 1) as u8, ((i % 8) << 8) | (i % 2), wide)
            })
            .collect();
        let base = digest(&trace);
        let alternatives = |v: u64, max: u64| {
            [v ^ 1, v ^ (max >> 1), v.wrapping_add(1) & max, 0, max]
                .into_iter()
                .filter(move |&w| w != v)
        };
        let mut checked = 0;
        for i in 0..trace.len() {
            let (kind, narrow, ref fields) = trace[i];
            let mut flips: Vec<Rec> = Vec::new();
            for k in alternatives(u64::from(kind), 0xff) {
                flips.push((k as u8, narrow, fields.clone()));
            }
            for n in alternatives(narrow, (1 << 48) - 1) {
                flips.push((kind, n, fields.clone()));
            }
            for (j, &f) in fields.iter().enumerate() {
                for v in alternatives(f, u64::MAX) {
                    let mut changed = fields.clone();
                    changed[j] = v;
                    flips.push((kind, narrow, changed));
                }
            }
            for flip in flips {
                let mut t = trace.clone();
                t[i] = flip;
                assert_ne!(digest(&t), base, "record {i} changed to {:?}", t[i]);
                checked += 1;
            }
        }
        assert!(checked > 700, "only {checked} flips");
    }

    /// A literal pin of the fold itself, apart from the simulation's
    /// `pinned_runs` digests: a change to the step, the header layout or
    /// the constants moves it.
    #[test]
    fn a_three_record_digest_is_pinned() {
        let mut h = TraceHasher::new();
        h.record(2, (3 << 8) | 1, &[4_000, 17]);
        h.record(12, 5, &[4_000, 1, 9]);
        h.record(9, 1, &[]);
        assert_eq!(h.digest(), 0x5457_1928_e56d_6efd);
    }

    #[test]
    fn empty_trace_is_the_fnv_offset() {
        assert_eq!(TraceHasher::new().digest(), 0xcbf2_9ce4_8422_2325);
    }
}
