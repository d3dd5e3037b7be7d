//! Compact struct-of-arrays peer store for the amplification engine.
//!
//! The legacy simulator keeps one heap object per peer (`PeerRec` with a
//! `Vec`-backed admission vector inside a `BTreeMap`); at 10⁶ peers that
//! is millions of small allocations and pointer-chasing on every event.
//! This store flattens every peer field into parallel fixed-width arrays
//! (~40 bytes per peer, zero per-peer allocations) and packs the §4.1
//! admission vector into a single `u64` — one 4-bit exponent nibble per
//! class, valid because exponents are bounded by
//! `PeerClass::MAX - 1 = 15`.

use p2ps_core::admission::Protocol;

/// Sentinel for "no peer" in `u32` peer-id slots.
pub const NONE_U32: u32 = u32::MAX;

/// Peer lifecycle states (paper §2(1): requesting → streaming →
/// supplying, plus the churn extension's departure).
pub mod state {
    /// Waiting to be admitted (pre-arrival or backing off).
    pub const WAITING: u8 = 0;
    /// Streaming from granted suppliers.
    pub const STREAMING: u8 = 1;
    /// Serving as a supplier.
    pub const SUPPLYING: u8 = 2;
    /// Left the system.
    pub const DEPARTED: u8 = 3;
}

/// Peer flag bits (the `flags` array).
pub mod flags {
    /// Supplier is mid-session.
    pub const BUSY: u8 = 1;
    /// A favored-class request arrived during the current session.
    pub const SAW_FAVORED: u8 = 2;
    /// Departure fired mid-session; leave at session end.
    pub const PENDING_DEPART: u8 = 4;
}

/// The §4.1 admission vector packed into one `u64`: the probability
/// `P_admit(class j) = 2^-e_j` stores its exponent `e_j ∈ 0..=15` in
/// nibble `j - 1`. All §4.1 updates (initialization, relaxation,
/// tightening) become a handful of shifts — no allocation, no bounds
/// checks beyond the class count.
///
/// Property-tested equivalent to
/// [`p2ps_core::admission::AdmissionVector`] (see the tests below).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackedVector(u64);

impl PackedVector {
    /// §4.1(a) initialization for a class-`own` supplier over
    /// `num_classes` classes: `e_j = max(j - own, 0)` under `DACp2p`,
    /// all zeros (`P = 1` everywhere) under `NDACp2p`.
    pub fn initial(own: u8, num_classes: u8, protocol: Protocol) -> Self {
        debug_assert!((1..=16).contains(&num_classes) && (1..=num_classes).contains(&own));
        let mut packed = 0u64;
        if protocol == Protocol::Dac {
            for j in 1..=num_classes {
                packed |= u64::from(j.saturating_sub(own).min(15)) << ((j - 1) * 4);
            }
        }
        PackedVector(packed)
    }

    /// The exponent `e` of `P_admit(class) = 2^-e`.
    pub fn exponent(self, class: u8) -> u8 {
        ((self.0 >> ((class - 1) * 4)) & 0xF) as u8
    }

    /// Whether `class` is currently favored (`P_admit = 1`).
    pub fn favors(self, class: u8) -> bool {
        self.exponent(class) == 0
    }

    /// The lowest (numerically largest) favored class. At least the
    /// supplier's own class is always favored.
    #[allow(dead_code)] // exercised by the equivalence tests
    pub fn lowest_favored(self, num_classes: u8) -> u8 {
        let mut lowest = 1;
        for j in 1..=num_classes {
            if self.favors(j) {
                lowest = j;
            }
        }
        lowest
    }

    /// One §4.1(b)/(c) relaxation step: every exponent decreases by one,
    /// saturating at zero.
    pub fn relax(&mut self, num_classes: u8) {
        self.relax_times(1, num_classes);
    }

    /// `steps` relaxation steps at once (lazy idle relaxation).
    pub fn relax_times(&mut self, steps: u64, num_classes: u8) {
        let steps = steps.min(15) as u8;
        let mut packed = self.0;
        let mut out = 0u64;
        for j in 0..num_classes {
            let e = (packed & 0xF) as u8;
            out |= u64::from(e.saturating_sub(steps)) << (j * 4);
            packed >>= 4;
        }
        self.0 = out;
    }

    /// §4.1(c) tightening around class `to`: the vector resets as if the
    /// supplier were of class `to`.
    pub fn tighten(&mut self, to: u8, num_classes: u8) {
        *self = PackedVector::initial(to, num_classes, Protocol::Dac);
    }

    /// The probabilistic admission test for a class-`class` request:
    /// true with probability `2^-e` given one uniform `draw`.
    pub fn decide(self, class: u8, draw: u64) -> bool {
        let mask = (1u64 << self.exponent(class)) - 1;
        draw & mask == 0
    }
}

/// One shard's struct-of-arrays peer state. Indexed by *local* peer
/// index; the engine maps global id `p` to shard `p % shards`, local
/// index `p / shards`. Every array is allocated once at setup — the
/// event loop never allocates per peer or per event.
#[derive(Debug, Default, PartialEq)]
pub struct PeerStore {
    /// Protocol class (1-based).
    pub class: Vec<u8>,
    /// Catalog item streamed/served (Zipf-assigned).
    pub item: Vec<u16>,
    /// Lifecycle state (see [`state`]).
    pub state: Vec<u8>,
    /// Flag bits (see [`flags`]).
    pub flags: Vec<u8>,
    /// Rejections suffered so far (drives backoff; saturating).
    pub rejections: Vec<u16>,
    /// Time of the first streaming request, seconds.
    pub first_request: Vec<u32>,
    /// Packed admission vector (valid while supplying).
    pub vector: Vec<PackedVector>,
    /// Last time idle relaxation was folded in, seconds.
    pub relax_anchor: Vec<u32>,
    /// Requester holding an uncommitted grant this boundary, or
    /// [`NONE_U32`].
    pub provisional: Vec<u32>,
    /// Highest (numerically smallest) reminder class this session;
    /// `0` = none.
    pub best_reminder: Vec<u8>,
    /// Per-peer SplitMix64 stream state: every random draw a peer makes
    /// comes from its own stream, so outcomes are independent of event
    /// interleaving across shards and threads.
    pub rng: Vec<u64>,
    /// Scratch of the boundary's requester round: a probing requester's
    /// reply count, then its write cursor into the grouped replies, then
    /// the end of its group. Meaningless outside that round.
    pub slot: Vec<u32>,
}

impl PeerStore {
    /// An empty store with room for `capacity` peers.
    pub fn with_capacity(capacity: usize) -> Self {
        PeerStore {
            class: Vec::with_capacity(capacity),
            item: Vec::with_capacity(capacity),
            state: Vec::with_capacity(capacity),
            flags: Vec::with_capacity(capacity),
            rejections: Vec::with_capacity(capacity),
            first_request: Vec::with_capacity(capacity),
            vector: Vec::with_capacity(capacity),
            relax_anchor: Vec::with_capacity(capacity),
            provisional: Vec::with_capacity(capacity),
            best_reminder: Vec::with_capacity(capacity),
            rng: Vec::with_capacity(capacity),
            slot: Vec::with_capacity(capacity),
        }
    }

    /// Number of peers in the store.
    pub fn len(&self) -> usize {
        self.class.len()
    }

    /// Whether the store holds no peers.
    #[allow(dead_code)] // exercised by the layout tests
    pub fn is_empty(&self) -> bool {
        self.class.is_empty()
    }

    /// Removes every peer, keeping all allocations.
    pub fn clear(&mut self) {
        self.class.clear();
        self.item.clear();
        self.state.clear();
        self.flags.clear();
        self.rejections.clear();
        self.first_request.clear();
        self.vector.clear();
        self.relax_anchor.clear();
        self.provisional.clear();
        self.best_reminder.clear();
        self.rng.clear();
        self.slot.clear();
    }

    /// Appends one peer and returns its local index.
    pub fn push(&mut self, class: u8, item: u16, state: u8, rng_state: u64) -> usize {
        let idx = self.len();
        self.class.push(class);
        self.item.push(item);
        self.state.push(state);
        self.flags.push(0);
        self.rejections.push(0);
        self.first_request.push(0);
        self.vector.push(PackedVector::default());
        self.relax_anchor.push(0);
        self.provisional.push(NONE_U32);
        self.best_reminder.push(0);
        self.rng.push(rng_state);
        self.slot.push(0);
        idx
    }

    /// Folds pending idle relaxation into `local`'s vector up to `now`
    /// (lazy §4.1(b), mirroring `SupplierState::sync`).
    pub fn sync_supplier(&mut self, local: usize, now: u32, t_out: u32, protocol: Protocol) {
        if protocol == Protocol::Ndac {
            self.relax_anchor[local] = now.max(self.relax_anchor[local]);
            return;
        }
        if self.flags[local] & flags::BUSY != 0 || t_out == 0 {
            return;
        }
        let anchor = self.relax_anchor[local];
        if now <= anchor {
            return;
        }
        let steps = u64::from((now - anchor) / t_out);
        if steps > 0 {
            let num_classes = 16; // relaxation is per-nibble; spare nibbles stay 0
            self.vector[local].relax_times(steps, num_classes);
            self.relax_anchor[local] = anchor + (steps as u32) * t_out;
        }
    }

    /// Approximate bytes of store state per peer (for capacity planning
    /// and the docs; excludes `Vec` headers).
    #[allow(dead_code)] // pinned by the layout tests, quoted in the docs
    pub const BYTES_PER_PEER: usize = 1 + 2 + 1 + 1 + 2 + 4 + 8 + 4 + 4 + 1 + 8 + 4;
}

/// Advances a SplitMix64 stream and returns the next draw — the
/// engine's only random primitive. One stream per peer keeps draws
/// independent of cross-shard interleaving.
#[inline]
pub fn rng_next(state: &mut u64) -> u64 {
    let draw = p2ps_core::splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    draw
}

/// A uniform draw in `[0, n)` from a SplitMix64 stream.
#[inline]
pub fn rng_range(state: &mut u64, n: u32) -> u32 {
    (rng_next(state) % u64::from(n)) as u32
}

/// A uniform draw in `[0, 1)` from a SplitMix64 stream.
#[inline]
pub fn rng_unit(state: &mut u64) -> f64 {
    (rng_next(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Derives the initial stream state for peer `id` under `seed`.
#[inline]
pub fn rng_stream(seed: u64, id: u64) -> u64 {
    let mut s = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    // One warm-up step decorrelates adjacent ids.
    rng_next(&mut s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2ps_core::admission::AdmissionVector;
    use p2ps_core::PeerClass;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn assert_equiv(packed: PackedVector, reference: &AdmissionVector, num_classes: u8) {
        for j in 1..=num_classes {
            let class = PeerClass::new(j).unwrap();
            assert_eq!(
                packed.exponent(j),
                reference.exponent(class),
                "exponent of class {j}"
            );
            assert_eq!(
                packed.favors(j),
                reference.favors(class),
                "favors of class {j}"
            );
        }
        assert_eq!(
            packed.lowest_favored(num_classes),
            reference.lowest_favored().get(),
            "lowest favored"
        );
    }

    #[test]
    fn initial_vectors_match_the_reference() {
        for num_classes in 1..=16u8 {
            for own in 1..=num_classes {
                let class = PeerClass::new(own).unwrap();
                let reference = AdmissionVector::initial(class, num_classes).unwrap();
                let packed = PackedVector::initial(own, num_classes, Protocol::Dac);
                assert_equiv(packed, &reference, num_classes);
                let ndac = PackedVector::initial(own, num_classes, Protocol::Ndac);
                let all_ones = AdmissionVector::all_ones(num_classes).unwrap();
                assert_equiv(ndac, &all_ones, num_classes);
            }
        }
    }

    #[test]
    fn random_update_sequences_stay_equivalent() {
        // Property test: arbitrary interleavings of relax / relax_times /
        // tighten keep the packed vector bit-equivalent to the reference
        // Vec<u8> implementation, across every class count.
        let mut rng = SmallRng::seed_from_u64(0x5045_4552);
        for _ in 0..500 {
            let num_classes = rng.gen_range(1u8..=16);
            let own = rng.gen_range(1..=num_classes);
            let mut reference =
                AdmissionVector::initial(PeerClass::new(own).unwrap(), num_classes).unwrap();
            let mut packed = PackedVector::initial(own, num_classes, Protocol::Dac);
            for _ in 0..40 {
                match rng.gen_range(0u8..3) {
                    0 => {
                        reference.relax();
                        packed.relax(num_classes);
                    }
                    1 => {
                        let steps = rng.gen_range(0u64..20);
                        reference.relax_times(steps);
                        packed.relax_times(steps, num_classes);
                    }
                    _ => {
                        let to = rng.gen_range(1..=num_classes);
                        reference.tighten(PeerClass::new(to).unwrap());
                        packed.tighten(to, num_classes);
                    }
                }
                assert_equiv(packed, &reference, num_classes);
            }
        }
    }

    #[test]
    fn decide_matches_the_reference_admission_probability() {
        // decide() with a uniform draw admits with probability 2^-e, the
        // same Bernoulli the reference implements with `rng & mask == 0`.
        let packed = PackedVector::initial(1, 4, Protocol::Dac);
        let mut state = rng_stream(42, 7);
        let trials = 200_000;
        let hits = (0..trials)
            .filter(|_| packed.decide(4, rng_next(&mut state)))
            .count() as f64;
        let freq = hits / f64::from(trials);
        assert!((freq - 0.125).abs() < 0.01, "freq {freq}"); // e = 3
        assert!(
            packed.decide(1, rng_next(&mut state)),
            "e = 0 always admits"
        );
    }

    #[test]
    fn sync_supplier_matches_lazy_relaxation() {
        use p2ps_core::admission::{Protocol, SupplierConfig, SupplierState};
        let t_out = 100u32;
        let cfg = SupplierConfig::new(4, u64::from(t_out), Protocol::Dac).unwrap();
        let mut reference = SupplierState::new(PeerClass::new(1).unwrap(), cfg, 0).unwrap();

        let mut store = PeerStore::with_capacity(1);
        store.push(1, 0, state::SUPPLYING, rng_stream(1, 0));
        store.vector[0] = PackedVector::initial(1, 4, Protocol::Dac);

        for now in [50u32, 250, 300, 1_000] {
            store.sync_supplier(0, now, t_out, Protocol::Dac);
            let ref_vec = reference.vector_at(u64::from(now)).clone();
            for j in 1..=4u8 {
                assert_eq!(
                    store.vector[0].exponent(j),
                    ref_vec.exponent(PeerClass::new(j).unwrap()),
                    "t={now} class {j}"
                );
            }
        }
    }

    #[test]
    fn store_push_and_layout() {
        let mut store = PeerStore::with_capacity(4);
        assert!(store.is_empty());
        let a = store.push(1, 0, state::SUPPLYING, 7);
        let b = store.push(3, 2, state::WAITING, 9);
        assert_eq!((a, b), (0, 1));
        assert_eq!(store.len(), 2);
        assert_eq!(store.class[1], 3);
        assert_eq!(store.item[1], 2);
        assert_eq!(store.provisional[0], NONE_U32);
        // The compactness claim the engine's memory budget rests on.
        const { assert!(PeerStore::BYTES_PER_PEER <= 40) };
    }

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let mut a = rng_stream(42, 1);
        let mut b = rng_stream(42, 1);
        let mut c = rng_stream(42, 2);
        let mut diff = 0;
        for _ in 0..100 {
            let (x, y, z) = (rng_next(&mut a), rng_next(&mut b), rng_next(&mut c));
            assert_eq!(x, y);
            if x != z {
                diff += 1;
            }
        }
        assert!(diff > 90);
        let mut s = rng_stream(1, 1);
        for _ in 0..1_000 {
            let r = rng_range(&mut s, 10);
            assert!(r < 10);
            let u = rng_unit(&mut s);
            assert!((0.0..1.0).contains(&u));
        }
    }
}
