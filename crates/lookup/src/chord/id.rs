//! Identifiers on the Chord circle.

use p2ps_core::{splitmix64, PeerId};
use serde::{Deserialize, Serialize};

/// A position on the Chord identifier circle (64-bit identifier space).
///
/// Both nodes and keys hash onto the same circle; a key is owned by its
/// *successor* — the first node clockwise at or after the key.
///
/// # Examples
///
/// ```
/// use p2ps_lookup::chord::ChordId;
///
/// let a = ChordId::from_raw(10);
/// let b = ChordId::from_raw(20);
/// assert!(ChordId::from_raw(15).in_half_open(a, b));  // (10, 20]
/// assert!(!ChordId::from_raw(10).in_half_open(a, b));
/// assert!(ChordId::from_raw(20).in_half_open(a, b));
/// // Wrap-around interval (20, 10]:
/// assert!(ChordId::from_raw(5).in_half_open(b, a));
/// assert!(ChordId::from_raw(25).in_half_open(b, a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChordId(u64);

impl ChordId {
    /// Number of bits of the identifier space (finger-table size).
    pub const BITS: u32 = 64;

    /// Wraps a raw identifier.
    pub const fn from_raw(v: u64) -> Self {
        ChordId(v)
    }

    /// The raw identifier.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Hashes a media item name onto the circle: an FNV-style fold (FNV
    /// offset basis, xor then multiply) with this crate's own multiplier
    /// `0x1000_0000_01b3` — *not* the FNV-1a prime
    /// `0x0000_0100_0000_01b3` — then an avalanche. Every item's ring
    /// position depends on the constant, so it stays as it is and is not
    /// folded into a hasher shared with the real FNV-1a users.
    pub fn of_item(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        ChordId(splitmix64(h))
    }

    /// Hashes a peer identity onto the circle.
    pub fn of_peer(peer: PeerId) -> Self {
        ChordId(splitmix64(peer.get() ^ 0x6a09_e667_f3bc_c909))
    }

    /// `self + 2^k` on the circle (finger start positions).
    pub const fn finger_start(self, k: u32) -> Self {
        ChordId(self.0.wrapping_add(1u64 << k))
    }

    /// Whether `self` lies in the half-open circular interval `(from, to]`.
    /// An empty interval (`from == to`) denotes the whole circle, matching
    /// the Chord paper's convention for single-node rings.
    pub fn in_half_open(self, from: ChordId, to: ChordId) -> bool {
        if from == to {
            return true;
        }
        if from.0 < to.0 {
            from.0 < self.0 && self.0 <= to.0
        } else {
            self.0 > from.0 || self.0 <= to.0
        }
    }

    /// Whether `self` lies in the open circular interval `(from, to)`.
    pub fn in_open(self, from: ChordId, to: ChordId) -> bool {
        if from == to {
            return self != from;
        }
        if from.0 < to.0 {
            from.0 < self.0 && self.0 < to.0
        } else {
            self.0 > from.0 || self.0 < to.0
        }
    }
}

impl std::fmt::Display for ChordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_membership_no_wrap() {
        let a = ChordId::from_raw(100);
        let b = ChordId::from_raw(200);
        assert!(ChordId::from_raw(150).in_half_open(a, b));
        assert!(ChordId::from_raw(200).in_half_open(a, b));
        assert!(!ChordId::from_raw(100).in_half_open(a, b));
        assert!(!ChordId::from_raw(250).in_half_open(a, b));
        assert!(ChordId::from_raw(150).in_open(a, b));
        assert!(!ChordId::from_raw(200).in_open(a, b));
    }

    #[test]
    fn interval_membership_wraps() {
        let a = ChordId::from_raw(u64::MAX - 10);
        let b = ChordId::from_raw(10);
        assert!(ChordId::from_raw(u64::MAX).in_half_open(a, b));
        assert!(ChordId::from_raw(0).in_half_open(a, b));
        assert!(ChordId::from_raw(10).in_half_open(a, b));
        assert!(!ChordId::from_raw(11).in_half_open(a, b));
        assert!(!ChordId::from_raw(500).in_open(a, b));
    }

    #[test]
    fn degenerate_interval_is_full_circle() {
        let a = ChordId::from_raw(42);
        assert!(ChordId::from_raw(0).in_half_open(a, a));
        assert!(ChordId::from_raw(42).in_half_open(a, a));
        assert!(!ChordId::from_raw(42).in_open(a, a));
        assert!(ChordId::from_raw(43).in_open(a, a));
    }

    #[test]
    fn finger_starts_wrap() {
        let id = ChordId::from_raw(u64::MAX);
        assert_eq!(id.finger_start(0).raw(), 0);
        assert_eq!(ChordId::from_raw(0).finger_start(63).raw(), 1 << 63);
    }

    #[test]
    fn hashes_spread() {
        // Sequential peers must not land sequentially on the circle.
        let a = ChordId::of_peer(PeerId::new(1)).raw();
        let b = ChordId::of_peer(PeerId::new(2)).raw();
        assert!(a.abs_diff(b) > 1 << 32);
        assert_ne!(ChordId::of_item("x"), ChordId::of_item("y"));
        assert_eq!(ChordId::of_item("x"), ChordId::of_item("x"));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", ChordId::from_raw(255)), "00000000000000ff");
    }
}
