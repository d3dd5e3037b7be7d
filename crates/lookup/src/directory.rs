//! Napster-style centralized directory.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use rand::RngCore;

use p2ps_core::{PeerClass, PeerId};

use crate::{CandidateInfo, Rendezvous};

/// The supplier set of one media item, organized for `O(1)` registration,
/// removal and uniform sampling without replacement. The one supplier
/// table of the crate: [`Directory`] keeps one per item, and every Chord
/// node keeps one per key it owns.
#[derive(Debug, Default, Clone)]
pub(crate) struct SupplierSet {
    entries: Vec<CandidateInfo>,
    index: HashMap<PeerId, usize>,
}

impl SupplierSet {
    /// Adds `info`, or updates the class of a supplier already present.
    pub(crate) fn insert(&mut self, info: CandidateInfo) {
        if let Some(&i) = self.index.get(&info.id) {
            self.entries[i] = info; // class update on re-registration
            return;
        }
        self.index.insert(info.id, self.entries.len());
        self.entries.push(info);
    }

    /// Removes `peer`; unknown peers are ignored.
    pub(crate) fn remove(&mut self, peer: PeerId) {
        if let Some(i) = self.index.remove(&peer) {
            let last = self.entries.len() - 1;
            self.entries.swap(i, last);
            self.entries.pop();
            if i < self.entries.len() {
                self.index.insert(self.entries[i].id, i);
            }
        }
    }

    /// Moves every supplier of `other` into `self`.
    pub(crate) fn absorb(&mut self, other: SupplierSet) {
        for info in other.entries {
            self.insert(info);
        }
    }

    /// Number of suppliers.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Partial Fisher–Yates: uniform sample of `m` distinct entries.
    pub(crate) fn sample(&self, m: usize, rng: &mut dyn RngCore) -> Vec<CandidateInfo> {
        let n = self.entries.len();
        let m = m.min(n);
        let mut pool: Vec<usize> = (0..n).collect();
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let j = i + (rng.next_u64() as usize) % (n - i);
            pool.swap(i, j);
            out.push(self.entries[pool[i]]);
        }
        out
    }
}

/// A centralized directory server mapping media items to their supplying
/// peers (the paper's Napster-style option for candidate lookup).
///
/// # Examples
///
/// ```
/// use p2ps_lookup::{Directory, Rendezvous};
/// use p2ps_core::{PeerClass, PeerId};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut dir = Directory::new();
/// dir.register("video", PeerId::new(1), PeerClass::new(1)?);
/// dir.register("video", PeerId::new(2), PeerClass::new(2)?);
/// assert_eq!(dir.supplier_count("video"), 2);
/// let mut rng = SmallRng::seed_from_u64(0);
/// assert_eq!(dir.sample("video", 8, &mut rng).len(), 2);
/// dir.unregister("video", PeerId::new(1));
/// assert_eq!(dir.supplier_count("video"), 1);
/// # Ok::<(), p2ps_core::Error>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct Directory {
    items: HashMap<String, SupplierSet>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Names of all items with at least one supplier.
    pub fn items(&self) -> impl Iterator<Item = &str> + '_ {
        self.items
            .iter()
            .filter(|(_, s)| !s.entries.is_empty())
            .map(|(k, _)| k.as_str())
    }

    /// All suppliers of `item` (unsampled), mainly for tests and tools.
    pub fn suppliers(&self, item: &str) -> Vec<CandidateInfo> {
        self.items
            .get(item)
            .map(|s| s.entries.clone())
            .unwrap_or_default()
    }
}

impl Rendezvous for Directory {
    fn register(&mut self, item: &str, peer: PeerId, class: PeerClass) {
        self.items
            .entry(item.to_owned())
            .or_default()
            .insert(CandidateInfo::new(peer, class));
    }

    fn unregister(&mut self, item: &str, peer: PeerId) {
        if let Some(set) = self.items.get_mut(item) {
            set.remove(peer);
        }
    }

    fn sample(&self, item: &str, m: usize, rng: &mut dyn RngCore) -> Vec<CandidateInfo> {
        self.items
            .get(item)
            .map(|s| s.sample(m, rng))
            .unwrap_or_default()
    }

    fn supplier_count(&self, item: &str) -> usize {
        self.items.get(item).map(SupplierSet::len).unwrap_or(0)
    }
}

/// A clonable, thread-safe handle to a striped [`Directory`], for
/// callers that share one index between threads.
///
/// The directory is striped by item hash (16 ways by default):
/// registrations and queries touching *different* items never contend
/// on one lock — the write-heavy churn case, where every completed
/// session triggers a registration (§2's self-growing property).
///
/// Item-scoped access goes through [`Rendezvous`] or
/// [`with_item`](Self::with_item)/[`with_item_mut`](Self::with_item_mut),
/// which lock only the item's stripe.
///
/// # Examples
///
/// ```
/// use p2ps_lookup::{Rendezvous, SharedDirectory};
/// use p2ps_core::{PeerClass, PeerId};
///
/// let dir = SharedDirectory::new();
/// let mut clone = dir.clone();
/// clone.register("v", PeerId::new(1), PeerClass::new(1).unwrap());
/// assert_eq!(dir.supplier_count("v"), 1);
/// assert_eq!(dir.with_item("v", |d| d.supplier_count("v")), 1);
/// assert_eq!(dir.items(), vec!["v".to_owned()]);
/// ```
#[derive(Debug, Clone)]
pub struct SharedDirectory {
    stripes: Arc<[RwLock<Directory>]>,
}

impl Default for SharedDirectory {
    fn default() -> Self {
        SharedDirectory::new()
    }
}

impl SharedDirectory {
    /// Default stripe count.
    const DEFAULT_STRIPES: usize = 16;

    /// Creates an empty shared directory with the default striping.
    pub fn new() -> Self {
        SharedDirectory::with_stripes(Self::DEFAULT_STRIPES)
    }

    /// Creates an empty shared directory striped over `stripes` locks
    /// (at least one).
    pub fn with_stripes(stripes: usize) -> Self {
        SharedDirectory {
            stripes: (0..stripes.max(1))
                .map(|_| RwLock::new(Directory::new()))
                .collect(),
        }
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    fn stripe(&self, item: &str) -> &RwLock<Directory> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        item.hash(&mut h);
        &self.stripes[(h.finish() % self.stripes.len() as u64) as usize]
    }

    /// Runs `f` with read access to `item`'s stripe.
    pub fn with_item<T>(&self, item: &str, f: impl FnOnce(&Directory) -> T) -> T {
        f(&self.stripe(item).read())
    }

    /// Runs `f` with write access to `item`'s stripe.
    pub fn with_item_mut<T>(&self, item: &str, f: impl FnOnce(&mut Directory) -> T) -> T {
        f(&mut self.stripe(item).write())
    }

    /// Names of all items with at least one supplier, across every
    /// stripe (sorted, since stripe order is hash order).
    pub fn items(&self) -> Vec<String> {
        let mut all: Vec<String> = self
            .stripes
            .iter()
            .flat_map(|s| s.read().items().map(str::to_owned).collect::<Vec<_>>())
            .collect();
        all.sort_unstable();
        all
    }
}

impl Rendezvous for SharedDirectory {
    fn register(&mut self, item: &str, peer: PeerId, class: PeerClass) {
        self.stripe(item).write().register(item, peer, class);
    }

    fn unregister(&mut self, item: &str, peer: PeerId) {
        self.stripe(item).write().unregister(item, peer);
    }

    fn sample(&self, item: &str, m: usize, rng: &mut dyn RngCore) -> Vec<CandidateInfo> {
        self.stripe(item).read().sample(item, m, rng)
    }

    fn supplier_count(&self, item: &str) -> usize {
        self.stripe(item).read().supplier_count(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn class(k: u8) -> PeerClass {
        PeerClass::new(k).unwrap()
    }

    fn populated(n: u64) -> Directory {
        let mut d = Directory::new();
        for i in 0..n {
            d.register("v", PeerId::new(i), class(1 + (i % 4) as u8));
        }
        d
    }

    #[test]
    fn register_unregister_counts() {
        let mut d = populated(10);
        assert_eq!(d.supplier_count("v"), 10);
        assert_eq!(d.supplier_count("unknown"), 0);
        d.unregister("v", PeerId::new(3));
        assert_eq!(d.supplier_count("v"), 9);
        d.unregister("v", PeerId::new(3)); // idempotent
        assert_eq!(d.supplier_count("v"), 9);
        d.unregister("unknown", PeerId::new(3)); // no-op
    }

    #[test]
    fn reregistration_updates_class() {
        let mut d = Directory::new();
        d.register("v", PeerId::new(1), class(4));
        d.register("v", PeerId::new(1), class(2));
        assert_eq!(d.supplier_count("v"), 1);
        assert_eq!(d.suppliers("v")[0].class, class(2));
    }

    #[test]
    fn sample_returns_distinct_candidates() {
        let d = populated(50);
        let mut rng = SmallRng::seed_from_u64(1);
        let s = d.sample("v", 8, &mut rng);
        assert_eq!(s.len(), 8);
        let mut ids: Vec<u64> = s.iter().map(|c| c.id.get()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "sampled candidates must be distinct");
    }

    #[test]
    fn sample_caps_at_population() {
        let d = populated(3);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(d.sample("v", 8, &mut rng).len(), 3);
        assert_eq!(d.sample("v", 0, &mut rng).len(), 0);
        assert_eq!(d.sample("none", 8, &mut rng).len(), 0);
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let d = populated(10);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut hits = [0u32; 10];
        for _ in 0..10_000 {
            for c in d.sample("v", 1, &mut rng) {
                hits[c.id.get() as usize] += 1;
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!(
                (700..1300).contains(&h),
                "peer {i} sampled {h} times out of 10000"
            );
        }
    }

    #[test]
    fn removal_keeps_sampling_consistent() {
        let mut d = populated(5);
        d.unregister("v", PeerId::new(0)); // exercises swap-remove re-index
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            for c in d.sample("v", 3, &mut rng) {
                assert_ne!(c.id, PeerId::new(0));
            }
        }
    }

    #[test]
    fn items_lists_active_items() {
        let mut d = Directory::new();
        d.register("a", PeerId::new(1), class(1));
        d.register("b", PeerId::new(2), class(1));
        d.unregister("b", PeerId::new(2));
        let items: Vec<&str> = d.items().collect();
        assert_eq!(items, vec!["a"]);
    }

    #[test]
    fn shared_directory_round_trip() {
        let dir = SharedDirectory::new();
        let mut writer = dir.clone();
        writer.register("v", PeerId::new(1), class(1));
        assert_eq!(dir.supplier_count("v"), 1);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(dir.sample("v", 4, &mut rng).len(), 1);
        writer.unregister("v", PeerId::new(1));
        assert_eq!(dir.supplier_count("v"), 0);
    }

    #[test]
    fn shared_directory_concurrent_access() {
        let dir = SharedDirectory::new();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let mut d = dir.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    d.register("v", PeerId::new(t * 100 + i), class(1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(dir.supplier_count("v"), 400);
    }

    #[test]
    fn shared_directory_stripes_by_item() {
        let mut dir = SharedDirectory::with_stripes(4);
        assert_eq!(dir.stripe_count(), 4);
        assert!(SharedDirectory::with_stripes(0).stripe_count() >= 1);
        for i in 0..64u64 {
            dir.register(&format!("item-{i}"), PeerId::new(i), class(1));
        }
        // Every item is findable through its own stripe, and the
        // aggregate view sees all of them.
        let mut rng = SmallRng::seed_from_u64(5);
        for i in 0..64u64 {
            let name = format!("item-{i}");
            assert_eq!(dir.supplier_count(&name), 1);
            assert_eq!(dir.sample(&name, 8, &mut rng).len(), 1);
            assert_eq!(dir.with_item(&name, |d| d.supplier_count(&name)), 1);
        }
        assert_eq!(dir.items().len(), 64);
        // Items actually spread across stripes (hash, not one bucket).
        let occupancy = dir
            .stripes
            .iter()
            .filter(|s| s.read().items().next().is_some())
            .count();
        assert!(occupancy >= 2, "64 items all hashed into one stripe?");
    }

    #[test]
    fn shared_directory_concurrent_items_across_stripes() {
        let dir = SharedDirectory::new();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let mut d = dir.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    d.register(&format!("item-{t}"), PeerId::new(t * 100 + i), class(1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8u64 {
            assert_eq!(dir.supplier_count(&format!("item-{t}")), 50);
        }
        assert_eq!(dir.items().len(), 8);
    }

    #[test]
    fn shared_directory_item_scoped_mutation() {
        let dir = SharedDirectory::new();
        dir.with_item_mut("x", |d| d.register("x", PeerId::new(7), class(2)));
        assert_eq!(dir.supplier_count("x"), 1);
        dir.with_item_mut("x", |d| d.unregister("x", PeerId::new(7)));
        assert_eq!(dir.supplier_count("x"), 0);
        assert!(dir.items().is_empty());
    }
}
