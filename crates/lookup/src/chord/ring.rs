//! The Chord ring: nodes, finger tables, lookup and key storage.

use std::collections::{BTreeMap, HashMap};

use rand::RngCore;

use p2ps_core::{PeerClass, PeerId};

use crate::directory::SupplierSet;
use crate::{CandidateInfo, Rendezvous};

use super::ChordId;

/// One Chord node: identity, routing state and the keys it stores.
#[derive(Debug, Clone)]
struct Node {
    peer: PeerId,
    /// `fingers[k]` = the node that succeeds `id + 2^k` (node chord-id).
    fingers: Vec<ChordId>,
    successor: ChordId,
    predecessor: ChordId,
    /// item-key → suppliers of that item.
    store: HashMap<u64, SupplierSet>,
}

/// Result of an iterative Chord lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// The node owning the key (the key's successor).
    pub owner: ChordId,
    /// Number of routing hops taken (0 when the first node already owns
    /// the key).
    pub hops: u32,
}

/// A complete Chord ring in one address space.
///
/// Topology maintenance (`join` / `leave`) immediately re-establishes the
/// converged state that Chord's periodic `stabilize` / `fix_fingers`
/// protocols reach; lookups then route **only** through finger tables, so
/// hop counts match a converged distributed deployment. Keys migrate to
/// their new successor on membership changes, as in the Chord paper.
#[derive(Debug, Clone, Default)]
pub struct ChordRing {
    nodes: BTreeMap<u64, Node>,
}

impl ChordRing {
    /// Creates an empty ring.
    pub fn new() -> Self {
        ChordRing::default()
    }

    /// Number of nodes in the ring.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The chord-id of every node, ascending.
    pub fn node_ids(&self) -> impl Iterator<Item = ChordId> + '_ {
        self.nodes.keys().map(|&k| ChordId::from_raw(k))
    }

    /// Ground-truth successor of `id` on the circle (first node clockwise
    /// at or after `id`). Used for topology maintenance, never for routing.
    fn successor_of(&self, id: ChordId) -> Option<ChordId> {
        self.nodes
            .range(id.raw()..)
            .next()
            .or_else(|| self.nodes.iter().next())
            .map(|(&k, _)| ChordId::from_raw(k))
    }

    /// Ground-truth predecessor of `id` (first node strictly before `id`).
    fn predecessor_of(&self, id: ChordId) -> Option<ChordId> {
        self.nodes
            .range(..id.raw())
            .next_back()
            .or_else(|| self.nodes.iter().next_back())
            .map(|(&k, _)| ChordId::from_raw(k))
    }

    /// Adds `peer` to the ring, rebuilding the affected routing state and
    /// migrating the keys that now belong to it. Returns the node's
    /// chord-id. Joining twice is a no-op.
    pub fn join(&mut self, peer: PeerId) -> ChordId {
        let id = ChordId::of_peer(peer);
        if self.nodes.contains_key(&id.raw()) {
            return id;
        }
        self.nodes.insert(
            id.raw(),
            Node {
                peer,
                fingers: vec![id; ChordId::BITS as usize],
                successor: id,
                predecessor: id,
                store: HashMap::new(),
            },
        );
        // Migrate keys in (predecessor, id] from the successor.
        let succ = self.successor_of(id.finger_start(0)).expect("non-empty");
        if succ != id {
            let pred = self.predecessor_of(id).expect("non-empty");
            let succ_node = self.nodes.get_mut(&succ.raw()).expect("exists");
            let mut moved = Vec::new();
            succ_node.store.retain(|&key, suppliers| {
                if ChordId::from_raw(key).in_half_open(pred, id) {
                    moved.push((key, std::mem::take(suppliers)));
                    false
                } else {
                    true
                }
            });
            let new_node = self.nodes.get_mut(&id.raw()).expect("just inserted");
            new_node.store.extend(moved);
        }
        self.refresh_routing();
        id
    }

    /// Removes `peer` from the ring, handing its keys to its successor.
    /// Unknown peers are ignored.
    pub fn leave(&mut self, peer: PeerId) {
        let id = ChordId::of_peer(peer);
        let Some(node) = self.nodes.remove(&id.raw()) else {
            return;
        };
        if let Some(succ) = self.successor_of(id) {
            let succ_node = self.nodes.get_mut(&succ.raw()).expect("exists");
            for (key, suppliers) in node.store {
                succ_node.store.entry(key).or_default().absorb(suppliers);
            }
        }
        self.refresh_routing();
    }

    /// Recomputes successor/predecessor pointers and finger tables for all
    /// nodes — the converged fixpoint of Chord's `stabilize` +
    /// `fix_fingers` maintenance.
    fn refresh_routing(&mut self) {
        let ids: Vec<u64> = self.nodes.keys().copied().collect();
        for &raw in &ids {
            let id = ChordId::from_raw(raw);
            let successor = self
                .successor_of(id.finger_start(0))
                .expect("ring is non-empty");
            let predecessor = self.predecessor_of(id).expect("ring is non-empty");
            let fingers: Vec<ChordId> = (0..ChordId::BITS)
                .map(|k| {
                    self.successor_of(id.finger_start(k))
                        .expect("ring is non-empty")
                })
                .collect();
            let node = self.nodes.get_mut(&raw).expect("iterating own keys");
            node.successor = successor;
            node.predecessor = predecessor;
            node.fingers = fingers;
        }
    }

    /// Iterative lookup of `key` starting at node `from`, routing only
    /// through finger tables (Chord's `find_successor`).
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a node of the ring.
    pub fn lookup_from(&self, from: ChordId, key: ChordId) -> LookupResult {
        let mut current = from;
        let mut hops = 0u32;
        loop {
            let node = self
                .nodes
                .get(&current.raw())
                .expect("lookup must start at a ring node");
            if key.in_half_open(current, node.successor) {
                if node.successor == current {
                    return LookupResult {
                        owner: current,
                        hops,
                    };
                }
                return LookupResult {
                    owner: node.successor,
                    hops: hops + 1,
                };
            }
            // closest preceding finger
            let mut next = node.successor;
            for &f in node.fingers.iter().rev() {
                if f.in_open(current, key) {
                    next = f;
                    break;
                }
            }
            if next == current {
                return LookupResult {
                    owner: current,
                    hops,
                };
            }
            current = next;
            hops += 1;
        }
    }

    /// Looks `key` up from an arbitrary (first) node — the entry point a
    /// client without ring knowledge would use.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn lookup(&self, key: ChordId) -> LookupResult {
        let first = ChordId::from_raw(*self.nodes.keys().next().expect("ring is empty"));
        self.lookup_from(first, key)
    }

    /// The peer identity of the ring node with chord-id `id`.
    pub fn peer_of(&self, id: ChordId) -> Option<PeerId> {
        self.nodes.get(&id.raw()).map(|n| n.peer)
    }

    /// The supplier set of `item` at the node that owns its key, if the
    /// ring has any node.
    fn owner_store(&self, item: &str) -> Option<&SupplierSet> {
        if self.nodes.is_empty() {
            return None;
        }
        let key = ChordId::of_item(item);
        let owner = self.lookup(key).owner;
        self.nodes.get(&owner.raw())?.store.get(&key.raw())
    }

    fn owner_store_mut(&mut self, item: &str) -> Option<&mut SupplierSet> {
        if self.nodes.is_empty() {
            return None;
        }
        let key = ChordId::of_item(item);
        let owner = self.lookup(key).owner;
        Some(
            self.nodes
                .get_mut(&owner.raw())
                .expect("owner is a ring node")
                .store
                .entry(key.raw())
                .or_default(),
        )
    }
}

impl Rendezvous for ChordRing {
    fn register(&mut self, item: &str, peer: PeerId, class: PeerClass) {
        if let Some(store) = self.owner_store_mut(item) {
            store.insert(CandidateInfo::new(peer, class));
        }
    }

    fn unregister(&mut self, item: &str, peer: PeerId) {
        if let Some(store) = self.owner_store_mut(item) {
            store.remove(peer);
        }
    }

    fn sample(&self, item: &str, m: usize, rng: &mut dyn RngCore) -> Vec<CandidateInfo> {
        self.owner_store(item)
            .map(|s| s.sample(m, rng))
            .unwrap_or_default()
    }

    fn supplier_count(&self, item: &str) -> usize {
        self.owner_store(item).map(SupplierSet::len).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ring(n: u64) -> ChordRing {
        let mut r = ChordRing::new();
        for i in 0..n {
            r.join(PeerId::new(i));
        }
        r
    }

    fn class(k: u8) -> PeerClass {
        PeerClass::new(k).unwrap()
    }

    #[test]
    fn empty_and_single_node() {
        let mut r = ChordRing::new();
        assert!(r.is_empty());
        let id = r.join(PeerId::new(1));
        assert_eq!(r.len(), 1);
        let res = r.lookup(ChordId::of_item("anything"));
        assert_eq!(res.owner, id);
        assert_eq!(res.hops, 0);
    }

    #[test]
    fn rejoin_is_idempotent() {
        let mut r = ring(5);
        let before = r.len();
        r.join(PeerId::new(3));
        assert_eq!(r.len(), before);
    }

    #[test]
    fn lookup_owner_matches_ground_truth_successor() {
        let r = ring(64);
        for probe in 0..200u64 {
            let key = ChordId::of_item(&format!("item-{probe}"));
            let expected = r.successor_of(key).unwrap();
            for start in r.node_ids().step_by(17) {
                let res = r.lookup_from(start, key);
                assert_eq!(res.owner, expected, "key {key} from {start}");
            }
        }
    }

    #[test]
    fn lookup_hops_are_logarithmic() {
        let r = ring(256);
        let mut worst = 0;
        let mut total = 0u32;
        let mut count = 0u32;
        for probe in 0..200u64 {
            let key = ChordId::of_item(&format!("probe-{probe}"));
            for start in r.node_ids().step_by(31) {
                let res = r.lookup_from(start, key);
                worst = worst.max(res.hops);
                total += res.hops;
                count += 1;
            }
        }
        let avg = total as f64 / count as f64;
        // log2(256) = 8; Chord guarantees O(log n) with ~1/2 log2 n average.
        assert!(avg <= 8.0, "average hops {avg} too high");
        assert!(worst <= 16, "worst-case hops {worst} too high");
    }

    #[test]
    fn register_sample_unregister_round_trip() {
        let mut r = ring(32);
        r.register("video", PeerId::new(3), class(2));
        r.register("video", PeerId::new(4), class(1));
        assert_eq!(r.supplier_count("video"), 2);
        let mut rng = SmallRng::seed_from_u64(0);
        let sampled = r.sample("video", 8, &mut rng);
        assert_eq!(sampled.len(), 2);
        r.unregister("video", PeerId::new(3));
        assert_eq!(r.supplier_count("video"), 1);
        assert_eq!(r.sample("video", 8, &mut rng)[0].id, PeerId::new(4));
    }

    #[test]
    fn reregistration_updates_class() {
        let mut r = ring(8);
        r.register("v", PeerId::new(1), class(4));
        r.register("v", PeerId::new(1), class(1));
        assert_eq!(r.supplier_count("v"), 1);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(r.sample("v", 1, &mut rng)[0].class, class(1));
    }

    #[test]
    fn keys_survive_owner_churn() {
        let mut r = ring(32);
        r.register("video", PeerId::new(3), class(2));
        let owner = r.lookup(ChordId::of_item("video")).owner;
        let owner_peer = r.peer_of(owner).unwrap();
        // The owner leaves; the key must move to the new successor.
        r.leave(owner_peer);
        assert_eq!(r.supplier_count("video"), 1);
        // Many joins later the key is still reachable.
        for i in 100..164 {
            r.join(PeerId::new(i));
        }
        assert_eq!(r.supplier_count("video"), 1);
    }

    #[test]
    fn leave_of_unknown_peer_is_ignored() {
        let mut r = ring(4);
        r.leave(PeerId::new(999));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn many_items_distribute_across_nodes() {
        let mut r = ring(64);
        for i in 0..200u64 {
            r.register(&format!("item-{i}"), PeerId::new(i), class(1));
        }
        // Count distinct owner nodes: consistent hashing must spread items.
        let mut owners: Vec<u64> = (0..200u64)
            .map(|i| r.lookup(ChordId::of_item(&format!("item-{i}"))).owner.raw())
            .collect();
        owners.sort_unstable();
        owners.dedup();
        assert!(
            owners.len() > 30,
            "200 items landed on only {} of 64 nodes",
            owners.len()
        );
    }

    #[test]
    fn operations_on_empty_ring_are_safe() {
        let mut r = ChordRing::new();
        r.register("v", PeerId::new(1), class(1));
        r.unregister("v", PeerId::new(1));
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(r.sample("v", 3, &mut rng).is_empty());
        assert_eq!(r.supplier_count("v"), 0);
    }
}
