//! Property-based tests for the lookup substrates: the directory's
//! sampling contract and Chord's routing/storage invariants under churn.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use p2ps_core::{PeerClass, PeerId};
use p2ps_lookup::chord::{ChordId, ChordRing};
use p2ps_lookup::{Directory, Rendezvous};

fn class(k: u8) -> PeerClass {
    PeerClass::new(k).unwrap()
}

proptest! {
    /// Directory samples are distinct, bounded by both `m` and the
    /// population, and consist only of registered peers.
    #[test]
    fn directory_sampling_contract(
        population in prop::collection::hash_set(0u64..500, 0..80),
        m in 0usize..20,
        seed in 0u64..1_000,
    ) {
        let mut dir = Directory::new();
        for &id in &population {
            dir.register("item", PeerId::new(id), class(1 + (id % 4) as u8));
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let sample = dir.sample("item", m, &mut rng);
        prop_assert_eq!(sample.len(), m.min(population.len()));
        let mut ids: Vec<u64> = sample.iter().map(|c| c.id.get()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "duplicates in sample");
        for id in ids {
            prop_assert!(population.contains(&id));
        }
    }

    /// Register/unregister sequences leave exactly the surviving set.
    #[test]
    fn directory_membership_matches_model(
        ops in prop::collection::vec((any::<bool>(), 0u64..50), 0..120),
    ) {
        let mut dir = Directory::new();
        let mut model = std::collections::HashSet::new();
        for (add, id) in ops {
            if add {
                dir.register("x", PeerId::new(id), class(1));
                model.insert(id);
            } else {
                dir.unregister("x", PeerId::new(id));
                model.remove(&id);
            }
        }
        prop_assert_eq!(dir.supplier_count("x"), model.len());
        let mut listed: Vec<u64> = dir.suppliers("x").iter().map(|c| c.id.get()).collect();
        listed.sort_unstable();
        let mut expected: Vec<u64> = model.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(listed, expected);
    }

    /// Chord routing from any start node finds the ground-truth successor
    /// of any key, for any membership. (Sizes kept small: ring joins
    /// recompute all finger tables, so large memberships belong in the
    /// repo benchmark's `lookup.chord_route_ns` probe, not here.)
    #[test]
    fn chord_routes_to_true_successor(
        members in prop::collection::hash_set(0u64..10_000, 1..16),
        probes in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        let mut ring = ChordRing::new();
        for &m in &members {
            ring.join(PeerId::new(m));
        }
        // Ground truth: sorted node ids on the circle.
        let mut ids: Vec<u64> = ring.node_ids().map(|i| i.raw()).collect();
        ids.sort_unstable();
        for &probe in &probes {
            let key = ChordId::from_raw(probe);
            let expected = *ids
                .iter()
                .find(|&&i| i >= probe)
                .unwrap_or(&ids[0]);
            let starts: Vec<ChordId> = ring.node_ids().step_by(7).collect();
            for start in starts {
                let got = ring.lookup_from(start, key);
                prop_assert_eq!(got.owner.raw(), expected);
                prop_assert!(got.hops as usize <= members.len());
            }
        }
    }

    /// Keys survive arbitrary join/leave churn as long as at least one
    /// node remains.
    #[test]
    fn chord_keys_survive_churn(
        initial in prop::collection::hash_set(0u64..1_000, 2..12),
        churn in prop::collection::vec((any::<bool>(), 0u64..1_000), 0..24),
        item in "[a-z]{1,10}",
    ) {
        let mut ring = ChordRing::new();
        for &m in &initial {
            ring.join(PeerId::new(m));
        }
        ring.register(&item, PeerId::new(424242), class(2));
        let mut live: std::collections::HashSet<u64> = initial.clone();
        for (join, id) in churn {
            if join {
                ring.join(PeerId::new(id));
                live.insert(id);
            } else if live.len() > 1 {
                ring.leave(PeerId::new(id));
                live.remove(&id);
            }
        }
        prop_assert!(!ring.is_empty());
        prop_assert_eq!(ring.supplier_count(&item), 1, "the key vanished under churn");
        let mut rng = SmallRng::seed_from_u64(7);
        let got = ring.sample(&item, 4, &mut rng);
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(got[0].id, PeerId::new(424242));
    }

    /// Hop counts stay logarithmic-ish: never more than 2·log2(n) + 2 on
    /// rings of any sampled size.
    #[test]
    fn chord_hops_bounded(n in 2u64..96, probe in any::<u64>()) {
        let mut ring = ChordRing::new();
        for i in 0..n {
            ring.join(PeerId::new(i));
        }
        let bound = 2.0 * (n as f64).log2() + 2.0;
        let got = ring.lookup(ChordId::from_raw(probe));
        prop_assert!(
            (got.hops as f64) <= bound,
            "{} hops on a {n}-node ring (bound {bound:.1})",
            got.hops
        );
    }
}
