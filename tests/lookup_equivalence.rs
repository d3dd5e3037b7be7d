//! The lookup services are interchangeable: a model-based test runs
//! identical register/unregister/sample sequences against the centralized
//! directory, its striped thread-safe handle and the Chord ring, and
//! checks they expose identical supplier *sets* (sampling order may
//! differ — it is random — but membership, counts and candidate metadata
//! must agree).
//!
//! The tier-1 block runs 32 sequences; an `#[ignore]`d block runs 2,000
//! (`cargo test --release --test lookup_equivalence -- --ignored`).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use p2ps::core::{PeerClass, PeerId};
use p2ps::lookup::chord::ChordRing;
use p2ps::lookup::{Directory, Rendezvous, SharedDirectory};

fn class(k: u8) -> PeerClass {
    PeerClass::new(k).unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    Register { item: u8, peer: u64, class: u8 },
    Unregister { item: u8, peer: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3, 0u64..40, 1u8..=4).prop_map(|(item, peer, class)| Op::Register {
            item,
            peer,
            class
        }),
        (0u8..3, 0u64..40).prop_map(|(item, peer)| Op::Unregister { item, peer }),
    ]
}

fn item_name(i: u8) -> String {
    format!("item-{i}")
}

/// Applies `ops` to every lookup service and checks that each item's
/// count and exhaustive sample agree across them.
fn check_equivalence(ops: &[Op], ring_nodes: u64) {
    let mut dir = Directory::new();
    let mut shared = SharedDirectory::new();
    let mut ring = ChordRing::new();
    for i in 0..ring_nodes {
        ring.join(PeerId::new(100_000 + i));
    }
    let mut services: [&mut dyn Rendezvous; 3] = [&mut dir, &mut shared, &mut ring];

    for op in ops {
        for service in services.iter_mut() {
            match *op {
                Op::Register {
                    item,
                    peer,
                    class: k,
                } => service.register(&item_name(item), PeerId::new(peer), class(k)),
                Op::Unregister { item, peer } => {
                    service.unregister(&item_name(item), PeerId::new(peer))
                }
            }
        }
    }

    for item in 0..3u8 {
        let name = item_name(item);
        let n = services[0].supplier_count(&name);
        // Exhaustive sample (m = population) must return the same set
        // with the same classes.
        let mut rng = SmallRng::seed_from_u64(1);
        let mut expected = services[0].sample(&name, n, &mut rng);
        expected.sort_by_key(|c| c.id);
        for (i, service) in services.iter().enumerate().skip(1) {
            prop_assert_eq!(
                service.supplier_count(&name),
                n,
                "count mismatch for {} at service {}",
                &name,
                i
            );
            let mut rng = SmallRng::seed_from_u64(2 + i as u64);
            let mut got = service.sample(&name, n, &mut rng);
            got.sort_by_key(|c| c.id);
            prop_assert_eq!(
                &got,
                &expected,
                "membership mismatch for {} at service {}",
                &name,
                i
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn directory_and_chord_expose_identical_membership(
        ops in prop::collection::vec(op_strategy(), 0..60),
        ring_nodes in 1u64..24,
    ) {
        check_equivalence(&ops, ring_nodes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    #[ignore = "2,000 sequences; nightly runs it with --ignored"]
    fn lookup_services_agree_over_2000_sequences(
        ops in prop::collection::vec(op_strategy(), 0..120),
        ring_nodes in 1u64..48,
    ) {
        check_equivalence(&ops, ring_nodes);
    }
}
