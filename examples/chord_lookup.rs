//! Candidate lookup over a Chord ring (paper §4.2, footnote 4).
//!
//! The paper's requesting peers may discover candidate suppliers either
//! through a central directory or a distributed lookup service such as
//! Chord. This example builds a 1,024-node Chord ring, registers
//! suppliers for a media item, and measures lookup hop counts to confirm
//! the `O(log n)` routing bound.
//!
//! Run with `cargo run --release --example chord_lookup`.

use p2ps::core::{PeerClass, PeerId};
use p2ps::lookup::chord::{ChordId, ChordRing};
use p2ps::lookup::Rendezvous;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n_nodes = 1_024u64;
    let mut ring = ChordRing::new();
    for i in 0..n_nodes {
        ring.join(PeerId::new(i));
    }
    println!("built a Chord ring of {} nodes", ring.len());

    // Register a supplier population for one popular item.
    for i in 0..40u64 {
        ring.register(
            "icdcs-video",
            PeerId::new(i),
            PeerClass::new(1 + (i % 4) as u8)?,
        );
    }
    println!(
        "registered {} suppliers of 'icdcs-video' at the item key's successor node",
        ring.supplier_count("icdcs-video")
    );

    // A requesting peer samples M = 8 candidates through the ring.
    let mut rng = SmallRng::seed_from_u64(7);
    let candidates = ring.sample("icdcs-video", 8, &mut rng);
    println!("\nM = 8 sampled candidates:");
    for c in &candidates {
        println!("  {} ({})", c.id, c.class);
    }

    // Measure routing cost from many start nodes to many keys: a count
    // of lookups per hop count.
    let mut by_hops: Vec<u64> = Vec::new();
    let starts: Vec<ChordId> = ring.node_ids().step_by(37).collect();
    for probe in 0..256u64 {
        let key = ChordId::of_item(&format!("probe-{probe}"));
        for &start in &starts {
            let hops = ring.lookup_from(start, key).hops as usize;
            if hops >= by_hops.len() {
                by_hops.resize(hops + 1, 0);
            }
            by_hops[hops] += 1;
        }
    }
    let lookups: u64 = by_hops.iter().sum();
    let total_hops: u64 = by_hops.iter().zip(0u64..).map(|(&n, h)| n * h).sum();
    let max_hops = by_hops.len().saturating_sub(1);
    println!(
        "\nlookup hops over {lookups} routed lookups: mean {:.2}, max {max_hops} (log2({n_nodes}) = {:.0})",
        total_hops as f64 / lookups as f64,
        (n_nodes as f64).log2()
    );
    println!("hop distribution:");
    for (hops, &count) in by_hops.iter().enumerate() {
        if count > 0 {
            println!("  {hops:>4} hops: {count}");
        }
    }

    // Churn: the item's owner leaves; the supplier list must survive.
    let owner = ring.lookup(ChordId::of_item("icdcs-video")).owner;
    let owner_peer = ring.peer_of(owner).expect("owner exists");
    ring.leave(owner_peer);
    println!(
        "\nafter the owner node left, the item still has {} suppliers (keys migrated to the successor)",
        ring.supplier_count("icdcs-video")
    );
    Ok(())
}
