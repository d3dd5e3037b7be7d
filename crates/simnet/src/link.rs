//! In-memory link model with TCP-like FIFO delivery.
//!
//! A [`Link`] carries one direction of one supplier⇆requester pair. It
//! models latency, per-chunk jitter and serialization bandwidth, but —
//! like the TCP connections the real node uses — it never reorders or
//! drops bytes within the stream: each chunk's arrival is clamped to be
//! no earlier than the previous chunk's. Adversity *between* lanes
//! (cross-lane reordering, a crawling peer) emerges from giving lanes
//! different specs; adversity *within* a lane comes from how the world
//! fragments the byte stream into chunks, not from the link.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::LinkSpec;

/// One direction of one lane's connection, on the world's µs clock.
#[derive(Debug)]
pub struct Link {
    spec: LinkSpec,
    /// The FIFO clamp: no chunk may arrive before this instant.
    next_free_us: u64,
}

impl Link {
    /// A quiet link with the given characteristics.
    pub fn new(spec: LinkSpec) -> Self {
        Link {
            spec,
            next_free_us: 0,
        }
    }

    /// The link's fixed characteristics.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Schedules one chunk sent at `now_us`, returning its arrival in
    /// µs. Arrivals are monotone per link: `max(prev_arrival, now +
    /// latency + jitter) + ⌈len / bandwidth⌉`. The spec is in whole ms
    /// and the jitter is drawn in whole ms, so every delay is a multiple
    /// of 1,000 µs.
    pub fn send(&mut self, now_us: u64, len: usize, rng: &mut SmallRng) -> u64 {
        let jitter_ms = if self.spec.jitter_ms == 0 {
            0
        } else {
            rng.gen_range(0..=self.spec.jitter_ms)
        };
        let tx_ms = (len as u64).div_ceil(self.spec.bytes_per_ms.max(1));
        let sent = now_us + (self.spec.latency_ms + jitter_ms) * 1_000;
        let arrival = sent.max(self.next_free_us) + tx_ms * 1_000;
        self.next_free_us = arrival;
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn arrivals_are_fifo_even_under_jitter() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut link = Link::new(LinkSpec {
            latency_ms: 5,
            jitter_ms: 50,
            bytes_per_ms: 8,
        });
        let mut prev = 0;
        for i in 0..200 {
            let at = link.send(i * 1_000, 16, &mut rng);
            assert!(at >= prev, "chunk {i} would overtake its predecessor");
            prev = at;
        }
    }

    #[test]
    fn bandwidth_serializes_back_to_back_chunks() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut link = Link::new(LinkSpec {
            latency_ms: 0,
            jitter_ms: 0,
            bytes_per_ms: 1,
        });
        let first = link.send(0, 10, &mut rng);
        let second = link.send(0, 10, &mut rng);
        assert_eq!(first, 10_000, "10 bytes at 1 B/ms");
        assert_eq!(second, 20_000, "second chunk queues behind the first");
    }

    #[test]
    fn latency_delays_the_first_byte() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut link = Link::new(LinkSpec {
            latency_ms: 30,
            jitter_ms: 0,
            bytes_per_ms: 100,
        });
        assert_eq!(link.send(5_000, 100, &mut rng), 36_000);
    }
}
