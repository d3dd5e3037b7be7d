//! An in-process swarm harness for examples and integration tests.

use std::time::Duration;

use p2ps_core::{PeerClass, PeerId};
use p2ps_media::MediaInfo;

use crate::{Clock, DirectoryServer, NodeConfig, NodeError, NodeReactor, PeerNode, StreamOutcome};

/// A complete local deployment: one directory server plus a growing set
/// of peer nodes, all in this process, talking real TCP on loopback.
///
/// Mirrors the paper's system at laptop scale: seeds own the file,
/// requesters stream it and become suppliers, so the swarm's capacity
/// grows with every completed session. All nodes — supplier *and*
/// requester sides — share one [`NodeReactor`] pool, so the swarm's
/// footprint is one event loop per configured thread
/// ([`start_with_threads`](Self::start_with_threads)) no matter how many
/// peers join.
///
/// # Examples
///
/// ```no_run
/// use p2ps_node::Swarm;
/// use p2ps_core::PeerClass;
/// use p2ps_core::assignment::SegmentDuration;
/// use p2ps_media::MediaInfo;
///
/// let info = MediaInfo::new("clip", 40, SegmentDuration::from_millis(25), 1_024);
/// let mut swarm = Swarm::start(info, 2)?;
/// for k in [2u8, 3, 3, 4] {
///     let outcome = swarm.stream_one(PeerClass::new(k).unwrap(), 8)?;
///     println!("class-{k} served by {} suppliers", outcome.supplier_count);
/// }
/// # Ok::<(), p2ps_node::NodeError>(())
/// ```
pub struct Swarm {
    directory: DirectoryServer,
    reactor: NodeReactor,
    clock: Clock,
    info: MediaInfo,
    nodes: Vec<PeerNode>,
    next_id: u64,
    policy: p2ps_policy::SharedPolicy,
}

impl std::fmt::Debug for Swarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Swarm")
            .field("item", &self.info.name())
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl Swarm {
    /// Starts a directory server and `seed_count` class-1 seed suppliers
    /// for the given media item, on a single-threaded reactor.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from starting the servers.
    pub fn start(info: MediaInfo, seed_count: usize) -> Result<Self, NodeError> {
        Self::start_inner(info, seed_count, DirectoryServer::start()?, 1)
    }

    /// Like [`start`](Self::start) but the swarm's nodes and sessions are
    /// sharded across `threads` reactor threads — the multi-core knob for
    /// swarms whose aggregate traffic outgrows one event loop.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from starting the servers.
    pub fn start_with_threads(
        info: MediaInfo,
        seed_count: usize,
        threads: usize,
    ) -> Result<Self, NodeError> {
        Self::start_inner(info, seed_count, DirectoryServer::start()?, threads)
    }

    /// Like [`start`](Self::start) but the lookup service indexes
    /// suppliers through a Chord ring of `index_nodes` nodes (the paper's
    /// distributed lookup option).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from starting the servers.
    pub fn start_with_chord(
        info: MediaInfo,
        seed_count: usize,
        index_nodes: u64,
    ) -> Result<Self, NodeError> {
        Self::start_inner(
            info,
            seed_count,
            DirectoryServer::start_with_chord(index_nodes)?,
            1,
        )
    }

    fn start_inner(
        info: MediaInfo,
        seed_count: usize,
        directory: DirectoryServer,
        threads: usize,
    ) -> Result<Self, NodeError> {
        let clock = Clock::new();
        let mut swarm = Swarm {
            directory,
            reactor: NodeReactor::with_threads(threads).map_err(NodeError::Io)?,
            clock,
            info,
            nodes: Vec::new(),
            next_id: 0,
            policy: p2ps_policy::SharedPolicy::default(),
        };
        for _ in 0..seed_count {
            swarm.add_seed(PeerClass::HIGHEST)?;
        }
        Ok(swarm)
    }

    /// Adds one seed supplier of the given class.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn add_seed(&mut self, class: PeerClass) -> Result<PeerId, NodeError> {
        let id = PeerId::new(self.next_id);
        self.next_id += 1;
        let config = NodeConfig::new(id, class, self.info.clone(), self.directory.addr());
        let node = PeerNode::spawn_seed_on(config, self.clock.clone(), &self.reactor)?;
        self.nodes.push(node);
        Ok(id)
    }

    /// Adds a requesting peer of the given class, has it stream the item
    /// (retrying a few times on rejection) and keeps it in the swarm as a
    /// new supplier.
    ///
    /// # Errors
    ///
    /// The final [`NodeError`] if every attempt failed.
    pub fn stream_one(&mut self, class: PeerClass, m: usize) -> Result<StreamOutcome, NodeError> {
        let id = PeerId::new(self.next_id);
        self.next_id += 1;
        let mut config = NodeConfig::new(id, class, self.info.clone(), self.directory.addr());
        config.policy = self.policy.clone();
        let node = PeerNode::spawn_on(config, self.clock.clone(), &self.reactor)?;
        let outcome = node.request_stream_with_retry(m, 10, Duration::from_millis(50))?;
        self.nodes.push(node);
        Ok(outcome)
    }

    /// Sets the selection policy future requesters stream with (the
    /// paper's `OTSp2p` by default). Nodes already in the swarm keep the
    /// policy they streamed with.
    pub fn set_policy(&mut self, policy: p2ps_policy::SharedPolicy) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Address of the swarm's directory server.
    pub fn directory_addr(&self) -> std::net::SocketAddr {
        self.directory.addr()
    }

    /// The media item this swarm streams.
    pub fn info(&self) -> &MediaInfo {
        &self.info
    }

    /// The swarm's shared clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Reactor threads carrying the swarm's nodes and sessions.
    pub fn thread_count(&self) -> usize {
        self.reactor.thread_count()
    }

    /// Number of peer nodes (seeds + converted requesters).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes currently able to supply the file.
    pub fn supplier_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_supplier()).count()
    }

    /// Shuts every node, the shared serving reactor and the directory
    /// down.
    pub fn shutdown(self) {
        for node in self.nodes {
            node.shutdown();
        }
        self.reactor.shutdown();
        self.directory.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2ps_core::assignment::SegmentDuration;

    fn tiny_info(segments: u64) -> MediaInfo {
        MediaInfo::new(
            "swarm-test",
            segments,
            SegmentDuration::from_millis(10),
            512,
        )
    }

    #[test]
    fn single_seed_single_requester() {
        let mut swarm = Swarm::start(tiny_info(16), 1).unwrap();
        assert_eq!(swarm.supplier_count(), 1);
        let outcome = swarm.stream_one(PeerClass::new(2).unwrap(), 8).unwrap();
        // One class-1 seed covers R0 alone.
        assert_eq!(outcome.supplier_count, 1);
        assert_eq!(outcome.theoretical_delay_ms, 10);
        assert_eq!(swarm.supplier_count(), 2);
        swarm.shutdown();
    }

    #[test]
    fn capacity_grows_and_multi_supplier_sessions_happen() {
        let mut swarm = Swarm::start(tiny_info(16), 2).unwrap();
        for k in [2u8, 2, 3, 4] {
            let outcome = swarm
                .stream_one(PeerClass::new(k).unwrap(), 8)
                .unwrap_or_else(|e| panic!("class-{k} failed: {e}"));
            assert!(outcome.supplier_count >= 1);
            assert_eq!(
                outcome.theoretical_delay_ms,
                outcome.supplier_count as u64 * 10
            );
        }
        assert_eq!(swarm.node_count(), 6);
        assert_eq!(swarm.supplier_count(), 6);
        swarm.shutdown();
    }

    #[test]
    fn chord_indexed_swarm_streams_too() {
        let mut swarm = Swarm::start_with_chord(tiny_info(16), 2, 8).unwrap();
        let outcome = swarm.stream_one(PeerClass::new(3).unwrap(), 8).unwrap();
        assert_eq!(outcome.supplier_count, 1);
        assert_eq!(swarm.supplier_count(), 3);
        // A second requester may now be served by the converted peer that
        // registered itself through the Chord ring.
        let outcome = swarm.stream_one(PeerClass::new(4).unwrap(), 8).unwrap();
        assert!(outcome.supplier_count >= 1);
        swarm.shutdown();
    }

    #[test]
    fn measured_delay_tracks_theorem_one() {
        let mut swarm = Swarm::start(tiny_info(32), 1).unwrap();
        // Pacing is exact to the microsecond and never early; what is
        // left is the host taking the CPU away for milliseconds now and
        // then, which no one of three sessions in a row is likely to meet.
        let mut past_us = Vec::new();
        for _ in 0..3 {
            let outcome = swarm.stream_one(PeerClass::new(3).unwrap(), 8).unwrap();
            let theorem_us = outcome.theoretical_delay_ms * 1_000;
            assert!(
                outcome.measured_delay_us >= theorem_us,
                "measured {} us, before the theoretical {} us",
                outcome.measured_delay_us,
                theorem_us
            );
            past_us.push(outcome.measured_delay_us - theorem_us);
        }
        assert!(
            past_us.iter().any(|us| *us <= 2_000),
            "every session started more than 2 ms past n·δt: {past_us:?} us"
        );
        swarm.shutdown();
    }
}
