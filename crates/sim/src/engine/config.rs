//! Configuration for the capacity-amplification engine.

use serde::{Deserialize, Serialize};

use p2ps_core::admission::Protocol;

use crate::{ArrivalProcess, HOUR, MINUTE};

/// The largest population (seeds + requesters) an engine accepts:
/// `2^28` peers. The engine's boundary messages carry 28-bit peer ids so
/// that each packs, sort key and payload, into one `u64`.
pub(crate) const MAX_PEERS: u32 = 1 << 28;

/// Configuration errors raised by [`AmpConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AmpConfigError {
    /// Class count outside `1..=16`, or `classes + shift` overflowing.
    BadClassCount(u8),
    /// The per-class mix does not have one weight per class or sums to 0.
    BadClassMix,
    /// Zero requesting peers or zero seeds.
    EmptySystem,
    /// `m` (candidates per probe) must be at least 1.
    ZeroCandidates,
    /// The catalog needs at least one item.
    EmptyCatalog,
    /// The Zipf exponent must be finite and non-negative.
    BadZipfExponent(f64),
    /// Shard count must be at least 1.
    ZeroShards,
    /// Thread count must be at least 1.
    ZeroThreads,
    /// The epoch must be positive and no longer than the horizon.
    BadEpoch,
    /// The arrival window exceeds the horizon.
    WindowExceedsHorizon,
    /// Session duration must be positive.
    ZeroSessionDuration,
    /// The horizon exceeds the engine's `u32` second clock.
    HorizonOverflow,
    /// `T_bkf` or `E_bkf` is zero: a rejected peer would retry at the
    /// instant of its rejection, forever.
    ZeroBackoff,
    /// Seeds plus requesters (the value carried) exceed the `2^28`
    /// peers the engine's 28-bit message ids can address.
    TooManyPeers(u64),
}

impl std::fmt::Display for AmpConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AmpConfigError::BadClassCount(k) => write!(f, "invalid class count {k}"),
            AmpConfigError::BadClassMix => {
                write!(f, "class mix must have one positive-sum weight per class")
            }
            AmpConfigError::EmptySystem => write!(f, "need at least one seed and one requester"),
            AmpConfigError::ZeroCandidates => write!(f, "need at least one candidate per probe"),
            AmpConfigError::EmptyCatalog => write!(f, "catalog needs at least one item"),
            AmpConfigError::BadZipfExponent(s) => write!(f, "invalid Zipf exponent {s}"),
            AmpConfigError::ZeroShards => write!(f, "need at least one shard"),
            AmpConfigError::ZeroThreads => write!(f, "need at least one thread"),
            AmpConfigError::BadEpoch => write!(f, "epoch must be positive and within the horizon"),
            AmpConfigError::WindowExceedsHorizon => {
                write!(f, "arrival window exceeds the horizon")
            }
            AmpConfigError::ZeroSessionDuration => write!(f, "session duration must be positive"),
            AmpConfigError::HorizonOverflow => {
                write!(f, "horizon exceeds the engine's u32 second clock")
            }
            AmpConfigError::ZeroBackoff => {
                write!(
                    f,
                    "backoff base T_bkf and factor E_bkf must both be at least 1"
                )
            }
            AmpConfigError::TooManyPeers(n) => {
                write!(
                    f,
                    "{n} peers exceed the engine's limit of {MAX_PEERS} (28-bit ids)"
                )
            }
        }
    }
}

impl std::error::Error for AmpConfigError {}

/// Full parameterization of one amplification run.
///
/// Protocol parameters default to the paper's §5.1 values (`M = 8`,
/// `T_out = 20 min`, `T_bkf = 10 min`, `E_bkf = 2`, 60-minute sessions,
/// classes 1–4 at 10/10/40/40 %); the population, catalog, arrival
/// process, churn, and parallelism knobs are the engine's own.
///
/// The shard count is a *logical* property of the run: it selects which
/// peers exchange messages at which epoch boundary and is part of the
/// trace definition, while `threads` only chooses how many workers
/// execute those shards — any thread count yields a bit-identical trace.
/// The engine's cross-shard protocol additionally makes traces invariant
/// to the shard count itself; see `docs/AMPLIFICATION.md`.
///
/// # Examples
///
/// ```
/// use p2ps_sim::AmpConfig;
///
/// let config = AmpConfig::builder()
///     .requesting_peers(10_000)
///     .seed_suppliers(64)
///     .build()?;
/// assert_eq!(config.m(), 8);
/// # Ok::<(), p2ps_sim::AmpConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AmpConfig {
    seed_suppliers: u32,
    requesting_peers: u32,
    num_classes: u8,
    class_mix: Vec<f64>,
    m: usize,
    t_out_secs: u32,
    t_bkf_secs: u32,
    e_bkf: u32,
    session_secs: u32,
    arrival_window_secs: u32,
    horizon_secs: u32,
    epoch_secs: u32,
    process: ArrivalProcess,
    protocol: Protocol,
    bandwidth_shift: u8,
    catalog_items: u16,
    zipf_exponent: f64,
    supplier_lifetime_secs: u32,
    shards: u32,
    threads: usize,
}

impl AmpConfig {
    /// A builder preloaded with the defaults above.
    pub fn builder() -> AmpConfigBuilder {
        AmpConfigBuilder::default()
    }

    /// Number of seed suppliers (class 1, spread round-robin over the
    /// catalog at `t = 0`).
    pub fn seed_suppliers(&self) -> u32 {
        self.seed_suppliers
    }

    /// Number of requesting peers arriving during the window.
    pub fn requesting_peers(&self) -> u32 {
        self.requesting_peers
    }

    /// Total population (seeds + requesters), at most `2^28`.
    pub fn total_peers(&self) -> u32 {
        self.seed_suppliers + self.requesting_peers
    }

    /// Number of bandwidth classes `K`.
    pub fn num_classes(&self) -> u8 {
        self.num_classes
    }

    /// Relative weight of each class among requesting peers.
    pub fn class_mix(&self) -> &[f64] {
        &self.class_mix
    }

    /// Candidates probed per admission attempt (the paper's `M`).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Idle relaxation timeout `T_out` in seconds.
    pub fn t_out_secs(&self) -> u32 {
        self.t_out_secs
    }

    /// Base backoff `T_bkf` in seconds.
    pub fn t_bkf_secs(&self) -> u32 {
        self.t_bkf_secs
    }

    /// Exponential backoff factor `E_bkf`.
    pub fn e_bkf(&self) -> u32 {
        self.e_bkf
    }

    /// Streaming session duration in seconds.
    pub fn session_secs(&self) -> u32 {
        self.session_secs
    }

    /// First-time arrival window in seconds.
    pub fn arrival_window_secs(&self) -> u32 {
        self.arrival_window_secs
    }

    /// Simulated horizon in seconds.
    pub fn horizon_secs(&self) -> u32 {
        self.horizon_secs
    }

    /// Virtual-time epoch length in seconds. Admission attempts issued
    /// within an epoch resolve at its boundary.
    pub fn epoch_secs(&self) -> u32 {
        self.epoch_secs
    }

    /// The arrival process generating first-request times.
    pub fn process(&self) -> &ArrivalProcess {
        &self.process
    }

    /// Which admission protocol suppliers run.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Bandwidth scale shift: a class-`k` peer offers
    /// `R0 / 2^(k - 1 + shift)` once supplying (see
    /// [`crate::SimConfig::bandwidth_shift`]).
    pub fn bandwidth_shift(&self) -> u8 {
        self.bandwidth_shift
    }

    /// Number of items in the catalog.
    pub fn catalog_items(&self) -> u16 {
        self.catalog_items
    }

    /// Zipf popularity exponent over the catalog (`0` = uniform).
    pub fn zipf_exponent(&self) -> f64 {
        self.zipf_exponent
    }

    /// Mean supplier lifetime in seconds after becoming a supplier
    /// (exponentially distributed); `0` disables churn.
    pub fn supplier_lifetime_secs(&self) -> u32 {
        self.supplier_lifetime_secs
    }

    /// Logical shard count (part of the trace definition).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Worker threads executing the shards.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers an engine actually runs: `threads`, at most one a shard.
    pub(crate) fn workers(&self) -> usize {
        self.threads.min(self.shards as usize)
    }

    /// Number of epochs in the run (horizon / epoch, rounded up).
    pub fn epochs(&self) -> u32 {
        self.horizon_secs.div_ceil(self.epoch_secs)
    }

    /// The fixed-point serving capacity a protocol-class-`class` peer
    /// offers once supplying: `FULL_RATE >> (class + shift - 1)`.
    pub fn offer_raw(&self, class: u8) -> i64 {
        p2ps_core::Bandwidth::FULL_RATE.raw() as i64 >> (class + self.bandwidth_shift - 1)
    }
}

/// Builder for [`AmpConfig`] (non-consuming, per the API guidelines).
#[derive(Debug, Clone)]
pub struct AmpConfigBuilder {
    config: AmpConfig,
}

impl Default for AmpConfigBuilder {
    fn default() -> Self {
        AmpConfigBuilder {
            config: AmpConfig {
                seed_suppliers: 64,
                requesting_peers: 10_000,
                num_classes: 4,
                class_mix: vec![0.10, 0.10, 0.40, 0.40],
                m: 8,
                t_out_secs: 20 * MINUTE as u32,
                t_bkf_secs: 10 * MINUTE as u32,
                e_bkf: 2,
                session_secs: 60 * MINUTE as u32,
                arrival_window_secs: 6 * HOUR as u32,
                horizon_secs: 12 * HOUR as u32,
                epoch_secs: 60,
                process: ArrivalProcess::Poisson,
                protocol: Protocol::Dac,
                bandwidth_shift: 1,
                catalog_items: 16,
                zipf_exponent: 1.0,
                supplier_lifetime_secs: 0,
                shards: 4,
                threads: 1,
            },
        }
    }
}

impl AmpConfigBuilder {
    /// Sets the number of seed suppliers.
    pub fn seed_suppliers(&mut self, n: u32) -> &mut Self {
        self.config.seed_suppliers = n;
        self
    }

    /// Sets the number of requesting peers.
    pub fn requesting_peers(&mut self, n: u32) -> &mut Self {
        self.config.requesting_peers = n;
        self
    }

    /// Sets the number of classes and their mix weights.
    pub fn class_mix(&mut self, weights: Vec<f64>) -> &mut Self {
        self.config.num_classes = weights.len() as u8;
        self.config.class_mix = weights;
        self
    }

    /// Sets `M`, the candidates probed per attempt.
    pub fn m(&mut self, m: usize) -> &mut Self {
        self.config.m = m;
        self
    }

    /// Sets `T_out` in seconds.
    pub fn t_out_secs(&mut self, secs: u32) -> &mut Self {
        self.config.t_out_secs = secs;
        self
    }

    /// Sets `T_bkf` in seconds.
    pub fn t_bkf_secs(&mut self, secs: u32) -> &mut Self {
        self.config.t_bkf_secs = secs;
        self
    }

    /// Sets the exponential backoff factor `E_bkf`.
    pub fn e_bkf(&mut self, factor: u32) -> &mut Self {
        self.config.e_bkf = factor;
        self
    }

    /// Sets the session duration in seconds.
    pub fn session_secs(&mut self, secs: u32) -> &mut Self {
        self.config.session_secs = secs;
        self
    }

    /// Sets the first-time arrival window in seconds.
    pub fn arrival_window_secs(&mut self, secs: u32) -> &mut Self {
        self.config.arrival_window_secs = secs;
        self
    }

    /// Sets the simulated horizon in seconds.
    pub fn horizon_secs(&mut self, secs: u32) -> &mut Self {
        self.config.horizon_secs = secs;
        self
    }

    /// Sets the epoch length in seconds.
    pub fn epoch_secs(&mut self, secs: u32) -> &mut Self {
        self.config.epoch_secs = secs;
        self
    }

    /// Sets the arrival process.
    pub fn process(&mut self, process: ArrivalProcess) -> &mut Self {
        self.config.process = process;
        self
    }

    /// Sets the admission protocol.
    pub fn protocol(&mut self, protocol: Protocol) -> &mut Self {
        self.config.protocol = protocol;
        self
    }

    /// Sets the bandwidth scale shift.
    pub fn bandwidth_shift(&mut self, shift: u8) -> &mut Self {
        self.config.bandwidth_shift = shift;
        self
    }

    /// Sets the catalog size.
    pub fn catalog_items(&mut self, items: u16) -> &mut Self {
        self.config.catalog_items = items;
        self
    }

    /// Sets the Zipf popularity exponent (`0` = uniform).
    pub fn zipf_exponent(&mut self, s: f64) -> &mut Self {
        self.config.zipf_exponent = s;
        self
    }

    /// Churn: sets the mean supplier lifetime in seconds (`0` = off).
    pub fn supplier_lifetime_secs(&mut self, secs: u32) -> &mut Self {
        self.config.supplier_lifetime_secs = secs;
        self
    }

    /// Sets the logical shard count.
    pub fn shards(&mut self, shards: u32) -> &mut Self {
        self.config.shards = shards;
        self
    }

    /// Sets the worker thread count.
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.config.threads = threads;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Any [`AmpConfigError`] describing the first violated constraint.
    pub fn build(&self) -> Result<AmpConfig, AmpConfigError> {
        let c = &self.config;
        if c.num_classes == 0 || c.num_classes > 16 {
            return Err(AmpConfigError::BadClassCount(c.num_classes));
        }
        if c.num_classes.saturating_add(c.bandwidth_shift) > 16 {
            return Err(AmpConfigError::BadClassCount(
                c.num_classes.saturating_add(c.bandwidth_shift),
            ));
        }
        if c.class_mix.len() != c.num_classes as usize
            || c.class_mix.iter().any(|&w| !w.is_finite() || w < 0.0)
            || c.class_mix.iter().sum::<f64>() <= 0.0
        {
            return Err(AmpConfigError::BadClassMix);
        }
        if c.seed_suppliers == 0 || c.requesting_peers == 0 {
            return Err(AmpConfigError::EmptySystem);
        }
        let peers = u64::from(c.seed_suppliers) + u64::from(c.requesting_peers);
        if peers > u64::from(MAX_PEERS) {
            return Err(AmpConfigError::TooManyPeers(peers));
        }
        if c.m == 0 {
            return Err(AmpConfigError::ZeroCandidates);
        }
        if c.catalog_items == 0 {
            return Err(AmpConfigError::EmptyCatalog);
        }
        if !c.zipf_exponent.is_finite() || c.zipf_exponent < 0.0 {
            return Err(AmpConfigError::BadZipfExponent(c.zipf_exponent));
        }
        if c.shards == 0 {
            return Err(AmpConfigError::ZeroShards);
        }
        if c.threads == 0 {
            return Err(AmpConfigError::ZeroThreads);
        }
        if c.epoch_secs == 0 || c.epoch_secs > c.horizon_secs {
            return Err(AmpConfigError::BadEpoch);
        }
        if c.arrival_window_secs > c.horizon_secs || c.arrival_window_secs == 0 {
            return Err(AmpConfigError::WindowExceedsHorizon);
        }
        if c.session_secs == 0 {
            return Err(AmpConfigError::ZeroSessionDuration);
        }
        // A zero delay re-queues a rejected attempt at its own timestamp;
        // against an empty frozen pool the epoch would never end.
        if c.t_bkf_secs == 0 || c.e_bkf == 0 {
            return Err(AmpConfigError::ZeroBackoff);
        }
        // Session ends and departures must stay addressable on the u32
        // second clock even when scheduled at the horizon.
        if c.horizon_secs > u32::MAX / 2 {
            return Err(AmpConfigError::HorizonOverflow);
        }
        Ok(c.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper_protocol_parameters() {
        let c = AmpConfig::builder().build().unwrap();
        assert_eq!(c.m(), 8);
        assert_eq!(c.t_out_secs(), 1_200);
        assert_eq!(c.t_bkf_secs(), 600);
        assert_eq!(c.e_bkf(), 2);
        assert_eq!(c.session_secs(), 3_600);
        assert_eq!(c.num_classes(), 4);
        assert_eq!(c.class_mix(), &[0.10, 0.10, 0.40, 0.40]);
        assert_eq!(c.protocol(), Protocol::Dac);
        assert_eq!(c.epochs(), c.horizon_secs() / c.epoch_secs());
        assert_eq!(c.total_peers(), 10_064);
    }

    #[test]
    fn offer_raw_follows_the_class_and_shift() {
        let c = AmpConfig::builder().build().unwrap();
        // shift 1: class 1 offers half the full rate.
        assert_eq!(c.offer_raw(1), (1 << 16) / 2);
        assert_eq!(c.offer_raw(4), (1 << 16) / 16);
        let mut b = AmpConfig::builder();
        let literal = b.bandwidth_shift(0).build().unwrap();
        assert_eq!(literal.offer_raw(1), 1 << 16);
    }

    #[test]
    fn validation_errors() {
        let err = |f: &dyn Fn(&mut AmpConfigBuilder) -> &mut AmpConfigBuilder| {
            let mut b = AmpConfig::builder();
            f(&mut b);
            b.build().unwrap_err()
        };
        assert_eq!(
            err(&|b| b.class_mix(vec![])),
            AmpConfigError::BadClassCount(0)
        );
        assert_eq!(
            err(&|b| b.class_mix(vec![0.0, 0.0])),
            AmpConfigError::BadClassMix
        );
        assert_eq!(err(&|b| b.seed_suppliers(0)), AmpConfigError::EmptySystem);
        assert_eq!(err(&|b| b.requesting_peers(0)), AmpConfigError::EmptySystem);
        assert_eq!(err(&|b| b.m(0)), AmpConfigError::ZeroCandidates);
        assert_eq!(err(&|b| b.catalog_items(0)), AmpConfigError::EmptyCatalog);
        assert_eq!(
            err(&|b| b.zipf_exponent(-1.0)),
            AmpConfigError::BadZipfExponent(-1.0)
        );
        assert_eq!(err(&|b| b.shards(0)), AmpConfigError::ZeroShards);
        assert_eq!(err(&|b| b.threads(0)), AmpConfigError::ZeroThreads);
        assert_eq!(err(&|b| b.epoch_secs(0)), AmpConfigError::BadEpoch);
        assert_eq!(
            err(&|b| b
                .arrival_window_secs(u32::MAX / 2 + 2)
                .horizon_secs(u32::MAX / 2 + 2)),
            AmpConfigError::HorizonOverflow
        );
        assert_eq!(
            err(&|b| b.session_secs(0)),
            AmpConfigError::ZeroSessionDuration
        );
        assert_eq!(
            err(&|b| b.arrival_window_secs(100_000).horizon_secs(50_000)),
            AmpConfigError::WindowExceedsHorizon
        );
        assert_eq!(
            err(&|b| b.bandwidth_shift(13)),
            AmpConfigError::BadClassCount(17)
        );
        assert_eq!(err(&|b| b.t_bkf_secs(0)), AmpConfigError::ZeroBackoff);
        assert_eq!(err(&|b| b.e_bkf(0)), AmpConfigError::ZeroBackoff);
        for e in [
            AmpConfigError::BadClassCount(0),
            AmpConfigError::BadClassMix,
            AmpConfigError::EmptySystem,
            AmpConfigError::ZeroCandidates,
            AmpConfigError::EmptyCatalog,
            AmpConfigError::BadZipfExponent(f64::NAN),
            AmpConfigError::ZeroShards,
            AmpConfigError::ZeroThreads,
            AmpConfigError::BadEpoch,
            AmpConfigError::WindowExceedsHorizon,
            AmpConfigError::ZeroSessionDuration,
            AmpConfigError::HorizonOverflow,
            AmpConfigError::ZeroBackoff,
            AmpConfigError::TooManyPeers(0),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn population_is_bounded_by_the_message_id_width() {
        let mut b = AmpConfig::builder();
        let at_bound = b
            .seed_suppliers(1)
            .requesting_peers(MAX_PEERS - 1)
            .build()
            .unwrap();
        assert_eq!(at_bound.total_peers(), 1 << 28);
        assert_eq!(
            b.requesting_peers(MAX_PEERS).build().unwrap_err(),
            AmpConfigError::TooManyPeers((1 << 28) + 1)
        );
        // The sum is taken in u64: u32::MAX + 1 used to wrap to 0 peers.
        assert_eq!(
            b.requesting_peers(u32::MAX).build().unwrap_err(),
            AmpConfigError::TooManyPeers(1 << 32)
        );
    }
}
