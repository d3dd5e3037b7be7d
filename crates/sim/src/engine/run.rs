//! The bulk-synchronous-parallel amplification event loop.
//!
//! # Execution model
//!
//! Peers are partitioned over `shards()` logical shards by
//! `shard = id % S` (`local = id / S`). Each shard owns a
//! [`PeerStore`], an [`IndexedHeap`] event queue and reusable inboxes;
//! each worker owns, per message kind, one row of `S` destination
//! buckets. Virtual time advances in epochs of `epoch_secs()`; within an
//! epoch every shard processes its own events (arrivals, retries,
//! session completions, departures) against a *frozen* snapshot of the
//! supplier pools, and the §4.2 probe protocol runs as three
//! message-sorted rounds at the epoch boundary. Whoever emits a message
//! pushes it into its worker's bucket `dest % S`; the consuming shard
//! concatenates the buckets addressed to it, one per worker, and sorts
//! them — every message is written once and read once, whatever `S` is:
//!
//! 1. **local** — pop events `t < boundary`; admission attempts emit
//!    `Probe`s to the candidates' shards.
//! 2. **round 1** — each supplier handles its probes in sorted
//!    `(supplier, requester)` order: sync idle relaxation, then grant
//!    (at most one uncommitted grant per boundary, tracked in
//!    `provisional`), refuse, or report busy(+favored), emitting a
//!    `Reply`.
//! 3. **round 2** — each requester folds its replies in sorted
//!    `(requester, supplier class, supplier)` order: greedily accepts
//!    grants up to exactly `R0`, emitting `Begin`/`Release` commits; on
//!    failure it releases everything, picks the reminder set Ω greedily
//!    over the busy-favored repliers, and schedules its backoff retry.
//! 4. **round 3** — suppliers commit in sorted
//!    `(supplier, requester, action)` order: `Begin` starts the session
//!    (busy until `boundary + session`), `Release` clears the
//!    provisional grant, `Reminder` records the best reminder class.
//!
//! A round of shard `s` reads buckets of one kind — finished before the
//! barrier it starts behind — and writes only shard `s`'s own state and
//! its worker's row of the next kind, which is why routing needs no
//! barrier of its own: a worker crosses five an epoch (after local,
//! after each round, after finalize).
//!
//! Within a phase the workers *claim* shards from a shared counter, one
//! at a time, instead of each owning a fixed subset: a flash crowd puts
//! most of a run into a few dozen heavy phases, and with fixed subsets
//! every one of them lasts as long as the slower worker's half — a core
//! that another tenant of the machine slows down for a few milliseconds
//! is waited for in full. Claiming turns a phase's wall into its work
//! over what the cores deliver together. Which worker ran a shard is not
//! observable (see Determinism).
//!
//! Trace records never leave their shard: each is folded, as it is
//! emitted, into the shard's accumulator of a commutative multiset
//! digest (see `fold`). A serial **finalize** step then adds the
//! accumulators, applies the pool adds/removes in globally sorted order,
//! accumulates the exact fixed-point capacity delta, and samples the
//! capacity/rejection curves.
//!
//! # Determinism
//!
//! Every cross-shard effect flows through content-sorted boundary
//! exchanges, every random draw comes from the owning peer's private
//! SplitMix64 stream, and all merged metrics are integer sums — so a
//! given `(config, seed)` produces bit-identical traces for **any**
//! shard count and **any** thread count. The worker threads only pick
//! which shards they execute between barriers; they never influence
//! observable order.
//!
//! # Divergence from the legacy simulator
//!
//! [`crate::Simulation`] probes candidates one at a time and stops as
//! soon as `R0` is secured; the engine probes all `M` concurrently
//! (batched, like a pipelined implementation would) and resolves at the
//! boundary. Admission outcomes therefore differ in detail while
//! following the same §4.1/§4.2 rules; see `docs/AMPLIFICATION.md`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, RwLock};
use std::time::Instant;

use p2ps_core::admission::Protocol;
use p2ps_core::Bandwidth;
use rand::distributions::{Distribution, Zipf};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use super::config::{AmpConfig, MAX_PEERS};
use super::queue::IndexedHeap;
use super::report::{AmpReport, FoldCrossing};
use super::store::{flags, rng_next, rng_range, rng_stream, rng_unit, state, PeerStore};
use super::store::{PackedVector, NONE_U32};

// Event kinds, in tie-break order at equal timestamps.
const K_ATTEMPT: u8 = 0;
const K_COMPLETE: u8 = 1;
const K_RELEASE: u8 = 2;
const K_DEPART: u8 = 3;

// Trace record kinds.
const R_ATTEMPT: u8 = 0;
const R_ADMIT: u8 = 1;
const R_REJECT: u8 = 2;
const R_SUPPLY: u8 = 3;
const R_DEPART: u8 = 4;

// Reply verdicts, in sort order.
const V_GRANTED: u8 = 0;
const V_BUSY_FAVORED: u8 = 1;
const V_BUSY: u8 = 2;
const V_REFUSED: u8 = 3;

// Commit actions, in the order a supplier must apply them.
const A_BEGIN: u8 = 0;
const A_RELEASE: u8 = 1;
const A_REMIND: u8 = 2;

/// Packs one trace record: `t << 72 | kind << 64 | peer << 32 | aux`.
#[inline]
fn rec(t: u32, kind: u8, peer: u32, aux: u32) -> u128 {
    (u128::from(t) << 72) | (u128::from(kind) << 64) | (u128::from(peer) << 32) | u128::from(aux)
}

/// Folds one trace record into a digest of the *multiset* of records:
/// the wrapping sum of a 64-bit avalanche mix of each (two rounds of
/// SplitMix64's finalizer, one per half). Addition commutes, so shards
/// fold as they emit and sums merge in any order; unlike XOR it also
/// counts duplicates.
#[inline]
fn fold(digest: &mut u64, record: u128) {
    let mut state = (record >> 64) as u64;
    state = rng_next(&mut state) ^ record as u64;
    *digest = digest.wrapping_add(rng_next(&mut state));
}

/// Width of a peer id inside a boundary message or a queued event. Each
/// message packs its sort key and payload into one `u64` — two ids, a
/// 5-bit class and a 2-bit verdict or action — so an inbox sorts as
/// plain integers; [`AmpConfig`]'s `build` refuses a population beyond
/// `2^28`.
const ID_BITS: u32 = 28;
const _: () = assert!(MAX_PEERS == 1 << ID_BITS);
const ID_MASK: u64 = (1 << ID_BITS) - 1;
const CLASS_BITS: u32 = 5;
const CLASS_MASK: u64 = (1 << CLASS_BITS) - 1;

/// Packs one queued event, `t << 30 | kind << 28 | peer`, so the heap
/// orders `(time, kind, peer)` with one integer comparison.
#[inline]
fn event(t: u32, kind: u8, id: u32) -> u64 {
    u64::from(t) << (ID_BITS + 2) | u64::from(kind) << ID_BITS | u64::from(id)
}

/// A probe from `requester` (of `class`) to `supplier`, routed to the
/// supplier. Integer order is `(supplier, requester)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Probe(u64);

impl Probe {
    fn new(supplier: u32, requester: u32, class: u8) -> Self {
        Probe(
            u64::from(supplier) << (ID_BITS + CLASS_BITS)
                | u64::from(requester) << CLASS_BITS
                | u64::from(class),
        )
    }

    fn supplier(self) -> u32 {
        (self.0 >> (ID_BITS + CLASS_BITS)) as u32
    }

    fn requester(self) -> u32 {
        ((self.0 >> CLASS_BITS) & ID_MASK) as u32
    }

    fn class(self) -> u8 {
        (self.0 & CLASS_MASK) as u8
    }
}

/// A supplier's answer, routed to the requester. Integer order is the
/// requester's greedy order: `(requester, supplier class, supplier)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Reply(u64);

impl Reply {
    fn new(requester: u32, sup_class: u8, supplier: u32, verdict: u8) -> Self {
        Reply(
            u64::from(requester) << (CLASS_BITS + ID_BITS + 2)
                | u64::from(sup_class) << (ID_BITS + 2)
                | u64::from(supplier) << 2
                | u64::from(verdict),
        )
    }

    fn requester(self) -> u32 {
        (self.0 >> (CLASS_BITS + ID_BITS + 2)) as u32
    }

    fn sup_class(self) -> u8 {
        ((self.0 >> (ID_BITS + 2)) & CLASS_MASK) as u8
    }

    fn supplier(self) -> u32 {
        ((self.0 >> 2) & ID_MASK) as u32
    }

    fn verdict(self) -> u8 {
        (self.0 & 3) as u8
    }
}

/// A requester's resolution, routed back to the supplier. Integer order
/// is `(supplier, requester, action)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Commit(u64);

impl Commit {
    fn new(supplier: u32, requester: u32, action: u8, class: u8) -> Self {
        Commit(
            u64::from(supplier) << (ID_BITS + 2 + CLASS_BITS)
                | u64::from(requester) << (2 + CLASS_BITS)
                | u64::from(action) << CLASS_BITS
                | u64::from(class),
        )
    }

    fn supplier(self) -> u32 {
        (self.0 >> (ID_BITS + 2 + CLASS_BITS)) as u32
    }

    fn requester(self) -> u32 {
        ((self.0 >> (2 + CLASS_BITS)) & ID_MASK) as u32
    }

    fn action(self) -> u8 {
        ((self.0 >> CLASS_BITS) & 3) as u8
    }

    fn class(self) -> u8 {
        (self.0 & CLASS_MASK) as u8
    }
}

/// A deferred supplier-pool mutation, applied at finalize in globally
/// sorted order so pool layout is shard-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PoolOp {
    item: u16,
    id: u32,
    add: bool,
}

impl Ord for PoolOp {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // For one peer, `add` must sort before `remove`: a supplier that
        // converts and churns out within the same epoch queues both ops,
        // and applying the removal first would pop a peer that is not in
        // the pool yet.
        (self.item, self.id, !self.add).cmp(&(other.item, other.id, !other.add))
    }
}

impl PartialOrd for PoolOp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One kind of boundary message in flight, bucketed
/// `[emitting worker][destination shard]`. A worker is the only writer
/// of its row, and only in the phase that emits the kind; the phase
/// after the next barrier reads, for destination `d`, bucket `d` of
/// every row. Which row carried a message is not observable — inboxes
/// are content-sorted — so rows per worker rather than per shard cost
/// nothing in determinism and keep a delivery at `threads` buckets, not
/// `S`. Buckets start empty and keep their high-water capacity.
type Exchange<T> = Vec<RwLock<Vec<Vec<T>>>>;

fn exchange<T>(workers: usize, shard_count: usize) -> Exchange<T> {
    (0..workers)
        .map(|_| RwLock::new((0..shard_count).map(|_| Vec::new()).collect()))
        .collect()
}

/// Runs one emitting `phase` over a worker's `shards`, handing it the
/// worker's emptied row. The write guard is gone before the caller
/// reaches the barrier the readers wait behind.
fn emit<T>(
    row: &RwLock<Vec<Vec<T>>>,
    shards: impl Iterator<Item = usize>,
    mut phase: impl FnMut(usize, &mut [Vec<T>]),
) {
    let mut row = row.write().expect("a worker panicked");
    for bucket in row.iter_mut() {
        bucket.clear();
    }
    for s in shards {
        phase(s, &mut row);
    }
}

/// Emits `msg` for peer `dest` into the emitting worker's `row`.
#[inline]
fn post<T>(row: &mut [Vec<T>], dest: u32, msg: T) {
    let shard = dest as usize % row.len();
    row[shard].push(msg);
}

/// Delivers to shard `s` the messages addressed to it — one bucket of
/// every row — in content order, so neither the emitters' layout nor
/// the order of emission is observable.
fn collect<T: Copy + Ord>(exchange: &Exchange<T>, s: usize, inbox: &mut Vec<T>) {
    inbox.clear();
    for row in exchange {
        let row = row.read().expect("a worker panicked");
        inbox.extend_from_slice(&row[s]);
    }
    inbox.sort_unstable();
}

/// The four phases whose shards the workers claim, as indices into
/// `AmpEngine::claims`.
const LOCAL: usize = 0;
const SUPPLIER: usize = 1;
const REQUESTER: usize = 2;
const COMMIT: usize = 3;

/// The frozen supplier directory: per-item pools plus each peer's
/// position in its pool (for O(1) swap-removal).
#[derive(Debug, Default)]
struct Pools {
    by_item: Vec<Vec<u32>>,
    pos: Vec<u32>,
}

impl Pools {
    fn apply(&mut self, op: PoolOp) {
        let pool = &mut self.by_item[op.item as usize];
        if op.add {
            debug_assert_eq!(self.pos[op.id as usize], NONE_U32);
            self.pos[op.id as usize] = pool.len() as u32;
            pool.push(op.id);
        } else {
            let p = self.pos[op.id as usize];
            debug_assert_ne!(p, NONE_U32);
            pool.swap_remove(p as usize);
            self.pos[op.id as usize] = NONE_U32;
            if (p as usize) < pool.len() {
                self.pos[pool[p as usize] as usize] = p;
            }
        }
    }
}

/// One shard: peer state, event queue, inboxes, and epoch-local
/// accumulators. All buffers are reused across epochs.
#[derive(Debug, Default)]
struct Shard {
    store: PeerStore,
    queue: IndexedHeap<u64>,
    probes_in: Vec<Probe>,
    replies_in: Vec<Reply>,
    commits_in: Vec<Commit>,
    digest: u64,
    ops: Vec<PoolOp>,
    cand: Vec<u32>,
    accept: Vec<u32>,
    cap_delta: i64,
    e_attempts: u64,
    e_admits: u64,
    e_rejects: u64,
    e_supplies: u64,
    e_departs: u64,
    e_events: u64,
}

/// Serially merged run state.
#[derive(Debug, Default)]
struct Global {
    hash: u64,
    ops: Vec<PoolOp>,
    capacity_raw: i64,
    initial_capacity_raw: i64,
    next_fold_k: u32,
    fold_crossings: Vec<FoldCrossing>,
    capacity_curve: Vec<(u32, i64)>,
    rejection_curve: Vec<(u32, u64, u64)>,
    attempts: u64,
    admits: u64,
    rejects: u64,
    supplies: u64,
    departures: u64,
    events: u64,
    win_attempts: u64,
    win_rejects: u64,
}

/// Adapts a peer's raw SplitMix64 stream to [`rand::RngCore`] so the
/// vendored distributions (Zipf) can sample from it.
struct StreamRng<'a>(&'a mut u64);

impl RngCore for StreamRng<'_> {
    fn next_u32(&mut self) -> u32 {
        (rng_next(self.0) >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        rng_next(self.0)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// The capacity-amplification engine. See `docs/AMPLIFICATION.md` for
/// the execution model and determinism guarantees.
///
/// # Examples
///
/// ```
/// use p2ps_sim::{AmpConfig, AmpEngine};
///
/// let config = AmpConfig::builder()
///     .requesting_peers(2_000)
///     .seed_suppliers(16)
///     .catalog_items(4)
///     .arrival_window_secs(3_600)
///     .horizon_secs(4 * 3_600)
///     .build()?;
/// let report = AmpEngine::new(config, 42).run();
/// assert!(report.admits > 0);
/// assert!(report.amplification() > 1.0);
/// # Ok::<(), p2ps_sim::AmpConfigError>(())
/// ```
pub struct AmpEngine {
    config: AmpConfig,
    seed: u64,
    offers: [i64; 17],
    class_cdf: Vec<f64>,
    zipf: Zipf,
    shards: Vec<Mutex<Shard>>,
    probes: Exchange<Probe>,
    replies: Exchange<Reply>,
    commits: Exchange<Commit>,
    /// Next unclaimed shard of each phase of the running epoch.
    claims: [AtomicUsize; 4],
    pools: RwLock<Pools>,
    global: Mutex<Global>,
    consumed: bool,
    elapsed_micros: u64,
    threads_used: usize,
}

impl std::fmt::Debug for AmpEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmpEngine")
            .field("config", &self.config)
            .field("seed", &self.seed)
            .field("consumed", &self.consumed)
            .finish_non_exhaustive()
    }
}

impl AmpEngine {
    /// Builds an engine for `config`, allocating every buffer and
    /// placing all peers; `run` itself stays allocation-free once the
    /// buffers have reached their high-water marks.
    pub fn new(config: AmpConfig, seed: u64) -> Self {
        let mut offers = [0i64; 17];
        for (class, slot) in offers.iter_mut().enumerate().skip(1) {
            if class as u8 <= config.num_classes() {
                *slot = config.offer_raw(class as u8);
            }
        }
        let total: f64 = config.class_mix().iter().sum();
        let mut acc = 0.0;
        let class_cdf = config
            .class_mix()
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let zipf = Zipf::new(u64::from(config.catalog_items()), config.zipf_exponent());
        let shard_count = config.shards() as usize;
        let workers = config.workers();
        let per_shard = (config.total_peers() as usize).div_ceil(shard_count);
        let mut engine = AmpEngine {
            shards: (0..shard_count)
                .map(|_| {
                    Mutex::new(Shard {
                        store: PeerStore::with_capacity(per_shard),
                        queue: IndexedHeap::with_capacity(per_shard * 2 + 16),
                        cand: Vec::with_capacity(config.m()),
                        accept: Vec::with_capacity(config.m()),
                        ..Shard::default()
                    })
                })
                .collect(),
            probes: exchange(workers, shard_count),
            replies: exchange(workers, shard_count),
            commits: exchange(workers, shard_count),
            claims: Default::default(),
            pools: RwLock::new(Pools {
                by_item: vec![Vec::new(); config.catalog_items() as usize],
                pos: vec![NONE_U32; config.total_peers() as usize],
            }),
            global: Mutex::new(Global::default()),
            config,
            seed,
            offers,
            class_cdf,
            zipf,
            consumed: false,
            elapsed_micros: 0,
            threads_used: 0,
        };
        engine.setup();
        engine
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> &AmpConfig {
        &self.config
    }

    /// The seed of the current/next run.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Re-derives the initial state for `seed`, keeping every buffer's
    /// capacity, so a following [`run`](Self::run) on a warmed engine
    /// performs zero allocations.
    pub fn reset(&mut self, seed: u64) {
        self.seed = seed;
        self.setup();
        self.consumed = false;
    }

    fn setup(&mut self) {
        let cfg = &self.config;
        let s_count = cfg.shards();
        let seeds = cfg.seed_suppliers();
        let total = cfg.total_peers();
        let items = cfg.catalog_items();
        let protocol = cfg.protocol();
        let num_classes = cfg.num_classes();

        // Arrival times come from one global stream so they are
        // independent of the shard layout.
        let mut arr_rng = SmallRng::seed_from_u64(self.seed ^ 0x00A4_4C1F);
        let arrivals = cfg.process().generate(
            cfg.requesting_peers() as usize,
            u64::from(cfg.arrival_window_secs()),
            &mut arr_rng,
        );

        {
            let mut pools = self.pools.write().unwrap();
            for pool in &mut pools.by_item {
                pool.clear();
            }
            pools.pos.clear();
            pools.pos.resize(total as usize, NONE_U32);
        }
        {
            // Reset the merged state field by field so every buffer
            // keeps its high-water capacity across `reset()`.
            let mut g = self.global.lock().unwrap();
            g.hash = 0;
            g.ops.clear();
            g.capacity_raw = 0;
            g.initial_capacity_raw = 0;
            g.next_fold_k = 1;
            g.fold_crossings.clear();
            g.capacity_curve.clear();
            g.rejection_curve.clear();
            g.attempts = 0;
            g.admits = 0;
            g.rejects = 0;
            g.supplies = 0;
            g.departures = 0;
            g.events = 0;
            g.win_attempts = 0;
            g.win_rejects = 0;
        }

        let mut initial_capacity = 0i64;
        for (s, shard) in self.shards.iter().enumerate() {
            let mut shard = shard.lock().unwrap();
            let sh = &mut *shard;
            sh.store.clear();
            sh.queue.clear();
            sh.probes_in.clear();
            sh.replies_in.clear();
            sh.commits_in.clear();
            sh.digest = 0;
            sh.ops.clear();
            sh.cap_delta = 0;
            sh.e_attempts = 0;
            sh.e_admits = 0;
            sh.e_rejects = 0;
            sh.e_supplies = 0;
            sh.e_departs = 0;
            sh.e_events = 0;
            let mut id = s as u32;
            while id < total {
                let mut stream = rng_stream(self.seed, u64::from(id));
                if id < seeds {
                    // Seeds: class 1, spread round-robin over the catalog
                    // so every item has at least one supplier when
                    // seeds >= items.
                    let item = (id % u32::from(items)) as u16;
                    let local = sh.store.push(1, item, state::SUPPLYING, stream);
                    sh.store.vector[local] = PackedVector::initial(1, num_classes, protocol);
                    fold(&mut sh.digest, rec(0, R_SUPPLY, id, 1));
                    let mut pools = self.pools.write().unwrap();
                    pools.apply(PoolOp {
                        item,
                        id,
                        add: true,
                    });
                    initial_capacity += self.offers[1];
                } else {
                    let u = rng_unit(&mut stream);
                    let class =
                        (self.class_cdf.partition_point(|&c| c <= u) as u8 + 1).min(num_classes);
                    let item = (self.zipf.sample(&mut StreamRng(&mut stream)) - 1) as u16;
                    sh.store.push(class, item, state::WAITING, stream);
                    let at = arrivals[(id - seeds) as usize] as u32;
                    sh.queue.push(event(at, K_ATTEMPT, id));
                }
                id += s_count;
            }
        }
        let mut g = self.global.lock().unwrap();
        g.capacity_raw = initial_capacity;
        g.initial_capacity_raw = initial_capacity;
        // Anchor the evolution curve at the seed capacity so consumers
        // never have to special-case `t = 0`.
        g.capacity_curve.push((0, initial_capacity));
    }

    /// Executes the run and returns its report. Equivalent to
    /// [`execute`](Self::execute) followed by [`report`](Self::report).
    ///
    /// # Panics
    ///
    /// Panics if called twice without [`reset`](Self::reset) in
    /// between — the run consumes the scheduled state.
    pub fn run(&mut self) -> AmpReport {
        self.execute();
        self.report()
    }

    /// Executes the epoch loop without assembling a report. On a warmed
    /// engine (one prior identical run, then [`reset`](Self::reset))
    /// this performs **zero** heap allocations with `threads = 1`; the
    /// `zero_alloc_engine` integration test pins that.
    ///
    /// # Panics
    ///
    /// Panics if called twice without [`reset`](Self::reset).
    pub fn execute(&mut self) {
        assert!(
            !self.consumed,
            "AmpEngine::run called twice; call reset() first"
        );
        self.consumed = true;
        let start = Instant::now();
        let threads = self.config.workers();
        let barrier = Barrier::new(threads);
        if threads == 1 {
            // `thread::scope` allocates even when nothing is spawned.
            self.worker(0, &barrier);
        } else {
            let this = &*self;
            std::thread::scope(|scope| {
                for w in 1..threads {
                    let barrier = &barrier;
                    scope.spawn(move || this.worker(w, barrier));
                }
                this.worker(0, &barrier);
            });
        }
        self.elapsed_micros = start.elapsed().as_micros() as u64;
        self.threads_used = threads;
    }

    /// The shards of `phase` nobody has claimed yet, one per call, until
    /// all are taken. Worker 0 re-arms the counters in the serial
    /// finalize slot, when no worker is inside any phase; the barriers
    /// order everything else, so the counter itself can be relaxed.
    fn claim(&self, phase: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::from_fn(move || {
            let s = self.claims[phase].fetch_add(1, Ordering::Relaxed);
            (s < self.shards.len()).then_some(s)
        })
    }

    /// One worker: claims shards through the five barrier-separated
    /// phases of every epoch; worker 0 runs the serial finalize. Each of
    /// the three middle phases first collects what the phase before it
    /// emitted — finished buckets, read-only by now — and then writes
    /// only its own shard's state and this worker's row of the next
    /// kind, so routing and consuming need no barrier between them.
    /// With `threads = 1` the caller is the one worker and the barrier
    /// never blocks: the allocation-free measurement path.
    fn worker(&self, w: usize, barrier: &Barrier) {
        let epochs = self.config.epochs();
        let horizon = self.config.horizon_secs();
        for epoch in 0..epochs {
            let t_end = ((u64::from(epoch) + 1) * u64::from(self.config.epoch_secs()))
                .min(u64::from(horizon)) as u32;
            emit(&self.probes[w], self.claim(LOCAL), |s, out| {
                self.local_phase(s, t_end, out)
            });
            barrier.wait();
            emit(&self.replies[w], self.claim(SUPPLIER), |s, out| {
                self.supplier_phase(s, t_end, out)
            });
            barrier.wait();
            emit(&self.commits[w], self.claim(REQUESTER), |s, out| {
                self.requester_phase(s, t_end, out)
            });
            barrier.wait();
            for s in self.claim(COMMIT) {
                self.commit_phase(s, t_end);
            }
            barrier.wait();
            if w == 0 {
                self.finalize(epoch, t_end);
                for next in &self.claims {
                    next.store(0, Ordering::Relaxed);
                }
            }
            barrier.wait();
        }
    }

    /// Phase 1: drain this shard's events up to (excluding) `t_end`.
    fn local_phase(&self, s: usize, t_end: u32, out: &mut [Vec<Probe>]) {
        let cfg = &self.config;
        let mut shard = self.shards[s].lock().unwrap();
        let sh = &mut *shard;
        let pools = self.pools.read().unwrap();
        let shard_count = cfg.shards();
        let horizon = cfg.horizon_secs();
        let m = cfg.m();
        while let Some(&next) = sh.queue.peek() {
            let t = (next >> (ID_BITS + 2)) as u32;
            if t >= t_end {
                break;
            }
            let (kind, id) = ((next >> ID_BITS) as u8 & 3, (next & ID_MASK) as u32);
            sh.queue.pop();
            sh.e_events += 1;
            let local = (id / shard_count) as usize;
            match kind {
                K_ATTEMPT => {
                    if sh.store.state[local] != state::WAITING {
                        continue;
                    }
                    if sh.store.first_request[local] == 0 && sh.store.rejections[local] == 0 {
                        sh.store.first_request[local] = t;
                    }
                    let rejections = sh.store.rejections[local];
                    fold(&mut sh.digest, rec(t, R_ATTEMPT, id, u32::from(rejections)));
                    sh.e_attempts += 1;
                    let pool = &pools.by_item[sh.store.item[local] as usize];
                    if pool.is_empty() {
                        // No supplier for this item yet: an immediate
                        // rejection, resolved locally.
                        reject(sh, cfg, local, id, t, horizon);
                        continue;
                    }
                    let class = sh.store.class[local];
                    sh.cand.clear();
                    if pool.len() <= m {
                        sh.cand.extend_from_slice(pool);
                    } else {
                        while sh.cand.len() < m {
                            let c = pool
                                [rng_range(&mut sh.store.rng[local], pool.len() as u32) as usize];
                            if !sh.cand.contains(&c) {
                                sh.cand.push(c);
                            }
                        }
                    }
                    for &supplier in &sh.cand {
                        post(out, supplier, Probe::new(supplier, id, class));
                    }
                }
                K_COMPLETE => {
                    if sh.store.state[local] != state::STREAMING {
                        continue;
                    }
                    // Finished streaming: become a supplier of our own
                    // class (paper §2(1)).
                    let class = sh.store.class[local];
                    sh.store.state[local] = state::SUPPLYING;
                    sh.store.vector[local] =
                        PackedVector::initial(class, cfg.num_classes(), cfg.protocol());
                    sh.store.relax_anchor[local] = t;
                    sh.store.flags[local] = 0;
                    sh.store.provisional[local] = NONE_U32;
                    sh.store.best_reminder[local] = 0;
                    let item = sh.store.item[local];
                    sh.ops.push(PoolOp {
                        item,
                        id,
                        add: true,
                    });
                    sh.cap_delta += self.offers[class as usize];
                    fold(&mut sh.digest, rec(t, R_SUPPLY, id, u32::from(class)));
                    sh.e_supplies += 1;
                    let lifetime = cfg.supplier_lifetime_secs();
                    if lifetime > 0 {
                        let u = rng_unit(&mut sh.store.rng[local]);
                        let dt = (-(1.0 - u).ln() * f64::from(lifetime)) as u64;
                        let when = u64::from(t) + dt.max(1);
                        if when < u64::from(horizon) {
                            sh.queue.push(event(when as u32, K_DEPART, id));
                        }
                    }
                }
                K_RELEASE => {
                    if sh.store.state[local] != state::SUPPLYING {
                        continue;
                    }
                    debug_assert_ne!(sh.store.flags[local] & flags::BUSY, 0);
                    sh.store.flags[local] &= !flags::BUSY;
                    if cfg.protocol() == Protocol::Dac {
                        // End-of-session §4.1(c): relax on a quiet
                        // session, tighten to the best reminder left by
                        // a favored-but-turned-away class.
                        if sh.store.flags[local] & flags::SAW_FAVORED == 0 {
                            sh.store.vector[local].relax(cfg.num_classes());
                        } else if sh.store.best_reminder[local] > 0 {
                            let to = sh.store.best_reminder[local];
                            sh.store.vector[local].tighten(to, cfg.num_classes());
                        }
                    }
                    sh.store.flags[local] &= !flags::SAW_FAVORED;
                    sh.store.best_reminder[local] = 0;
                    sh.store.relax_anchor[local] = t;
                    if sh.store.flags[local] & flags::PENDING_DEPART != 0 {
                        depart(sh, &self.offers, local, id, t);
                    }
                }
                K_DEPART => {
                    if sh.store.state[local] != state::SUPPLYING {
                        continue;
                    }
                    if sh.store.flags[local] & flags::BUSY != 0 {
                        // Mid-session: finish serving, then leave.
                        sh.store.flags[local] |= flags::PENDING_DEPART;
                    } else {
                        depart(sh, &self.offers, local, id, t);
                    }
                }
                _ => unreachable!("unknown event kind {kind}"),
            }
        }
    }

    /// Round 1: suppliers answer the probes addressed to shard `s` at
    /// boundary `tb`.
    fn supplier_phase(&self, s: usize, tb: u32, out: &mut [Vec<Reply>]) {
        let cfg = &self.config;
        let mut shard = self.shards[s].lock().unwrap();
        let sh = &mut *shard;
        collect(&self.probes, s, &mut sh.probes_in);
        let shard_count = cfg.shards();
        for i in 0..sh.probes_in.len() {
            let p = sh.probes_in[i];
            sh.e_events += 1;
            let local = (p.supplier() / shard_count) as usize;
            let sup_class = sh.store.class[local];
            let verdict = if sh.store.state[local] != state::SUPPLYING {
                // Candidate departed during this epoch's local phase —
                // the pool snapshot it was sampled from predates that.
                V_REFUSED
            } else {
                sh.store
                    .sync_supplier(local, tb, cfg.t_out_secs(), cfg.protocol());
                if sh.store.flags[local] & flags::BUSY != 0 {
                    if sh.store.vector[local].favors(p.class()) {
                        sh.store.flags[local] |= flags::SAW_FAVORED;
                        V_BUSY_FAVORED
                    } else {
                        V_BUSY
                    }
                } else if sh.store.provisional[local] != NONE_U32 {
                    // Already granted this boundary; to a second
                    // requester the slot is taken.
                    V_BUSY
                } else if sh.store.vector[local]
                    .decide(p.class(), rng_next(&mut sh.store.rng[local]))
                {
                    sh.store.provisional[local] = p.requester();
                    V_GRANTED
                } else {
                    V_REFUSED
                }
            };
            post(
                out,
                p.requester(),
                Reply::new(p.requester(), sup_class, p.supplier(), verdict),
            );
        }
    }

    /// Round 2: the requesters of shard `s` fold their reply groups at
    /// boundary `tb`.
    fn requester_phase(&self, s: usize, tb: u32, out: &mut [Vec<Commit>]) {
        let cfg = &self.config;
        let mut shard = self.shards[s].lock().unwrap();
        let sh = &mut *shard;
        collect(&self.replies, s, &mut sh.replies_in);
        let shard_count = cfg.shards();
        let horizon = cfg.horizon_secs();
        let full = i64::from(Bandwidth::FULL_RATE.raw());
        let mut i = 0;
        while i < sh.replies_in.len() {
            let id = sh.replies_in[i].requester();
            let mut j = i;
            while j < sh.replies_in.len() && sh.replies_in[j].requester() == id {
                j += 1;
            }
            sh.e_events += 1;
            let local = (id / shard_count) as usize;
            let class = sh.store.class[local];
            // Greedy securing pass over the class-sorted grants
            // (`greedy_take` semantics; powers of two reach R0 exactly
            // whenever any subset does).
            sh.accept.clear();
            let mut total = 0i64;
            for (gi, r) in sh.replies_in[i..j].iter().enumerate() {
                if r.verdict() == V_GRANTED && total < full {
                    let offer = self.offers[r.sup_class() as usize];
                    if total + offer <= full {
                        total += offer;
                        sh.accept.push(gi as u32);
                    }
                }
            }
            if total == full {
                for (gi, r) in sh.replies_in[i..j].iter().enumerate() {
                    if r.verdict() == V_GRANTED {
                        let action = if sh.accept.contains(&(gi as u32)) {
                            A_BEGIN
                        } else {
                            A_RELEASE
                        };
                        let supplier = r.supplier();
                        post(out, supplier, Commit::new(supplier, id, action, class));
                    }
                }
                sh.store.state[local] = state::STREAMING;
                fold(&mut sh.digest, rec(tb, R_ADMIT, id, sh.accept.len() as u32));
                sh.e_admits += 1;
                let done = u64::from(tb) + u64::from(cfg.session_secs());
                if done < u64::from(horizon) {
                    sh.queue.push(event(done as u32, K_COMPLETE, id));
                }
            } else {
                // Failure: release everything, remind the Ω set of
                // busy-favored suppliers greedily covering the
                // shortfall R0 - secured (paper §4.2).
                let shortfall = full - total;
                let mut covered = 0i64;
                for r in &sh.replies_in[i..j] {
                    let supplier = r.supplier();
                    match r.verdict() {
                        V_GRANTED => {
                            post(out, supplier, Commit::new(supplier, id, A_RELEASE, class))
                        }
                        V_BUSY_FAVORED => {
                            let offer = self.offers[r.sup_class() as usize];
                            if covered < shortfall && covered + offer <= shortfall {
                                covered += offer;
                                post(out, supplier, Commit::new(supplier, id, A_REMIND, class));
                            }
                        }
                        _ => {}
                    }
                }
                reject(sh, cfg, local, id, tb, horizon);
            }
            i = j;
        }
    }

    /// Round 3: the suppliers of shard `s` apply begins, releases, and
    /// reminders.
    fn commit_phase(&self, s: usize, tb: u32) {
        let cfg = &self.config;
        let mut shard = self.shards[s].lock().unwrap();
        let sh = &mut *shard;
        collect(&self.commits, s, &mut sh.commits_in);
        let shard_count = cfg.shards();
        let horizon = cfg.horizon_secs();
        for i in 0..sh.commits_in.len() {
            let c = sh.commits_in[i];
            sh.e_events += 1;
            let local = (c.supplier() / shard_count) as usize;
            match c.action() {
                A_BEGIN => {
                    debug_assert_eq!(sh.store.provisional[local], c.requester());
                    debug_assert_eq!(sh.store.state[local], state::SUPPLYING);
                    sh.store.provisional[local] = NONE_U32;
                    sh.store.flags[local] &= !flags::SAW_FAVORED;
                    sh.store.flags[local] |= flags::BUSY;
                    sh.store.best_reminder[local] = 0;
                    let done = u64::from(tb) + u64::from(cfg.session_secs());
                    if done < u64::from(horizon) {
                        sh.queue.push(event(done as u32, K_RELEASE, c.supplier()));
                    }
                }
                A_RELEASE => {
                    if sh.store.provisional[local] == c.requester() {
                        sh.store.provisional[local] = NONE_U32;
                    }
                }
                A_REMIND => {
                    // Reference semantics: reminders only stick while
                    // the supplier is busy.
                    if sh.store.flags[local] & flags::BUSY != 0 {
                        let best = sh.store.best_reminder[local];
                        if best == 0 || c.class() < best {
                            sh.store.best_reminder[local] = c.class();
                        }
                    }
                }
                _ => unreachable!("unknown commit action"),
            }
        }
    }

    /// Serial epoch finalize: add up digests and counters, apply pool
    /// ops, advance capacity, and sample curves.
    fn finalize(&self, epoch: u32, t_end: u32) {
        let mut g = self.global.lock().unwrap();
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            let sh = &mut *shard;
            g.hash = g.hash.wrapping_add(sh.digest);
            sh.digest = 0;
            g.ops.append(&mut sh.ops);
            g.capacity_raw += sh.cap_delta;
            sh.cap_delta = 0;
            g.attempts += sh.e_attempts;
            g.admits += sh.e_admits;
            g.rejects += sh.e_rejects;
            g.supplies += sh.e_supplies;
            g.departures += sh.e_departs;
            g.events += sh.e_events;
            g.win_attempts += sh.e_attempts;
            g.win_rejects += sh.e_rejects;
            sh.e_attempts = 0;
            sh.e_admits = 0;
            sh.e_rejects = 0;
            sh.e_supplies = 0;
            sh.e_departs = 0;
            sh.e_events = 0;
        }
        g.ops.sort_unstable();
        {
            let mut pools = self.pools.write().unwrap();
            for i in 0..g.ops.len() {
                pools.apply(g.ops[i]);
            }
        }
        g.ops.clear();
        // Power-of-two amplification crossings against the seed
        // capacity (compared in i128: initial << k can exceed i64).
        while g.next_fold_k < 48
            && g.initial_capacity_raw > 0
            && i128::from(g.capacity_raw) >= i128::from(g.initial_capacity_raw) << g.next_fold_k
        {
            let factor = 1u64 << g.next_fold_k;
            g.fold_crossings.push(FoldCrossing {
                factor,
                at_secs: t_end,
            });
            g.next_fold_k += 1;
        }
        let epochs = self.config.epochs();
        let stride = (epochs / 256).max(1);
        if epoch % stride == stride - 1 || epoch + 1 == epochs {
            let cap = g.capacity_raw;
            g.capacity_curve.push((t_end, cap));
            let (wa, wr) = (g.win_attempts, g.win_rejects);
            g.rejection_curve.push((t_end, wa, wr));
            g.win_attempts = 0;
            g.win_rejects = 0;
        }
    }

    /// Assembles the report of the most recent
    /// [`execute`](Self::execute) (clones the merged state, so it can
    /// be called outside any allocation-counted region).
    pub fn report(&self) -> AmpReport {
        let g = self.global.lock().unwrap();
        AmpReport {
            peers: self.config.total_peers(),
            seeds: self.config.seed_suppliers(),
            shards: self.config.shards(),
            threads: self.threads_used,
            seed: self.seed,
            events: g.events,
            attempts: g.attempts,
            admits: g.admits,
            rejects: g.rejects,
            supplies: g.supplies,
            departures: g.departures,
            initial_capacity_raw: g.initial_capacity_raw,
            final_capacity_raw: g.capacity_raw,
            fold_crossings: g.fold_crossings.clone(),
            capacity_curve: g.capacity_curve.clone(),
            rejection_curve: g.rejection_curve.clone(),
            trace_hash: g.hash,
            elapsed_micros: self.elapsed_micros,
        }
    }
}

/// Records a rejection for `local`, schedules its backoff retry, and
/// bumps the epoch counters (shared by the empty-pool and boundary
/// paths).
fn reject(sh: &mut Shard, cfg: &AmpConfig, local: usize, id: u32, t: u32, horizon: u32) {
    let rejections = sh.store.rejections[local].saturating_add(1);
    sh.store.rejections[local] = rejections;
    fold(&mut sh.digest, rec(t, R_REJECT, id, u32::from(rejections)));
    sh.e_rejects += 1;
    // §4.2 backoff: T_bkf · E_bkf^(i-1) after the i-th rejection.
    let exp = u32::from(rejections - 1).min(30);
    let delay =
        u64::from(cfg.t_bkf_secs()).saturating_mul(u64::from(cfg.e_bkf()).saturating_pow(exp));
    let retry = u64::from(t).saturating_add(delay);
    if retry < u64::from(horizon) {
        sh.queue.push(event(retry as u32, K_ATTEMPT, id));
    }
    // Else: backed off past the horizon — the peer gives up.
}

/// Removes `local` from the system: pool removal op, capacity delta,
/// and the departure trace record.
fn depart(sh: &mut Shard, offers: &[i64; 17], local: usize, id: u32, t: u32) {
    sh.store.state[local] = state::DEPARTED;
    sh.store.flags[local] = 0;
    let item = sh.store.item[local];
    sh.ops.push(PoolOp {
        item,
        id,
        add: false,
    });
    sh.cap_delta -= offers[sh.store.class[local] as usize];
    fold(&mut sh.digest, rec(t, R_DEPART, id, 0));
    sh.e_departs += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrivalProcess;

    fn small_config() -> AmpConfig {
        AmpConfig::builder()
            .requesting_peers(2_000)
            .seed_suppliers(16)
            .catalog_items(4)
            .arrival_window_secs(2 * 3_600)
            .horizon_secs(6 * 3_600)
            .epoch_secs(60)
            .build()
            .unwrap()
    }

    /// The exchange as it was before bucketing, kept as the oracle:
    /// every shard scans every message of every outbox and keeps its own.
    fn scan<T: Copy + Ord>(outboxes: &[Vec<(u32, T)>], shard_count: u32, s: u32) -> Vec<T> {
        let mut inbox = Vec::new();
        for outbox in outboxes {
            for &(dest, msg) in outbox {
                if dest % shard_count == s {
                    inbox.push(msg);
                }
            }
        }
        inbox.sort_unstable();
        inbox
    }

    #[test]
    fn bucketed_delivery_matches_the_scan_it_replaced() {
        for shard_count in [1u32, 2, 3, 7, 64] {
            for workers in 1..=4 {
                let mut rng = rng_stream(workers as u64, u64::from(shard_count));
                let exchange = exchange(workers, shard_count as usize);
                let mut inbox = Vec::new();
                // Two boundaries on one exchange: the second must see
                // nothing of the first.
                for _boundary in 0..2 {
                    // Few distinct ids, so duplicates and empty buckets occur.
                    let outboxes: Vec<Vec<(u32, Probe)>> = (0..workers)
                        .map(|_| {
                            (0..rng_range(&mut rng, 400))
                                .map(|_| {
                                    let supplier = rng_range(&mut rng, 300);
                                    let requester = rng_range(&mut rng, 300);
                                    (supplier, Probe::new(supplier, requester, 1))
                                })
                                .collect()
                        })
                        .collect();
                    for (row, outbox) in exchange.iter().zip(&outboxes) {
                        emit(row, 0..1, |_, out| {
                            for &(dest, msg) in outbox {
                                post(out, dest, msg);
                            }
                        });
                    }
                    let mut delivered = 0;
                    for s in 0..shard_count {
                        collect(&exchange, s as usize, &mut inbox);
                        assert_eq!(
                            inbox,
                            scan(&outboxes, shard_count, s),
                            "{workers} worker(s), shard {s} of {shard_count}"
                        );
                        delivered += inbox.len();
                    }
                    let sent: usize = outboxes.iter().map(Vec::len).sum();
                    assert_eq!(delivered, sent, "every message is delivered exactly once");
                }
            }
        }
    }

    #[test]
    fn digest_depends_on_the_record_multiset_and_nothing_else() {
        let mut rng = rng_stream(3, 4);
        let mut trace: Vec<u128> = (0..500)
            .map(|_| {
                let (t, peer) = (rng_range(&mut rng, 14_400), rng_range(&mut rng, 1_000));
                rec(
                    t,
                    rng_range(&mut rng, 5) as u8,
                    peer,
                    rng_range(&mut rng, 8),
                )
            })
            .collect();
        trace.push(trace[0]); // the multiset has a genuine duplicate
        let digest = |trace: &[u128]| {
            let mut d = 0;
            trace.iter().for_each(|&r| fold(&mut d, r));
            d
        };
        let base = digest(&trace);

        // Emission order, and how the emissions split over shards, are
        // not observable.
        let mut permuted = trace.clone();
        permuted.reverse();
        assert_eq!(digest(&permuted), base);
        for i in (1..permuted.len()).rev() {
            permuted.swap(i, rng_range(&mut rng, i as u32 + 1) as usize);
        }
        assert_eq!(digest(&permuted), base);
        let (left, right) = permuted.split_at(123);
        assert_eq!(digest(left).wrapping_add(digest(right)), base);

        // Every record counts, as often as it occurs.
        for i in [0, 1, 250, trace.len() - 1] {
            let mut dropped = trace.clone();
            dropped.remove(i);
            assert_ne!(digest(&dropped), base, "dropping record {i}");
            let mut doubled = trace.clone();
            doubled.push(trace[i]);
            assert_ne!(digest(&doubled), base, "duplicating record {i}");
            let mut changed = trace.clone();
            changed[i] ^= 1;
            assert_ne!(digest(&changed), base, "changing record {i}");
        }
        // Under XOR a pair would cancel to the empty trace's digest.
        assert_ne!(digest(&[trace[0], trace[0]]), digest(&[]));
    }

    #[test]
    fn packed_messages_round_trip_and_sort_like_their_fields() {
        let mut rng = rng_stream(1, 2);
        // (id, id, class, 2-bit verdict or action), ids dense at both ends.
        let fields: Vec<(u32, u32, u8, u8)> = (0..2_000)
            .map(|_| {
                let mut id = || match rng_range(&mut rng, 4) {
                    0 => 0,
                    1 => MAX_PEERS - 1,
                    _ => rng_range(&mut rng, MAX_PEERS),
                };
                let (a, b) = (id(), id());
                let class = 1 + rng_range(&mut rng, 16) as u8;
                (a, b, class, rng_range(&mut rng, 4) as u8)
            })
            .collect();
        for &(a, b, class, two) in &fields {
            let p = Probe::new(a, b, class);
            assert_eq!((p.supplier(), p.requester(), p.class()), (a, b, class));
            let r = Reply::new(a, class, b, two);
            assert_eq!(
                (r.requester(), r.sup_class(), r.supplier(), r.verdict()),
                (a, class, b, two)
            );
            let c = Commit::new(a, b, two, class);
            assert_eq!(
                (c.supplier(), c.requester(), c.action(), c.class()),
                (a, b, two, class)
            );
        }
        for w in fields.windows(2) {
            let ((a, b, class, two), (a2, b2, class2, two2)) = (w[0], w[1]);
            assert_eq!(
                Probe::new(a, b, class).cmp(&Probe::new(a2, b2, class2)),
                (a, b, class).cmp(&(a2, b2, class2))
            );
            assert_eq!(
                Reply::new(a, class, b, two).cmp(&Reply::new(a2, class2, b2, two2)),
                (a, class, b, two).cmp(&(a2, class2, b2, two2))
            );
            assert_eq!(
                Commit::new(a, b, two, class).cmp(&Commit::new(a2, b2, two2, class2)),
                (a, b, two, class).cmp(&(a2, b2, two2, class2))
            );
        }
    }

    #[test]
    fn minimal_backoff_against_an_unseeded_item_terminates() {
        // One seed over two items: item 1 never has a supplier, so its
        // requesters are rejected locally and retry one second later
        // until the horizon. (A zero delay — which `build` now refuses —
        // re-queued them inside the same epoch forever.)
        let mut builder = AmpConfig::builder();
        builder
            .requesting_peers(100)
            .seed_suppliers(1)
            .catalog_items(2)
            .t_bkf_secs(1)
            .e_bkf(1)
            .arrival_window_secs(60)
            .horizon_secs(600)
            .epoch_secs(60);
        let r = AmpEngine::new(builder.build().unwrap(), 1).run();
        assert!(r.rejects > 600, "a starved requester retries every second");
        assert_eq!(r.attempts, r.rejects + r.admits);
    }

    #[test]
    fn small_run_amplifies_capacity() {
        let report = AmpEngine::new(small_config(), 7).run();
        assert!(report.attempts > 0);
        assert!(report.admits > 0, "no admissions: {report:?}");
        assert!(report.supplies > report.seeds as u64 / 2);
        assert!(
            report.amplification() > 2.0,
            "amp {}",
            report.amplification()
        );
        assert!(report.events > 0);
        assert_ne!(report.trace_hash, 0);
        assert!(!report.capacity_curve.is_empty());
        assert!(report.time_to_fold(2).is_some());
        // Crossings are monotone in factor and time.
        for w in report.fold_crossings.windows(2) {
            assert!(w[0].factor < w[1].factor);
            assert!(w[0].at_secs <= w[1].at_secs);
        }
    }

    #[test]
    fn same_seed_reproduces_the_trace_exactly() {
        let a = AmpEngine::new(small_config(), 99).run();
        let b = AmpEngine::new(small_config(), 99).run();
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.capacity_curve, b.capacity_curve);
        assert_eq!(a.events, b.events);
        let c = AmpEngine::new(small_config(), 100).run();
        assert_ne!(a.trace_hash, c.trace_hash);
    }

    #[test]
    fn thread_count_does_not_change_the_trace() {
        let mut builder = AmpConfig::builder();
        builder
            .requesting_peers(2_000)
            .seed_suppliers(16)
            .catalog_items(4)
            .arrival_window_secs(3_600)
            .horizon_secs(3 * 3_600)
            .shards(4);
        let base = AmpEngine::new(builder.build().unwrap(), 5).run();
        for threads in [2usize, 4] {
            let cfg = builder.threads(threads).build().unwrap();
            let r = AmpEngine::new(cfg, 5).run();
            assert_eq!(r.trace_hash, base.trace_hash, "threads {threads}");
            assert_eq!(r.final_capacity_raw, base.final_capacity_raw);
            assert_eq!(r.admits, base.admits);
        }
    }

    #[test]
    fn racing_workers_claim_every_shard_of_a_phase_exactly_once() {
        let mut builder = AmpConfig::builder();
        builder.requesting_peers(100).seed_suppliers(7).shards(7);
        let engine = AmpEngine::new(builder.build().unwrap(), 1);
        for phase in [LOCAL, SUPPLIER, REQUESTER, COMMIT] {
            let mut claimed: Vec<usize> = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..3)
                    .map(|_| scope.spawn(|| engine.claim(phase).collect::<Vec<_>>()))
                    .collect();
                racers.into_iter().flat_map(|r| r.join().unwrap()).collect()
            });
            claimed.sort_unstable();
            assert_eq!(claimed, (0..7).collect::<Vec<_>>(), "phase {phase}");
            assert_eq!(engine.claim(phase).next(), None, "phase {phase} is spent");
        }
        // A run leaves the counters armed for the next one.
        let mut engine = engine;
        for next in &engine.claims {
            next.store(0, Ordering::Relaxed);
        }
        engine.execute();
        assert_eq!(engine.claim(LOCAL).count(), 7);
    }

    #[test]
    fn shard_count_does_not_change_the_trace() {
        let mut builder = AmpConfig::builder();
        builder
            .requesting_peers(1_500)
            .seed_suppliers(12)
            .catalog_items(3)
            .arrival_window_secs(3_600)
            .horizon_secs(3 * 3_600);
        let base = AmpEngine::new(builder.shards(1).build().unwrap(), 11).run();
        for shards in [2u32, 4, 7] {
            let cfg = builder.shards(shards).build().unwrap();
            let r = AmpEngine::new(cfg, 11).run();
            assert_eq!(r.trace_hash, base.trace_hash, "shards {shards}");
            assert_eq!(r.capacity_curve, base.capacity_curve);
            assert_eq!(r.rejection_curve, base.rejection_curve);
        }
    }

    #[test]
    fn ndac_and_dac_produce_different_traces() {
        let mut builder = AmpConfig::builder();
        builder
            .requesting_peers(1_000)
            .seed_suppliers(8)
            .catalog_items(2)
            .arrival_window_secs(3_600)
            .horizon_secs(2 * 3_600);
        let dac = AmpEngine::new(builder.build().unwrap(), 3).run();
        let ndac = AmpEngine::new(builder.protocol(Protocol::Ndac).build().unwrap(), 3).run();
        assert_ne!(dac.trace_hash, ndac.trace_hash);
    }

    #[test]
    fn churn_causes_departures_and_caps_growth() {
        let mut builder = AmpConfig::builder();
        builder
            .requesting_peers(1_500)
            .seed_suppliers(12)
            .catalog_items(3)
            .arrival_window_secs(3_600)
            .horizon_secs(4 * 3_600);
        let stable = AmpEngine::new(builder.build().unwrap(), 21).run();
        let churned =
            AmpEngine::new(builder.supplier_lifetime_secs(1_800).build().unwrap(), 21).run();
        assert_eq!(stable.departures, 0);
        assert!(churned.departures > 0);
        assert!(churned.final_capacity_raw < stable.final_capacity_raw);
    }

    #[test]
    fn same_epoch_convert_and_depart_applies_in_order() {
        // A lifetime shorter than one epoch makes many suppliers queue
        // their pool `add` and churn `remove` at the same finalize;
        // PoolOp ordering must apply the add first (regression: the
        // derived Ord sorted removes first and finalize panicked).
        let mut builder = AmpConfig::builder();
        builder
            .requesting_peers(1_500)
            .seed_suppliers(12)
            .catalog_items(3)
            .supplier_lifetime_secs(30)
            .arrival_window_secs(3_600)
            .horizon_secs(4 * 3_600)
            .epoch_secs(60);
        let r = AmpEngine::new(builder.build().unwrap(), 5).run();
        assert!(r.departures > 0);
        let r2 = AmpEngine::new(builder.shards(2).build().unwrap(), 5).run();
        assert_eq!(r.trace_hash, r2.trace_hash);
    }

    #[test]
    fn flash_crowd_process_runs_to_completion() {
        let mut builder = AmpConfig::builder();
        builder
            .requesting_peers(1_500)
            .seed_suppliers(12)
            .catalog_items(3)
            .process(ArrivalProcess::flash_crowd())
            .arrival_window_secs(3_600)
            .horizon_secs(4 * 3_600);
        let r = AmpEngine::new(builder.build().unwrap(), 17).run();
        assert!(r.admits > 0);
        assert!(r.rejects > 0, "a flash crowd should saturate early seeds");
    }

    #[test]
    fn reset_reproduces_and_rerun_without_reset_panics() {
        let mut engine = AmpEngine::new(small_config(), 42);
        let first = engine.run();
        engine.reset(42);
        let second = engine.run();
        assert_eq!(first.trace_hash, second.trace_hash);
        assert_eq!(first.events, second.events);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run()));
        assert!(result.is_err(), "second run without reset must panic");
    }
}
