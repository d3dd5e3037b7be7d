//! The four built-in selection policies.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use p2ps_core::assignment::otsp2p;
use p2ps_core::splitmix64;

use crate::plan::earliest_arrival_plan;
use crate::{PolicyError, PolicyPlan, SelectionPolicy, SessionContext};

/// The paper's §3 optimal assignment behind the policy trait.
///
/// Whenever the §3 preconditions hold (every supplier owns the full
/// file, offers sum to exactly `R0`, planning from the start of the
/// file), the plan *is* [`p2ps_core::assignment::otsp2p`] — the node's
/// pre-refactor code path, segment for segment. Outside those
/// preconditions (partial files, mid-stream replans, rate-mismatched
/// survivor sets) it falls back to a deadline-greedy assignment in
/// playback order, which preserves the policy's startup-first character.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Otsp2p;

impl SelectionPolicy for Otsp2p {
    fn name(&self) -> &'static str {
        "otsp2p"
    }

    fn plan(&self, ctx: &SessionContext) -> Result<PolicyPlan, PolicyError> {
        if ctx.supplier_count() == 0 {
            return Err(PolicyError::NoSuppliers);
        }
        if ctx.playhead() == 0 && ctx.all_full() && ctx.rate_matched() {
            let assignment = otsp2p(&ctx.classes())?;
            return Ok(PolicyPlan::from_assignment(&assignment));
        }
        let needed: Vec<u64> = ctx.needed().collect();
        earliest_arrival_plan(ctx, &needed)
    }

    fn replan(&self, ctx: &SessionContext, missing: &[u64]) -> Result<PolicyPlan, PolicyError> {
        let mut ordered = missing.to_vec();
        ordered.sort_unstable(); // earliest playback deadline first
        earliest_arrival_plan(ctx, &ordered)
    }
}

/// BitTorrent-style *sequential window* selection (the "sequential" /
/// in-order policy of the peer-selection literature): segments are
/// fetched in playback order, and within each window of `window`
/// segments every supplier receives one contiguous run sized by its
/// bandwidth share — the generalization of the paper's Figure-1
/// "Assignment I" from one period to an arbitrary window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequentialWindow {
    /// Lookahead window in segments (at least 1).
    pub window: u32,
}

impl SequentialWindow {
    /// A sequential policy with the given window.
    pub fn new(window: u32) -> Self {
        SequentialWindow {
            window: window.max(1),
        }
    }
}

impl Default for SequentialWindow {
    /// A 16-segment window, roughly two periods of the paper's
    /// four-class evaluation sessions.
    fn default() -> Self {
        SequentialWindow::new(16)
    }
}

impl SequentialWindow {
    fn windowed_plan(
        &self,
        ctx: &SessionContext,
        segments: &[u64],
    ) -> Result<PolicyPlan, PolicyError> {
        if ctx.supplier_count() == 0 {
            return Err(PolicyError::NoSuppliers);
        }
        // Suppliers in descending-bandwidth order (stable), as the
        // contiguous baseline sorts them.
        let mut order: Vec<usize> = (0..ctx.supplier_count()).collect();
        order.sort_by_key(|&i| (ctx.suppliers()[i].slots_per_segment(), i));
        let weights: Vec<f64> = order
            .iter()
            .map(|&i| 1.0 / ctx.suppliers()[i].slots_per_segment() as f64)
            .collect();
        let total_weight: f64 = weights.iter().sum();

        let mut lists: Vec<Vec<u64>> = vec![Vec::new(); ctx.supplier_count()];
        let mut leftovers: Vec<u64> = Vec::new();
        for window in segments.chunks(self.window as usize) {
            // Cumulative rounding partitions the window exactly, one
            // contiguous run per supplier, fastest first.
            let len = window.len() as f64;
            let mut cum = 0.0;
            let mut start = 0usize;
            for (rank, &i) in order.iter().enumerate() {
                cum += weights[rank];
                let end = ((len * cum / total_weight).round() as usize).min(window.len());
                for &seg in &window[start..end] {
                    if ctx.suppliers()[i].availability.has(seg) {
                        lists[i].push(seg);
                    } else {
                        leftovers.push(seg);
                    }
                }
                start = end;
            }
        }
        if !leftovers.is_empty() {
            // Partial-file gaps: hand the stragglers to whoever can
            // deliver them soonest, after the sequential runs.
            let mut busy: Vec<u64> = lists
                .iter()
                .enumerate()
                .map(|(i, l)| l.len() as u64 * ctx.suppliers()[i].slots_per_segment())
                .collect();
            leftovers.sort_unstable();
            for seg in leftovers {
                let best = ctx
                    .holders(seg)
                    .map(|i| {
                        let cost = ctx.suppliers()[i].slots_per_segment();
                        (busy[i] + cost, cost, i)
                    })
                    .min();
                if let Some((_, cost, i)) = best {
                    busy[i] += cost;
                    lists[i].push(seg);
                }
            }
        }
        PolicyPlan::explicit(ctx.total_segments(), lists)
    }
}

impl SelectionPolicy for SequentialWindow {
    fn name(&self) -> &'static str {
        "sequential-window"
    }

    fn plan(&self, ctx: &SessionContext) -> Result<PolicyPlan, PolicyError> {
        let needed: Vec<u64> = ctx.needed().collect();
        self.windowed_plan(ctx, &needed)
    }

    fn replan(&self, ctx: &SessionContext, missing: &[u64]) -> Result<PolicyPlan, PolicyError> {
        let mut ordered = missing.to_vec();
        ordered.sort_unstable();
        self.windowed_plan(ctx, &ordered)
    }
}

/// BitTorrent's *rarest-first* piece selection: segments held by the
/// fewest candidate suppliers are fetched first (ties broken by a
/// seeded hash — BitTorrent picks randomly among the rarest), each from
/// the supplier that can deliver it soonest.
///
/// Rarest-first maximizes piece diversity in swarms but ignores playback
/// order, which is exactly why the on-demand streaming literature finds
/// it hurts startup delay — the contrast the scenario matrix measures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RarestFirst;

impl RarestFirst {
    fn rarity_plan(
        &self,
        ctx: &SessionContext,
        segments: &[u64],
    ) -> Result<PolicyPlan, PolicyError> {
        if ctx.supplier_count() == 0 {
            return Err(PolicyError::NoSuppliers);
        }
        // Key each segment once up front: rarity costs a supplier scan
        // and the sort would otherwise recompute it per comparison.
        let mut keyed: Vec<(usize, u64, u64)> = segments
            .iter()
            .map(|&seg| (ctx.holders(seg).count(), splitmix64(ctx.seed() ^ seg), seg))
            .collect();
        keyed.sort_unstable();
        let ordered: Vec<u64> = keyed.into_iter().map(|(_, _, seg)| seg).collect();
        earliest_arrival_plan(ctx, &ordered)
    }
}

impl SelectionPolicy for RarestFirst {
    fn name(&self) -> &'static str {
        "rarest-first"
    }

    fn plan(&self, ctx: &SessionContext) -> Result<PolicyPlan, PolicyError> {
        let needed: Vec<u64> = ctx.needed().collect();
        self.rarity_plan(ctx, &needed)
    }

    fn replan(&self, ctx: &SessionContext, missing: &[u64]) -> Result<PolicyPlan, PolicyError> {
        self.rarity_plan(ctx, missing)
    }
}

/// The uniform-random floor: segments are transmitted in a seeded random
/// order, each by a uniformly chosen holder — no deadline awareness, no
/// load balancing. Every other policy should beat it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomBaseline;

impl RandomBaseline {
    fn random_plan(
        &self,
        ctx: &SessionContext,
        segments: &[u64],
    ) -> Result<PolicyPlan, PolicyError> {
        if ctx.supplier_count() == 0 {
            return Err(PolicyError::NoSuppliers);
        }
        let mut rng = SmallRng::seed_from_u64(splitmix64(ctx.seed() ^ 0x5e1e_c7ed));
        let mut ordered: Vec<u64> = segments.to_vec();
        // Fisher–Yates (the vendored rand has no shuffle helper).
        for i in (1..ordered.len()).rev() {
            let j = rng.gen_range(0..=i);
            ordered.swap(i, j);
        }
        let mut lists: Vec<Vec<u64>> = vec![Vec::new(); ctx.supplier_count()];
        for seg in ordered {
            let holders: Vec<usize> = ctx.holders(seg).collect();
            if holders.is_empty() {
                continue;
            }
            lists[holders[rng.gen_range(0..holders.len())]].push(seg);
        }
        PolicyPlan::explicit(ctx.total_segments(), lists)
    }
}

impl SelectionPolicy for RandomBaseline {
    fn name(&self) -> &'static str {
        "random"
    }

    fn plan(&self, ctx: &SessionContext) -> Result<PolicyPlan, PolicyError> {
        let needed: Vec<u64> = ctx.needed().collect();
        self.random_plan(ctx, &needed)
    }

    fn replan(&self, ctx: &SessionContext, missing: &[u64]) -> Result<PolicyPlan, PolicyError> {
        self.random_plan(ctx, missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SupplierView;
    use p2ps_core::PeerClass;

    fn classes(raw: &[u8]) -> Vec<PeerClass> {
        raw.iter().map(|&k| PeerClass::new(k).unwrap()).collect()
    }

    fn coverage(plan: &PolicyPlan, playhead: u64, total: u64) -> Vec<u64> {
        let mut all: Vec<u64> = plan.queues(playhead, total).into_iter().flatten().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn otsp2p_policy_matches_core_algorithm() {
        let cs = classes(&[4, 2, 4, 3]);
        let ctx = SessionContext::full(&cs, 16);
        let plan = Otsp2p.plan(&ctx).unwrap();
        let a = otsp2p(&cs).unwrap();
        assert_eq!(plan, PolicyPlan::from_assignment(&a));
        assert_eq!(plan.min_delay_slots(&ctx), 4);
    }

    #[test]
    fn otsp2p_falls_back_on_partial_files() {
        let ctx = SessionContext::new(
            vec![
                SupplierView::full(PeerClass::new(2).unwrap()),
                SupplierView::prefix(PeerClass::new(2).unwrap(), 4),
            ],
            8,
        );
        let plan = Otsp2p.plan(&ctx).unwrap();
        assert_eq!(coverage(&plan, 0, 8), (0..8).collect::<Vec<_>>());
        // The tail only the full supplier holds must sit in its queue.
        for seg in 4..8 {
            assert!(plan.queues(0, 8)[0].contains(&seg));
        }
    }

    #[test]
    fn every_policy_covers_a_full_session() {
        let cs = classes(&[2, 3, 4, 4]);
        let ctx = SessionContext::full(&cs, 24).with_seed(11);
        for policy in [
            &Otsp2p as &dyn SelectionPolicy,
            &SequentialWindow::default(),
            &RarestFirst,
            &RandomBaseline,
        ] {
            let plan = policy.plan(&ctx).unwrap();
            assert_eq!(
                coverage(&plan, 0, 24),
                (0..24).collect::<Vec<_>>(),
                "policy {}",
                policy.name()
            );
        }
    }

    #[test]
    fn policies_are_deterministic_per_seed() {
        let cs = classes(&[2, 3, 4, 4]);
        let ctx = SessionContext::full(&cs, 32).with_seed(42);
        for policy in [&RarestFirst as &dyn SelectionPolicy, &RandomBaseline] {
            let a = policy.plan(&ctx).unwrap();
            let b = policy.plan(&ctx).unwrap();
            assert_eq!(a, b, "policy {}", policy.name());
        }
        let other = SessionContext::full(&cs, 32).with_seed(43);
        assert_ne!(
            RandomBaseline.plan(&ctx).unwrap(),
            RandomBaseline.plan(&other).unwrap(),
            "different seeds should differ"
        );
    }

    #[test]
    fn sequential_window_mirrors_contiguous_within_one_period() {
        // Window == period over a rate-matched full-file session: the
        // first window is exactly the paper's Assignment I.
        let cs = classes(&[2, 3, 4, 4]);
        let ctx = SessionContext::full(&cs, 8);
        let plan = SequentialWindow::new(8).plan(&ctx).unwrap();
        let queues = plan.queues(0, 8);
        assert_eq!(queues[0], vec![0, 1, 2, 3]); // class-2: half the window
        assert_eq!(queues[1], vec![4, 5]); // class-3: a quarter
        assert_eq!(queues[2], vec![6]);
        assert_eq!(queues[3], vec![7]);
    }

    #[test]
    fn rarest_first_prioritizes_scarce_segments() {
        // Segments >= 6 are held only by the full supplier; rarest-first
        // must transmit them before the widely held prefix.
        let ctx = SessionContext::new(
            vec![
                SupplierView::full(PeerClass::new(2).unwrap()),
                SupplierView::prefix(PeerClass::new(2).unwrap(), 6),
                SupplierView::prefix(PeerClass::new(2).unwrap(), 6),
            ],
            8,
        );
        let plan = RarestFirst.plan(&ctx).unwrap();
        let full_queue = &plan.queues(0, 8)[0];
        let mut lead: Vec<u64> = full_queue[..2].to_vec();
        lead.sort_unstable(); // ties among equally rare segments break randomly
        assert_eq!(lead, vec![6, 7], "rarest segments lead");
    }

    #[test]
    fn random_baseline_is_worse_than_otsp2p_on_delay() {
        let cs = classes(&[2, 3, 4, 4]);
        let mut random_worse = 0;
        for seed in 0..16 {
            let ctx = SessionContext::full(&cs, 32).with_seed(seed);
            let opt = Otsp2p.plan(&ctx).unwrap().min_delay_slots(&ctx);
            let rnd = RandomBaseline.plan(&ctx).unwrap().min_delay_slots(&ctx);
            assert!(rnd >= opt, "seed {seed}: random {rnd} beat optimal {opt}");
            if rnd > opt {
                random_worse += 1;
            }
        }
        assert!(random_worse > 8, "random should usually be strictly worse");
    }

    #[test]
    fn empty_context_errors_for_all_policies() {
        let ctx = SessionContext::new(Vec::new(), 8);
        for policy in [
            &Otsp2p as &dyn SelectionPolicy,
            &SequentialWindow::default(),
            &RarestFirst,
            &RandomBaseline,
        ] {
            assert!(matches!(policy.plan(&ctx), Err(PolicyError::NoSuppliers)));
            assert!(matches!(
                policy.replan(&ctx, &[1]),
                Err(PolicyError::NoSuppliers)
            ));
        }
    }
}
