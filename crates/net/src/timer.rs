//! A two-level hashed timer wheel.
//!
//! The reactor needs two kinds of deadlines at thousands-of-timers scale:
//! paced segment transmissions (§3's `(p+1)·spp·δt` arrival schedule),
//! which are near and must fire on time, and per-connection read / grant /
//! idle timeouts, which are seconds away and almost never fire. One level
//! cannot serve both: a tick fine enough for pacing makes a rotation too
//! short for the timeouts, and a slot count that fixes that costs memory.
//!
//! So there are two levels over one tick. The **fine** level has one slot
//! per tick and holds every timer due within `slots` ticks of the cursor
//! (its *span*), so a slot holds timers of one tick only. The **coarse**
//! level has `slots` slots of one fine span each; a timer further out
//! than the fine span waits in the slot of its coarse tick modulo `slots`,
//! across as many rotations as it takes. When the cursor enters a coarse
//! tick, that slot's timers of this rotation **cascade** into the fine
//! level (or fire at once if the cursor jumped past them).
//!
//! The tick only says where a timer is kept, not when it fires:
//! [`advance`](TimerWheel::advance) empties the slots of the ticks that
//! have passed and picks from the running tick's slot what is due, so a
//! timer fires in the first `advance(now)` with `now >= deadline` and
//! never before, and [`next_timeout`](TimerWheel::next_timeout) is the
//! distance to the earliest deadline itself.
//!
//! Insert is O(1), a timer moves at most once, and `advance` touches one
//! fine slot per elapsed tick plus one coarse slot per elapsed fine span.
//! The type is unit-agnostic: the reactor runs it in microseconds.
//!
//! Cancellation is the caller's job (the reactor stamps every key with a
//! sequence number and drops stale fires), which keeps the wheel itself
//! simple.

/// A two-level timer wheel over integer deadlines in the caller's unit.
///
/// # Examples
///
/// ```
/// use p2ps_net::TimerWheel;
///
/// let mut wheel: TimerWheel<&'static str> = TimerWheel::new(2, 256);
/// wheel.insert(10, "read-timeout");
/// wheel.insert(4, "pace");
/// let mut fired = Vec::new();
/// wheel.advance(5, &mut fired);
/// assert_eq!(fired, vec!["pace"]);
/// wheel.advance(10, &mut fired);
/// assert_eq!(fired, vec!["pace", "read-timeout"]);
/// ```
#[derive(Debug)]
pub struct TimerWheel<K> {
    /// `fine[t % slots]` holds the `(deadline, key)` of tick
    /// `t = deadline / tick`, for the ticks `cursor <= t < cursor + slots`
    /// (an overdue timer is kept in the cursor's slot).
    fine: Vec<Vec<(u64, K)>>,
    /// `coarse[c % slots]` holds the timers of coarse tick
    /// `c = deadline / tick / slots` that were further out than the fine
    /// span when inserted. Every entry's coarse tick is after the one the
    /// cursor is in.
    coarse: Vec<Vec<(u64, K)>>,
    tick: u64,
    /// The running tick: every timer of an earlier tick has fired.
    cursor: u64,
    len: usize,
}

impl<K> TimerWheel<K> {
    /// A wheel of `tick` granularity with `slots` slots per level: the
    /// fine level spans `slots · tick`, one coarse rotation
    /// `slots² · tick` (timers beyond that stay put across rotations).
    ///
    /// # Panics
    ///
    /// Panics if `tick` or `slots` is zero.
    pub fn new(tick: u64, slots: usize) -> Self {
        assert!(tick > 0, "tick must be positive");
        assert!(slots > 0, "wheel needs at least one slot");
        TimerWheel {
            fine: (0..slots).map(|_| Vec::new()).collect(),
            coarse: (0..slots).map(|_| Vec::new()).collect(),
            tick,
            cursor: 0,
            len: 0,
        }
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slots(&self) -> u64 {
        self.fine.len() as u64
    }

    /// Schedules `key` to fire once `advance` reaches `deadline`.
    /// A deadline already in the past fires on the next `advance`.
    pub fn insert(&mut self, deadline: u64, key: K) {
        // Never behind the cursor, so it cannot be missed.
        let tick = (deadline / self.tick).max(self.cursor);
        let n = self.slots();
        if tick - self.cursor < n {
            self.fine[(tick % n) as usize].push((deadline, key));
        } else {
            self.coarse[(tick / n % n) as usize].push((deadline, key));
        }
        self.len += 1;
    }

    /// Fires every timer with `deadline <= now` into `out` (appending;
    /// the caller owns draining it).
    pub fn advance(&mut self, now: u64, out: &mut Vec<K>) {
        let now_tick = now / self.tick;
        if now_tick < self.cursor {
            return;
        }
        let n = self.slots();
        let fired_before = out.len();
        // The ticks that have passed: everything in their slots is due. A
        // jump past the whole span visits each slot exactly once.
        for step in 0..(now_tick - self.cursor).min(n) {
            let slot = &mut self.fine[((self.cursor + step) % n) as usize];
            out.extend(slot.drain(..).map(|(_, key)| key));
        }
        // Every coarse tick the cursor enters hands down its timers of
        // this rotation; a jump past a full rotation visits each slot once.
        let (first, last) = (self.cursor / n + 1, now_tick / n);
        for step in 0..(last + 1).saturating_sub(first).min(n) {
            let slot = &mut self.coarse[((first + step) % n) as usize];
            let mut i = 0;
            while i < slot.len() {
                let tick = slot[i].0 / self.tick;
                if tick / n > last {
                    i += 1; // a later rotation's timer stays put
                } else {
                    // Into its own slot, or the running tick's if the
                    // cursor jumped past it: the sweep below fires it.
                    let entry = slot.swap_remove(i);
                    self.fine[(tick.max(now_tick) % n) as usize].push(entry);
                }
            }
            // What a burst of timeouts grew (a storm of retried
            // handshakes) is not kept for the trickle that follows it.
            slot.shrink_to(2 * slot.len());
        }
        // The running tick: only what is due.
        let slot = &mut self.fine[(now_tick % n) as usize];
        let mut i = 0;
        while i < slot.len() {
            if slot[i].0 <= now {
                out.push(slot.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        self.len -= out.len() - fired_before;
        self.cursor = now_tick;
    }

    /// How long the caller may sleep from `now` without being late for a
    /// timer: the distance to the earliest pending deadline, or `cap` if
    /// nothing is due before `now + cap`.
    pub fn next_timeout(&self, now: u64, cap: u64) -> u64 {
        if self.len == 0 {
            return cap;
        }
        let n = self.slots();
        let earliest = |slot: &Vec<(u64, K)>| slot.iter().map(|&(deadline, _)| deadline).min();
        // Ticks worth looking at: a timer past `now + cap` cannot shorten
        // the sleep.
        let horizon = (now.saturating_add(cap) / self.tick).max(self.cursor);
        let fine = (self.cursor..=horizon.min(self.cursor + n - 1))
            .find_map(|t| earliest(&self.fine[(t % n) as usize]));
        // A coarse timer can precede a fine one: it was far out when it
        // was inserted and the cursor has since come close. Coarse ticks
        // past the fine one (or the horizon) cannot hold anything earlier.
        let first = self.cursor / n + 1;
        let last = fine.map_or(horizon, |deadline| deadline / self.tick) / n;
        let coarse = if last.saturating_sub(first) >= n {
            // More than a rotation in range: every timer is a candidate.
            self.coarse.iter().filter_map(earliest).min()
        } else {
            (first..=last).find_map(|c| {
                // Of the slot's timers, those of this rotation.
                let slot = self.coarse[(c % n) as usize].iter();
                let deadlines = slot.map(|&(deadline, _)| deadline);
                deadlines.filter(|d| d / self.tick / n == c).min()
            })
        };
        match fine.into_iter().chain(coarse).min() {
            Some(deadline) => deadline.saturating_sub(now).min(cap),
            None => cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fires_in_deadline_windows_not_before() {
        let mut w: TimerWheel<u32> = TimerWheel::new(2, 8);
        w.insert(10, 1);
        let mut out = Vec::new();
        w.advance(9, &mut out);
        assert!(out.is_empty(), "not due yet");
        w.advance(10, &mut out);
        assert_eq!(out, vec![1]);
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_timers_survive_rotations() {
        // 8 slots × 2 ms = 16 ms rotation; a 100 ms timer shares a slot
        // with near ones but must only fire at 100.
        let mut w: TimerWheel<&str> = TimerWheel::new(2, 8);
        w.insert(100, "far");
        w.insert(4, "near");
        let mut out = Vec::new();
        w.advance(50, &mut out);
        assert_eq!(out, vec!["near"]);
        out.clear();
        w.advance(99, &mut out);
        assert!(out.is_empty());
        w.advance(120, &mut out);
        assert_eq!(out, vec!["far"]);
    }

    #[test]
    fn past_deadlines_fire_immediately_even_after_a_jump() {
        let mut w: TimerWheel<u32> = TimerWheel::new(2, 8);
        let mut out = Vec::new();
        w.advance(1_000, &mut out); // move the cursor far ahead
        w.insert(5, 7); // already in the past
        w.advance(1_002, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn huge_jump_sweeps_every_slot_once() {
        let mut w: TimerWheel<u32> = TimerWheel::new(1, 4);
        for t in 0..100 {
            w.insert(t, t as u32);
        }
        let mut out = Vec::new();
        w.advance(1_000_000, &mut out);
        assert_eq!(out.len(), 100, "all timers fire on a giant jump");
        assert!(w.is_empty());
    }

    #[test]
    fn timeout_hint_is_never_late() {
        let mut w: TimerWheel<u32> = TimerWheel::new(2, 16);
        assert_eq!(w.next_timeout(0, 100), 100, "empty wheel sleeps the cap");
        w.insert(19, 1);
        assert_eq!(w.next_timeout(0, 100), 19, "the deadline, not its tick");
        assert_eq!(w.next_timeout(7, 100), 12);
        assert_eq!(w.next_timeout(7, 10), 10, "capped");
        assert_eq!(w.next_timeout(25, 100), 0, "overdue timer: do not sleep");
    }

    #[test]
    fn timeout_hint_ignores_a_later_rotation_in_the_slot() {
        // Fine span 16, coarse rotation 128. One far timer, no traffic:
        // the hint must be the cap in every rotation before the timer's
        // own, not "the slot is not empty".
        let mut w: TimerWheel<u32> = TimerWheel::new(2, 8);
        w.insert(300, 1); // tick 150, coarse tick 18 → slot 2, third rotation
        w.insert(56, 0); // tick 28, coarse tick 3 → slot 3: behind it, but first
        assert_eq!(w.next_timeout(0, 100), 56);
        let mut out = Vec::new();
        w.advance(56, &mut out);
        assert_eq!(std::mem::take(&mut out), vec![0]);
        for now in [56, 60, 64, 160, 170, 250] {
            w.advance(now, &mut out);
            assert_eq!(w.next_timeout(now, 20), 20, "at {now}");
        }
        assert!(out.is_empty());
        // Nor does it hide a timer of this rotation in the slot behind it.
        w.insert(312, 2); // coarse tick 19 → slot 3
        assert_eq!(w.next_timeout(250, 100), 50, "in range: the deadline");
        w.advance(290, &mut out);
        assert_eq!(w.next_timeout(290, 100), 10, "and after it cascaded");
        w.advance(300, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(w.next_timeout(300, 100), 12);
    }

    #[test]
    fn deadlines_on_the_fine_span_boundary_cascade_in_time() {
        // Fine span: ticks 0..8, deadlines 0..=15; 16 and 17 are of tick
        // 8, the first coarse one.
        let mut w: TimerWheel<u32> = TimerWheel::new(2, 8);
        for deadline in [14, 15, 16, 17] {
            w.insert(deadline, deadline as u32);
        }
        assert_eq!(w.len(), 4);
        let mut out = Vec::new();
        w.advance(13, &mut out);
        assert!(out.is_empty());
        w.advance(14, &mut out);
        assert_eq!(out, vec![14]);
        w.advance(15, &mut out);
        assert_eq!(out, vec![14, 15]);
        // Entering coarse tick 1 fires what is due and hands the rest down.
        w.advance(16, &mut out);
        assert_eq!(out, vec![14, 15, 16]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_timeout(16, 100), 1);
        w.advance(17, &mut out);
        assert_eq!(out, vec![14, 15, 16, 17]);
        assert!(w.is_empty());
    }

    #[test]
    fn a_timer_cascades_into_the_fine_level_and_fires_from_there() {
        let mut w: TimerWheel<u32> = TimerWheel::new(2, 8);
        w.insert(40, 1); // tick 20, coarse tick 2
        let mut out = Vec::new();
        w.advance(33, &mut out); // cursor enters coarse tick 2 at tick 16
        assert!(out.is_empty());
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_timeout(33, 100), 7);
        w.advance(39, &mut out);
        assert!(out.is_empty());
        w.advance(40, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn a_timer_reinserted_while_its_batch_is_dispatched_fires_next_turn() {
        // The reactor collects a batch with `advance`, then runs the
        // handlers, which re-arm — possibly for a deadline already past.
        let mut w: TimerWheel<u32> = TimerWheel::new(2, 8);
        w.insert(10, 1);
        let mut out = Vec::new();
        w.advance(11, &mut out);
        assert_eq!(out, vec![1]);
        w.insert(9, 2); // behind the cursor
        w.insert(11, 3); // in the running tick, due
        w.insert(12, 4); // not due
        assert_eq!(w.next_timeout(11, 100), 0);
        out.clear();
        w.advance(11, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![2, 3], "the next batch, without 4");
        assert_eq!(w.next_timeout(11, 100), 1);
        w.advance(12, &mut out);
        assert_eq!(out, vec![2, 3, 4]);
    }

    /// The naive model: every pending `(deadline, key)` in a flat list.
    #[derive(Default)]
    struct Model(Vec<(u64, u32)>);

    impl Model {
        fn advance(&mut self, now: u64) -> Vec<u32> {
            let (due, rest) = self.0.iter().partition(|(deadline, _)| *deadline <= now);
            self.0 = rest;
            due.into_iter().map(|(_, key)| key).collect()
        }

        fn next_timeout(&self, now: u64, cap: u64) -> u64 {
            let next = self.0.iter().map(|(deadline, _)| *deadline).min();
            next.map_or(cap, |at| at.saturating_sub(now).min(cap))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random near and far deadlines against random clock steps,
        /// jumps past the fine span and past a whole coarse rotation
        /// included: every key fires exactly once, in the first `advance`
        /// that reaches its deadline and so never before it, and the
        /// sleep hint is the distance to the earliest deadline.
        #[test]
        fn wheel_matches_the_naive_model(
            tick in 1u64..5,
            slots in 1usize..10,
            ops in prop::collection::vec((0u8..10, any::<u32>()), 1..200),
        ) {
            let span = tick * slots as u64;
            let rotation = span * slots as u64;
            let mut wheel: TimerWheel<u32> = TimerWheel::new(tick, slots);
            let mut model = Model::default();
            let mut now = 0u64;
            let mut fired = Vec::new();
            for (key, (op, arg)) in ops.into_iter().enumerate() {
                let arg = u64::from(arg);
                let step = match op {
                    // Insert: behind the clock, within the fine span,
                    // within a rotation, several rotations out.
                    0 => Err(now.saturating_sub(arg % (span + 1))),
                    1..=2 => Err(now + arg % (span + 2)),
                    3 => Err(now + arg % (rotation + 2)),
                    4 => Err(now + arg % (3 * rotation + 2)),
                    // Advance: not at all, by ticks, by spans, by rotations.
                    5 => Ok(0),
                    6..=7 => Ok(arg % (2 * tick + 1)),
                    8 => Ok(arg % (2 * span + 1)),
                    _ => Ok(arg % (2 * rotation + 2)),
                };
                match step {
                    Err(deadline) => {
                        wheel.insert(deadline, key as u32);
                        model.0.push((deadline, key as u32));
                    }
                    Ok(step) => {
                        now += step;
                        fired.clear();
                        wheel.advance(now, &mut fired);
                        fired.sort_unstable();
                        let mut expected = model.advance(now);
                        expected.sort_unstable();
                        prop_assert_eq!(&fired, &expected, "at {}", now);
                    }
                }
                prop_assert_eq!(wheel.len(), model.0.len());
                for cap in [0, tick, span, rotation - span, 4 * rotation] {
                    prop_assert_eq!(
                        wheel.next_timeout(now, cap),
                        model.next_timeout(now, cap),
                        "hint at {} capped {}", now, cap
                    );
                }
            }
        }
    }
}
