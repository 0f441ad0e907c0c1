//! Performance counters: the observable cost of simulated kernels.
//!
//! Real GPU dynamic-graph performance is dominated by global-memory traffic.
//! Every warp-level memory operation in the simulator charges these counters;
//! [`crate::CostModel`] converts a [`CounterSnapshot`] into modeled time.
//!
//! The seven hardware events are named once, in [`CounterSnapshot`]'s
//! fields and the [`CounterSnapshot::NAMES`] table beside them; every
//! other counter record (the live atomics, attempt buffers, per-kernel and
//! per-span tallies, report rows) is one of these two types.

use std::ops::{Add, AddAssign};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of hardware events in the counter set.
pub(crate) const EVENTS: usize = 7;

/// One hardware event: its index into [`CounterSnapshot::NAMES`] and into
/// [`PerfCounters`]' atomics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    Transactions,
    Atomics,
    Ballots,
    Shuffles,
    Launches,
    Warps,
    WordsAllocated,
}

/// Shared, thread-safe tally of simulated hardware events.
///
/// One instance lives in each [`crate::Device`]; all warps (and all executor
/// threads) charge into it with relaxed atomics. Only the simulator itself
/// can charge it: outside this crate the counters are read-only, so manual
/// charge sites must go through [`crate::Device::charge`].
///
/// ```compile_fail,E0616
/// use std::sync::atomic::Ordering;
/// let dev = gpu_sim::Device::new(64);
/// dev.counters().events[0].fetch_add(1, Ordering::Relaxed);
/// ```
///
/// ```compile_fail,E0624
/// let dev = gpu_sim::Device::new(64);
/// dev.counters().add_all(dev.counters().snapshot());
/// ```
#[derive(Debug, Default)]
pub struct PerfCounters {
    /// One atomic per event, in [`CounterSnapshot::NAMES`] order.
    pub(crate) events: [AtomicU64; EVENTS],
}

impl PerfCounters {
    /// Charge `n` occurrences of one event.
    #[inline]
    pub(crate) fn add_event(&self, event: Event, n: u64) {
        self.events[event as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Charge every non-zero event of `c`.
    pub(crate) fn add_all(&self, c: CounterSnapshot) {
        for (counter, n) in self.events.iter().zip(c.to_array()) {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Capture the current totals.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot::from_array(self.events.each_ref().map(|c| c.load(Ordering::Relaxed)))
    }
}

/// An immutable point-in-time copy of [`PerfCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// 128-byte global-memory transactions (coalesced slab reads/writes,
    /// plus one per distinct 128 B segment for scattered lane accesses).
    pub transactions: u64,
    /// Word-level atomic operations (CAS, exchange, fetch-add).
    pub atomics: u64,
    /// Warp ballot instructions executed.
    pub ballots: u64,
    /// Warp shuffle instructions executed.
    pub shuffles: u64,
    /// Kernel launches.
    pub launches: u64,
    /// Warps executed across all launches.
    pub warps: u64,
    /// Words allocated from the device arena (bump + slab allocator).
    pub words_allocated: u64,
}

impl CounterSnapshot {
    /// Every event's name, in field order: the keys of JSON report rows
    /// and Chrome span args.
    pub const NAMES: [&'static str; EVENTS] = [
        "transactions",
        "atomics",
        "ballots",
        "shuffles",
        "launches",
        "warps",
        "words_allocated",
    ];

    /// The fields, in [`Self::NAMES`] order.
    fn fields_mut(&mut self) -> [&mut u64; EVENTS] {
        [
            &mut self.transactions,
            &mut self.atomics,
            &mut self.ballots,
            &mut self.shuffles,
            &mut self.launches,
            &mut self.warps,
            &mut self.words_allocated,
        ]
    }

    /// The events as an array, in [`Self::NAMES`] order.
    fn to_array(mut self) -> [u64; EVENTS] {
        self.fields_mut().map(|f| *f)
    }

    /// Build a snapshot from counts in [`Self::NAMES`] order.
    pub(crate) fn from_array(events: [u64; EVENTS]) -> Self {
        let mut s = CounterSnapshot::default();
        for (field, n) in s.fields_mut().into_iter().zip(events) {
            *field = n;
        }
        s
    }

    /// One event's count.
    pub(crate) fn count(self, event: Event) -> u64 {
        self.to_array()[event as usize]
    }

    /// Add `n` occurrences of one event.
    #[inline]
    pub(crate) fn add_event(&mut self, event: Event, n: u64) {
        *self.fields_mut()[event as usize] += n;
    }

    /// `(name, count)` for every event, in [`Self::NAMES`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        Self::NAMES.into_iter().zip(self.to_array())
    }

    /// Apply `f` to each event of `self` and `other`.
    fn combine(self, other: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        let (a, b) = (self.to_array(), other.to_array());
        Self::from_array(std::array::from_fn(|i| f(a[i], b[i])))
    }

    /// Event-wise difference `self - earlier`, saturating at zero.
    ///
    /// The usual pattern is `let before = dev.counters().snapshot(); …;
    /// let cost = dev.counters().snapshot().delta(&before)`.
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        self.combine(*earlier, u64::saturating_sub)
    }

    /// Split every event evenly into `n` parts; remainders go to the
    /// earliest parts, so parts differ by at most one per event and sum to
    /// `self`. Panics if `n` is zero.
    pub fn split(self, n: u64) -> impl Iterator<Item = CounterSnapshot> {
        assert!(n > 0, "cannot split counters into zero parts");
        let totals = self.to_array();
        (0..n).map(move |i| Self::from_array(totals.map(|t| t / n + u64::from(i < t % n))))
    }
}

impl Add for CounterSnapshot {
    type Output = CounterSnapshot;

    /// Event-wise sum (the merge dual of [`CounterSnapshot::delta`]).
    fn add(self, rhs: CounterSnapshot) -> CounterSnapshot {
        self.combine(rhs, |a, b| a + b)
    }
}

impl AddAssign for CounterSnapshot {
    fn add_assign(&mut self, rhs: CounterSnapshot) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for CounterSnapshot {
    fn sum<I: Iterator<Item = CounterSnapshot>>(iter: I) -> CounterSnapshot {
        iter.fold(CounterSnapshot::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> CounterSnapshot {
        CounterSnapshot::from_array(std::array::from_fn(|i| seed * 31 + i as u64 * 7 + 3))
    }

    #[test]
    fn counters_accumulate() {
        let c = PerfCounters::default();
        c.add_event(Event::Transactions, 3);
        c.add_event(Event::Transactions, 4);
        c.add_event(Event::Atomics, 2);
        c.add_event(Event::Ballots, 1);
        let s = c.snapshot();
        assert_eq!(s.transactions, 7);
        assert_eq!(s.atomics, 2);
        assert_eq!(s.ballots, 1);
        assert_eq!(s.shuffles, 0);
    }

    #[test]
    fn delta_subtracts() {
        let c = PerfCounters::default();
        c.add_event(Event::Transactions, 5);
        let before = c.snapshot();
        c.add_event(Event::Transactions, 7);
        c.add_event(Event::Atomics, 1);
        let d = c.snapshot().delta(&before);
        assert_eq!(d.transactions, 7);
        assert_eq!(d.atomics, 1);
    }

    #[test]
    fn delta_saturates() {
        let a = CounterSnapshot {
            transactions: 1,
            ..Default::default()
        };
        let b = CounterSnapshot {
            transactions: 5,
            ..Default::default()
        };
        assert_eq!(a.delta(&b).transactions, 0);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = std::sync::Arc::new(PerfCounters::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add_event(Event::Transactions, 1);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().transactions, 4000);
    }

    #[test]
    fn sum_then_delta_recovers_the_addend() {
        let (a, b) = (sample(1), sample(2));
        assert_eq!((a + b).delta(&a), b);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

    #[test]
    fn sum_over_kernels_is_the_fold_of_add() {
        let parts: Vec<CounterSnapshot> = (0..5).map(sample).collect();
        let folded = parts
            .iter()
            .fold(CounterSnapshot::default(), |acc, &p| acc + p);
        assert_eq!(parts.iter().copied().sum::<CounterSnapshot>(), folded);
        for (name, total) in folded.iter() {
            let by_hand: u64 = parts
                .iter()
                .map(|p| p.iter().find(|(n, _)| *n == name).unwrap().1)
                .sum();
            assert_eq!(total, by_hand, "{name}");
        }
    }

    #[test]
    fn split_parts_sum_to_the_whole_and_differ_by_at_most_one() {
        let whole = CounterSnapshot {
            transactions: 10,
            atomics: 2,
            ballots: 0,
            shuffles: 7,
            launches: 3,
            warps: 3,
            words_allocated: 1 << 40,
        };
        for n in 1..=5 {
            let parts: Vec<CounterSnapshot> = whole.split(n).collect();
            assert_eq!(parts.len() as u64, n);
            assert_eq!(parts.iter().copied().sum::<CounterSnapshot>(), whole);
            for (i, name) in CounterSnapshot::NAMES.iter().enumerate() {
                let counts: Vec<u64> = parts.iter().map(|p| p.to_array()[i]).collect();
                let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
                assert!(hi - lo <= 1, "{name} split {n} ways: {counts:?}");
                // Remainders go to the earliest parts.
                assert!(
                    counts.windows(2).all(|w| w[0] >= w[1]),
                    "{name}: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn name_table_matches_field_order_and_report_json_keys() {
        let s = CounterSnapshot {
            transactions: 1,
            atomics: 2,
            ballots: 3,
            shuffles: 4,
            launches: 5,
            warps: 6,
            words_allocated: 7,
        };
        let named: Vec<(&str, u64)> = s.iter().collect();
        assert_eq!(
            named,
            CounterSnapshot::NAMES
                .iter()
                .copied()
                .zip(1..=7)
                .collect::<Vec<_>>()
        );
        for (event, name) in [
            (Event::Transactions, "transactions"),
            (Event::Atomics, "atomics"),
            (Event::Ballots, "ballots"),
            (Event::Shuffles, "shuffles"),
            (Event::Launches, "launches"),
            (Event::Warps, "warps"),
            (Event::WordsAllocated, "words_allocated"),
        ] {
            assert_eq!(CounterSnapshot::NAMES[event as usize], name);
        }
        let report = crate::TraceReport::new(&crate::TraceSnapshot {
            global: s,
            kernels: Vec::new(),
        });
        let json = report.to_json();
        let crate::Json::Obj(row) = json.get("total").unwrap() else {
            panic!("total row is not an object");
        };
        let keys: Vec<&str> = row.iter().map(|(k, _)| k.as_str()).collect();
        let mut expected = vec!["name"];
        expected.extend(CounterSnapshot::NAMES);
        expected.push("modeled_s");
        assert_eq!(keys, expected);
    }
}
