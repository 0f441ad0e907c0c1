//! Warp-wide lane vectors and pure warp intrinsics.
//!
//! A CUDA warp executes 32 lanes in lockstep. We model warp-synchronous
//! code as operations over [`Lanes<T>`], a fixed 32-wide vector holding one
//! value per lane. The intrinsics in this module are *pure* (no counter
//! charging); the [`crate::Warp`] context wraps them with performance
//! accounting so kernels pay for ballots and shuffles like real hardware.

/// Number of lanes in a warp. Matches NVIDIA hardware.
pub const WARP_SIZE: usize = 32;

/// Active mask with all 32 lanes enabled.
pub const FULL_MASK: u32 = u32::MAX;

/// A warp-wide vector: one `T` per lane.
///
/// This is the register file of warp-synchronous programming: each lane's
/// private variable becomes one element. Warp intrinsics (`ballot`,
/// `shuffle`, …) combine the 32 elements exactly as the hardware does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Lanes<T>(pub [T; WARP_SIZE]);

impl<T: Copy> Lanes<T> {
    /// Broadcast `v` into every lane.
    #[inline]
    pub fn splat(v: T) -> Self {
        Lanes([v; WARP_SIZE])
    }

    /// Build a lane vector from a function of the lane index.
    #[inline]
    pub fn from_fn(f: impl FnMut(usize) -> T) -> Self {
        Lanes(std::array::from_fn(f))
    }

    /// Value held by `lane`.
    #[inline]
    pub fn get(&self, lane: usize) -> T {
        self.0[lane]
    }

    /// Overwrite the value held by `lane`.
    #[inline]
    pub fn set(&mut self, lane: usize, v: T) {
        self.0[lane] = v;
    }

    /// Apply `f` lane-wise.
    #[inline]
    pub fn map<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> Lanes<U> {
        Lanes(std::array::from_fn(|i| f(self.0[i])))
    }

    /// Combine two lane vectors lane-wise.
    #[inline]
    pub fn zip_with<U: Copy, V: Copy>(
        &self,
        other: &Lanes<U>,
        mut f: impl FnMut(T, U) -> V,
    ) -> Lanes<V> {
        Lanes(std::array::from_fn(|i| f(self.0[i], other.0[i])))
    }

    /// Iterate over `(lane, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, T)> + '_ {
        self.0.iter().copied().enumerate()
    }
}

impl<T: Copy + Default> Default for Lanes<T> {
    fn default() -> Self {
        Lanes::splat(T::default())
    }
}

/// `__ballot_sync`: bit *i* of the result is set iff lane *i* is in
/// `active_mask` and its predicate is true.
#[inline]
pub fn ballot(active_mask: u32, preds: &Lanes<bool>) -> u32 {
    let mut out = 0u32;
    for lane in 0..WARP_SIZE {
        if active_mask & (1 << lane) != 0 && preds.0[lane] {
            out |= 1 << lane;
        }
    }
    out
}

/// `__shfl_sync` broadcast form: every lane reads lane `src_lane`'s value.
#[inline]
pub fn shuffle<T: Copy>(vals: &Lanes<T>, src_lane: u32) -> T {
    vals.0[(src_lane as usize) & (WARP_SIZE - 1)]
}

/// `__shfl_sync` indexed form: lane *i* reads the value of lane `idx[i]`.
#[inline]
pub fn shuffle_idx<T: Copy>(vals: &Lanes<T>, idx: &Lanes<u32>) -> Lanes<T> {
    Lanes::from_fn(|i| vals.0[(idx.0[i] as usize) & (WARP_SIZE - 1)])
}

/// `__popc`: population count.
#[inline]
pub fn popc(x: u32) -> u32 {
    x.count_ones()
}

/// `__ffs`-style helper returning the *zero-based* index of the first
/// (least significant) set bit, or `None` when `x == 0`.
///
/// CUDA's `__ffs` is one-based; warp-synchronous code always subtracts the
/// one immediately, so we expose the zero-based form directly.
#[inline]
pub fn ffs(x: u32) -> Option<u32> {
    if x == 0 {
        None
    } else {
        Some(x.trailing_zeros())
    }
}

/// The set bits of a warp mask, in ascending lane order.
#[inline]
pub fn iter_bits(mask: u32) -> impl Iterator<Item = u32> {
    let mut m = mask;
    std::iter::from_fn(move || {
        let b = ffs(m)?;
        m &= m - 1;
        Some(b)
    })
}

/// Mask with bits `[0, lane)` set: the "lanes before me" mask used for
/// warp-scan style offset computation (`__lanemask_lt`).
#[inline]
pub fn lanemask_lt(lane: u32) -> u32 {
    if lane == 0 {
        0
    } else {
        u32::MAX >> (32 - lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_bits_ascending() {
        let bits: Vec<u32> = iter_bits(0b1010_0110).collect();
        assert_eq!(bits, vec![1, 2, 5, 7]);
        assert_eq!(iter_bits(0).count(), 0);
        assert_eq!(iter_bits(u32::MAX).count(), 32);
    }

    #[test]
    fn splat_and_get() {
        let l = Lanes::splat(7u32);
        for i in 0..WARP_SIZE {
            assert_eq!(l.get(i), 7);
        }
    }

    #[test]
    fn from_fn_indexes_lanes() {
        let l = Lanes::from_fn(|i| i as u32 * 2);
        assert_eq!(l.get(0), 0);
        assert_eq!(l.get(31), 62);
    }

    #[test]
    fn ballot_respects_active_mask() {
        let preds = Lanes::splat(true);
        assert_eq!(ballot(FULL_MASK, &preds), u32::MAX);
        assert_eq!(ballot(0b1010, &preds), 0b1010);
        let none = Lanes::splat(false);
        assert_eq!(ballot(FULL_MASK, &none), 0);
    }

    #[test]
    fn ballot_mixed_predicates() {
        let preds = Lanes::from_fn(|i| i % 2 == 0);
        let b = ballot(FULL_MASK, &preds);
        assert_eq!(b, 0x5555_5555);
    }

    #[test]
    fn shuffle_broadcasts() {
        let vals = Lanes::from_fn(|i| i as u32 + 100);
        assert_eq!(shuffle(&vals, 5), 105);
        assert_eq!(shuffle(&vals, 0), 100);
        // Source lane wraps modulo 32, matching hardware behaviour.
        assert_eq!(shuffle(&vals, 37), 105);
    }

    #[test]
    fn shuffle_idx_permutes() {
        let vals = Lanes::from_fn(|i| i as u32);
        let rev = Lanes::from_fn(|i| 31 - i as u32);
        let out = shuffle_idx(&vals, &rev);
        for i in 0..WARP_SIZE {
            assert_eq!(out.get(i), 31 - i as u32);
        }
    }

    #[test]
    fn ffs_finds_first_set_bit() {
        assert_eq!(ffs(0), None);
        assert_eq!(ffs(1), Some(0));
        assert_eq!(ffs(0b1000), Some(3));
        assert_eq!(ffs(u32::MAX), Some(0));
        assert_eq!(ffs(1 << 31), Some(31));
    }

    #[test]
    fn lanemask_lt_counts_earlier_lanes() {
        assert_eq!(lanemask_lt(0), 0);
        assert_eq!(lanemask_lt(1), 1);
        assert_eq!(lanemask_lt(5), 0b11111);
        assert_eq!(lanemask_lt(31), u32::MAX >> 1);
    }

    #[test]
    fn zip_with_combines() {
        let a = Lanes::from_fn(|i| i as u32);
        let b = Lanes::splat(10u32);
        let c = a.zip_with(&b, |x, y| x + y);
        assert_eq!(c.get(3), 13);
    }

    #[test]
    fn popc_counts() {
        assert_eq!(popc(0), 0);
        assert_eq!(popc(0b1011), 3);
        assert_eq!(popc(u32::MAX), 32);
    }
}
