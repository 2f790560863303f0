//! The one state list behind every flat searcher.
//!
//! [`WeightedList`] keeps the registered states in insertion order, each
//! with an integer weight, and answers "which state does the prefix sum
//! `t` fall on" without walking the list:
//!
//! * **slots** — `(id, weight)` in insertion order. Removing a state turns
//!   its slot into a *tombstone* (weight 0), so the survivors keep their
//!   relative order, which is what the selection sequence depends on.
//! * **index** — id → slot, so removal needs no scan.
//! * **sums** — every slot also holds its node of a Fenwick
//!   (binary-indexed) tree over the weights: append, tombstoning and
//!   [`WeightedList::find`] are O(log n).
//!
//! Trailing tombstones are popped at once (the last slot is always live),
//! and the list is compacted, order preserved, once tombstones outnumber
//! live slots — O(n) every ≥ n/2 removals, so O(1) amortized.
//!
//! Sums are `u128`: the random-path weights reach 2^60 per state.

use crate::state::StateId;
use std::collections::HashMap;

#[derive(Debug)]
struct Slot {
    id: StateId,
    /// 0 marks a tombstone; every live slot weighs at least 1.
    weight: u64,
    /// The Fenwick node at this slot's 1-based position `i`: the weight of
    /// positions `i - lowbit(i) + 1 ..= i`.
    sum: u128,
}

/// Lowest set bit of a 1-based Fenwick position.
fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

/// An insertion-ordered, id-indexed, prefix-summed list of states.
#[derive(Debug, Default)]
pub(crate) struct WeightedList {
    slots: Vec<Slot>,
    /// Slot of every live state.
    index: HashMap<StateId, usize>,
    /// Sum of the live states' weights.
    total: u128,
}

impl WeightedList {
    /// Number of live states.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no state is registered.
    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Appends `id` with `weight` (at least 1). An id that is already
    /// registered is replaced: its old slot becomes a tombstone and the
    /// state moves to the end with the new weight.
    pub(crate) fn push(&mut self, id: StateId, weight: u64) {
        debug_assert!(weight > 0, "weight 0 is reserved for tombstones");
        self.remove(id);
        self.index.insert(id, self.slots.len());
        // The new node covers the new slot plus the nodes directly below it.
        let i = self.slots.len() + 1;
        let mut sum = u128::from(weight);
        let (mut j, stop) = (i - 1, i - lowbit(i));
        while j > stop {
            sum += self.slots[j - 1].sum;
            j -= lowbit(j);
        }
        self.slots.push(Slot { id, weight, sum });
        self.total += u128::from(weight);
    }

    /// Removes `id`; returns whether it was registered.
    pub(crate) fn remove(&mut self, id: StateId) -> bool {
        let Some(slot) = self.index.remove(&id) else {
            return false;
        };
        let weight = u128::from(std::mem::take(&mut self.slots[slot].weight));
        self.total -= weight;
        let mut i = slot + 1;
        while i <= self.slots.len() {
            self.slots[i - 1].sum -= weight;
            i += lowbit(i);
        }
        // A Fenwick node depends only on the slots at or before it, so the
        // tail can simply be cut off.
        while self.slots.last().is_some_and(|s| s.weight == 0) {
            self.slots.pop();
        }
        if self.slots.len() > 2 * self.index.len() {
            self.compact();
        }
        true
    }

    /// Drops every tombstone, keeping the live slots in order.
    fn compact(&mut self) {
        self.slots.retain(|s| s.weight != 0);
        for (slot, s) in self.slots.iter_mut().enumerate() {
            s.sum = u128::from(s.weight);
            self.index.insert(s.id, slot);
        }
        for i in 1..=self.slots.len() {
            let parent = i + lowbit(i);
            if parent <= self.slots.len() {
                self.slots[parent - 1].sum += self.slots[i - 1].sum;
            }
        }
    }

    /// The first state, in insertion order, at which the running sum of
    /// weights reaches `t` (clamped to `1..=total`, so the answer is never
    /// a tombstone); `None` when the list is empty.
    pub(crate) fn find(&self, t: u128) -> Option<StateId> {
        if self.is_empty() {
            return None;
        }
        let mut rest = t.clamp(1, self.total);
        let n = self.slots.len();
        // Descend: `pos` slots are known to sum to less than `t`.
        let mut pos = 0;
        let mut step = 1 << n.ilog2();
        while step > 0 {
            let next = pos + step;
            if next <= n && self.slots[next - 1].sum < rest {
                rest -= self.slots[next - 1].sum;
                pos = next;
            }
            step >>= 1;
        }
        Some(self.slots[pos].id)
    }

    /// The state a draw `u` in `[0, 1)` lands on when every state owns a
    /// stretch of `[0, total]` as long as its weight: the first one whose
    /// prefix sum is at least `u * total`. The product is formed in `f64`
    /// from the exact total and compared exactly with the integer sums.
    pub(crate) fn sample(&self, u: f64) -> Option<StateId> {
        let pick = u * self.total as f64;
        self.find(pick.ceil() as u128)
    }

    /// The oldest live state.
    pub(crate) fn first(&self) -> Option<StateId> {
        self.find(1)
    }

    /// The newest live state.
    pub(crate) fn last(&self) -> Option<StateId> {
        self.slots.last().map(|s| s.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Checks the list against sums recomputed naively from its slots.
    fn check(list: &WeightedList) {
        let n = list.slots.len();
        let prefix: Vec<u128> = list
            .slots
            .iter()
            .scan(0u128, |acc, s| {
                *acc += u128::from(s.weight);
                Some(*acc)
            })
            .collect();
        for i in 1..=n {
            let below = if i == lowbit(i) {
                0
            } else {
                prefix[i - lowbit(i) - 1]
            };
            assert_eq!(list.slots[i - 1].sum, prefix[i - 1] - below, "node {i}");
        }
        assert_eq!(list.total, prefix.last().copied().unwrap_or(0));
        let live = list.slots.iter().filter(|s| s.weight != 0).count();
        assert_eq!(list.len(), live);
        assert!(n <= 2 * live, "{n} slots for {live} live states");
        assert!(list.slots.last().is_none_or(|s| s.weight != 0));
        for (slot, s) in list.slots.iter().enumerate() {
            if s.weight != 0 {
                assert_eq!(list.index.get(&s.id), Some(&slot));
            }
        }
    }

    /// `find` by a plain scan over the slots.
    fn naive_find(list: &WeightedList, t: u128) -> Option<StateId> {
        let mut sum = 0u128;
        list.slots.iter().find_map(|s| {
            sum += u128::from(s.weight);
            (s.weight != 0 && sum >= t).then_some(s.id)
        })
    }

    #[test]
    fn random_scripts_keep_sums_and_finds_equal_to_a_naive_recomputation() {
        let mut rng = StdRng::seed_from_u64(15);
        for round in 0..40 {
            let mut list = WeightedList::default();
            let mut next_id = 0u64;
            for _ in 0..400 {
                // Rounds alternate between growing and shrinking lists, so
                // compactions and tail pops both happen.
                let grow = if round % 2 == 0 { 0.6 } else { 0.4 };
                if list.is_empty() || rng.gen_bool(grow) {
                    let weight = 1u64 << rng.gen_range(0u32..=60);
                    list.push(StateId(next_id), weight);
                    next_id += 1;
                } else {
                    let victim = StateId(rng.gen_range(0..next_id));
                    let known = list.index.contains_key(&victim);
                    assert_eq!(list.remove(victim), known);
                }
                check(&list);
                if !list.is_empty() {
                    let t = 1 + ((rng.gen::<u64>() as u128) << 10) % list.total;
                    let found = list.find(t).expect("non-empty");
                    assert_eq!(Some(found), naive_find(&list, t));
                    assert!(list.index.contains_key(&found), "found a tombstone");
                }
            }
        }
    }

    #[test]
    fn find_clamps_to_the_first_and_last_live_state() {
        let mut list = WeightedList::default();
        assert_eq!(list.find(0), None);
        assert_eq!((list.first(), list.last()), (None, None));
        for id in 0..6 {
            list.push(StateId(id), 3);
        }
        list.remove(StateId(0));
        list.remove(StateId(2));
        list.remove(StateId(5));
        check(&list);
        // Threshold 0 is the first live state, not the tombstone before it.
        assert_eq!(list.find(0), Some(StateId(1)));
        assert_eq!(list.first(), Some(StateId(1)));
        assert_eq!(list.find(3), Some(StateId(1)));
        assert_eq!(list.find(4), Some(StateId(3)));
        assert_eq!(list.find(list.total), Some(StateId(4)));
        assert_eq!(list.find(u128::MAX), Some(StateId(4)));
        assert_eq!(list.last(), Some(StateId(4)));
        assert_eq!(list.sample(0.0), Some(StateId(1)));
    }

    #[test]
    fn a_draw_on_a_boundary_belongs_to_the_earlier_state() {
        // The linear scan subtracted weights until `pick <= 0.0`.
        let mut list = WeightedList::default();
        list.push(StateId(1), 1 << 59);
        list.push(StateId(2), 1 << 58);
        list.push(StateId(3), 1 << 58);
        assert_eq!(list.sample(0.5), Some(StateId(1)));
        assert_eq!(list.sample(0.5 + f64::EPSILON), Some(StateId(2)));
        assert_eq!(list.sample(0.75), Some(StateId(2)));
        assert_eq!(list.sample(1.0 - f64::EPSILON), Some(StateId(3)));
        // A fractional threshold (small integer weights) rounds up.
        let mut list = WeightedList::default();
        list.push(StateId(1), 1);
        list.push(StateId(2), 3);
        assert_eq!(list.sample(0.25), Some(StateId(1)));
        assert_eq!(list.sample(0.3), Some(StateId(2)));
    }

    #[test]
    fn depth_zero_next_to_depth_sixty_and_beyond() {
        // Random-path weights at the two ends of their range.
        let mut list = WeightedList::default();
        list.push(StateId(1), 1); // depth >= 60
        list.push(StateId(2), 1 << 60); // depth 0
        list.push(StateId(3), 1);
        check(&list);
        assert_eq!(list.total, (1 << 60) + 2);
        assert_eq!(list.find(1), Some(StateId(1)));
        assert_eq!(list.find(2), Some(StateId(2)));
        assert_eq!(list.find((1 << 60) + 1), Some(StateId(2)));
        assert_eq!(list.find((1 << 60) + 2), Some(StateId(3)));
        // Many shallow states: the sum leaves u64 but not u128.
        for id in 10..40 {
            list.push(StateId(id), 1 << 60);
        }
        check(&list);
        assert_eq!(list.total, 31 * (1u128 << 60) + 2);
        assert_eq!(list.find(list.total), Some(StateId(39)));
    }

    #[test]
    fn a_second_push_of_an_id_moves_it_to_the_end() {
        let mut list = WeightedList::default();
        list.push(StateId(1), 5);
        list.push(StateId(2), 5);
        list.push(StateId(1), 7);
        check(&list);
        assert_eq!(list.len(), 2);
        assert_eq!(list.total, 12);
        assert_eq!(list.first(), Some(StateId(2)));
        assert_eq!(list.last(), Some(StateId(1)));
        assert!(list.remove(StateId(1)));
        assert!(!list.remove(StateId(1)));
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn removal_heavy_use_stays_compact() {
        // A lease/release cycle over a large frontier: every round
        // tombstones one slot and appends one.
        let mut list = WeightedList::default();
        for id in 0..1000 {
            list.push(StateId(id), 1);
        }
        for round in 0..10_000u64 {
            let id = list.find(u128::from(round % 1000) + 1).expect("non-empty");
            list.remove(id);
            list.push(id, 1);
            assert!(list.slots.len() <= 2 * list.len() + 1);
        }
        check(&list);
        assert_eq!(list.len(), 1000);
    }
}
