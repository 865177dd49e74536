//! [`NameList`]: named items in insertion order, found by name.
//!
//! Insert appends and removal swaps the last item into the hole, so the
//! order is a pure function of the edit history. Positions sit in an
//! open-addressed `u32` table hashed by a name's dotted spelling, which a
//! lookup by wire labels spells on the stack. Removal shifts entries back
//! instead of leaving tombstones, so the table's size depends only on
//! the item count.

use crate::domain::MAX_NAME_LEN;
use crate::hash::FastState;
use crate::DomainName;
use std::hash::{BuildHasher, Hasher};

/// An item a [`NameList`] holds, found by its name.
pub trait Named {
    /// The name the item is found by.
    fn name(&self) -> &DomainName;
}

impl Named for DomainName {
    fn name(&self) -> &DomainName {
        self
    }
}

/// Marks an empty slot.
const EMPTY: u32 = u32::MAX;

/// Named items in insertion order, at most one per name, found by name.
#[derive(Debug, Clone)]
pub struct NameList<T> {
    items: Vec<T>,
    /// Item positions, or [`EMPTY`]; the length is zero or a power of two.
    slots: Vec<u32>,
    hasher: FastState,
}

impl<T> Default for NameList<T> {
    fn default() -> Self {
        NameList {
            items: Vec::new(),
            slots: Vec::new(),
            hasher: FastState::default(),
        }
    }
}

impl<T: Named> NameList<T> {
    /// The items, in list order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the list holds no item.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The item named `name`.
    pub fn get(&self, name: &DomainName) -> Option<&T> {
        self.slot_of(name)
            .map(|s| &self.items[self.slots[s] as usize])
    }

    /// The item named `name`, to edit in place; its name must not change.
    pub fn get_mut(&mut self, name: &DomainName) -> Option<&mut T> {
        self.slot_of(name)
            .map(|s| &mut self.items[self.slots[s] as usize])
    }

    /// The position of the item whose name has the flat labels `labels`,
    /// leftmost first: the labels of a wire name.
    pub fn position<'a>(&self, labels: impl IntoIterator<Item = &'a [u8]>) -> Option<usize> {
        // A label holding a dot has no spelling: no item can match it.
        let mut buf = [0u8; MAX_NAME_LEN];
        let mut len = 0;
        for (i, label) in labels.into_iter().enumerate() {
            let start = len + usize::from(i > 0);
            let end = start + label.len();
            if end > MAX_NAME_LEN || label.contains(&b'.') {
                return None;
            }
            if i > 0 {
                buf[len] = b'.';
            }
            buf[start..end].copy_from_slice(label);
            len = end;
        }
        let spelled = &buf[..len];
        self.find(spelled, |n| n.as_str().as_bytes() == spelled)
            .map(|s| self.slots[s] as usize)
    }

    /// Add `item` at the end, or, if an item of that name is present,
    /// put `item` in its place. Returns the item's position.
    pub fn insert(&mut self, item: T) -> usize {
        if let Some(slot) = self.slot_of(item.name()) {
            let pos = self.slots[slot] as usize;
            self.items[pos] = item;
            return pos;
        }
        let pos = self.items.len();
        assert!(pos < EMPTY as usize, "positions fit u32");
        self.items.push(item);
        if self.items.len() * 4 > self.slots.len() * 3 {
            self.slots = vec![EMPTY; (self.items.len() * 2).next_power_of_two()];
            (0..self.items.len()).for_each(|p| self.place(p));
        } else {
            self.place(pos);
        }
        pos
    }

    /// Remove the item named `name`; the last item takes its place.
    pub fn swap_remove(&mut self, name: &DomainName) -> Option<T> {
        let slot = self.slot_of(name)?;
        let pos = self.slots[slot] as usize;
        self.vacate(slot);
        let last = self.items.len() - 1;
        if pos != last {
            let moved = self.slot_of(self.items[last].name()).expect("indexed");
            self.slots[moved] = pos as u32;
        }
        Some(self.items.swap_remove(pos))
    }

    /// Remove every item, keeping the table's size.
    pub fn clear(&mut self) {
        self.items.clear();
        self.slots.fill(EMPTY);
    }

    /// The items, in list order.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    /// The slot where a probe for the name spelled `spelled` starts; the
    /// table must not be empty.
    fn home(&self, spelled: &[u8]) -> usize {
        let mut h = self.hasher.build_hasher();
        h.write(spelled);
        h.finish() as usize & (self.slots.len() - 1)
    }

    /// The home slot of `name`.
    fn home_of(&self, name: &DomainName) -> usize {
        self.home(name.as_str().as_bytes())
    }

    /// The slot holding the position of the item whose name `is`
    /// accepts, probing from the home slot of `spelled`.
    fn find(&self, spelled: &[u8], is: impl Fn(&DomainName) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(spelled);
        loop {
            match self.slots[at] {
                EMPTY => return None,
                pos if is(self.items[pos as usize].name()) => return Some(at),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The slot holding the position of the item named `name`.
    fn slot_of(&self, name: &DomainName) -> Option<usize> {
        self.find(name.as_str().as_bytes(), |n| n == name)
    }

    /// Put `pos` in the first empty slot of its name's probe run.
    fn place(&mut self, pos: usize) {
        let mask = self.slots.len() - 1;
        let mut at = self.home_of(self.items[pos].name());
        while self.slots[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at] = pos as u32;
    }

    /// Empty slot `hole`, then move each later entry of the probe run
    /// that may sit there back into it, so every entry stays reachable
    /// from its home slot.
    fn vacate(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        self.slots[hole] = EMPTY;
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let pos = self.slots[at];
            if pos == EMPTY {
                return;
            }
            let home = self.home_of(self.items[pos as usize].name());
            // The entry may move to the hole when the hole lies on its
            // probe path: no further from its home than where it sits.
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.slots[hole] = pos;
                self.slots[at] = EMPTY;
                hole = at;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The table doubles past three-quarters full and never shrinks,
        /// and removals leave no tombstones: its size follows the peak
        /// item count alone, whatever the order of edits.
        #[test]
        fn table_size_follows_the_peak_item_count(
            ops in prop::collection::vec((any::<bool>(), 0u16..96), 0..600),
        ) {
            let mut list: NameList<DomainName> = NameList::default();
            let (mut peak, mut slots) = (0, 0);
            for (insert, k) in ops {
                let name: DomainName = format!("h{k}.ru").parse().unwrap();
                if insert {
                    list.insert(name);
                } else {
                    list.swap_remove(&name);
                }
                while peak < list.len() {
                    peak += 1;
                    if peak * 4 > slots * 3 {
                        slots = (peak * 2).next_power_of_two();
                    }
                }
                prop_assert_eq!(list.slots.len(), slots);
            }
        }
    }
}
