//! The LRU store under the response cache and the session registry.
//!
//! Both byte-budgeted stores ([`crate::cache::ResponseCache`] and
//! [`crate::registry::Registry`]) need a key map over entries threaded
//! into a doubly-linked most-recently-used list, so that a lookup, a
//! promotion and a cold-end eviction are each O(1) and allocate nothing
//! per touch. [`Lru`] owns the map, the entries and their links, packed
//! in one `Vec`: a removal moves the last entry into the freed slot, so
//! no slot is ever empty and an index the map holds names a live entry
//! by construction. The stores keep only their limits and counters.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Sentinel index for "no entry".
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    /// Toward the MRU end (`NIL` at the head).
    prev: usize,
    /// Toward the LRU end (`NIL` at the tail).
    next: usize,
}

/// A map from `K` to `V` that knows which entry was used least recently.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    /// The index in `nodes` of each key's entry.
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    head: usize,
    tail: usize,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    pub(crate) fn new() -> Self {
        Self { map: HashMap::new(), nodes: Vec::new(), head: NIL, tail: NIL }
    }

    /// Entries resident.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The entry stored for `key`, promoted to most-recently-used.
    pub(crate) fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let index = *self.map.get(key)?;
        self.unlink(index);
        self.push_front(index);
        Some(&self.nodes[index].value)
    }

    /// Stores `value` under `key` as the most recently used entry,
    /// replacing any entry already stored there.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.remove(&key);
        let index = self.nodes.len();
        self.nodes.push(Node { key: key.clone(), value, prev: NIL, next: NIL });
        self.map.insert(key, index);
        self.push_front(index);
    }

    /// Removes the entry stored for `key` and returns its value.
    pub(crate) fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let index = *self.map.get(key)?;
        Some(self.remove_at(index).1)
    }

    /// Removes the least recently used entry and returns it.
    pub(crate) fn pop_coldest(&mut self) -> Option<(K, V)> {
        (self.tail != NIL).then(|| self.remove_at(self.tail))
    }

    /// Every resident entry, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.nodes.iter().map(|node| (&node.key, &node.value))
    }

    fn remove_at(&mut self, index: usize) -> (K, V) {
        self.unlink(index);
        let node = self.nodes.swap_remove(index);
        self.map.remove(&node.key);
        if index < self.nodes.len() {
            // The last entry moved into `index`: repoint its map slot and
            // its neighbours' links at the new place.
            let (prev, next) = (self.nodes[index].prev, self.nodes[index].next);
            if let Some(slot) = self.map.get_mut(&self.nodes[index].key) {
                *slot = index;
            }
            self.point_next(prev, index);
            self.point_prev(next, index);
        }
        (node.key, node.value)
    }

    fn unlink(&mut self, index: usize) {
        let (prev, next) = (self.nodes[index].prev, self.nodes[index].next);
        self.point_next(prev, next);
        self.point_prev(next, prev);
    }

    fn push_front(&mut self, index: usize) {
        (self.nodes[index].prev, self.nodes[index].next) = (NIL, self.head);
        self.point_prev(self.head, index);
        self.head = index;
    }

    /// Points the forward link of `from` (the head if `NIL`) at `to`.
    fn point_next(&mut self, from: usize, to: usize) {
        match from {
            NIL => self.head = to,
            p => self.nodes[p].next = to,
        }
    }

    /// Points the backward link of `from` (the tail if `NIL`) at `to`.
    fn point_prev(&mut self, from: usize, to: usize) {
        match from {
            NIL => self.tail = to,
            n => self.nodes[n].prev = to,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reads the keys from MRU to LRU by following the links, checking
    /// on the way that both directions and the map agree.
    fn order(lru: &Lru<u8, u32>) -> Vec<u8> {
        let mut out = Vec::new();
        let (mut cursor, mut prev) = (lru.head, NIL);
        while cursor != NIL {
            let node = &lru.nodes[cursor];
            assert_eq!(node.prev, prev, "backward link of {}", node.key);
            assert_eq!(lru.map.get(&node.key), Some(&cursor), "map slot of {}", node.key);
            out.push(node.key);
            (prev, cursor) = (cursor, node.next);
        }
        assert_eq!(lru.tail, prev);
        assert_eq!((out.len(), lru.map.len()), (lru.len(), lru.len()), "every entry is linked");
        out
    }

    #[test]
    fn get_insert_remove_maintain_recency_order() {
        let mut lru = Lru::new();
        for key in [1, 2, 3] {
            lru.insert(key, u32::from(key) * 10);
        }
        assert_eq!(order(&lru), [3, 2, 1]);
        assert_eq!(lru.get(&1), Some(&10));
        assert_eq!(order(&lru), [1, 3, 2]);
        // Removing the first-stored entry moves the last one into its slot.
        assert_eq!(lru.remove(&1), Some(10));
        assert_eq!(order(&lru), [3, 2]);
        lru.insert(2, 21);
        assert_eq!(order(&lru), [2, 3]);
        assert_eq!(lru.pop_coldest(), Some((3, 30)));
        assert_eq!(lru.pop_coldest(), Some((2, 21)));
        assert_eq!(lru.pop_coldest(), None);
        assert_eq!(lru.get(&2), None);
        assert!(order(&lru).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any sequence of gets, inserts, removals and cold-end pops
        /// agrees with a `Vec` kept most recent first, and leaves the
        /// links and the map consistent after every step.
        #[test]
        fn matches_a_recency_vec(
            ops in proptest::collection::vec((0u8..4, 0u8..8, 0u32..100), 0..120),
        ) {
            let mut lru = Lru::new();
            let mut model: Vec<(u8, u32)> = Vec::new();
            for (kind, key, value) in ops {
                let pos = model.iter().position(|row| row.0 == key);
                match kind {
                    0 => {
                        let want = pos.map(|pos| model.remove(pos));
                        if let Some(row) = want {
                            model.insert(0, row);
                        }
                        prop_assert_eq!(lru.get(&key).copied(), want.map(|row| row.1));
                    }
                    1 => {
                        if let Some(pos) = pos {
                            model.remove(pos);
                        }
                        model.insert(0, (key, value));
                        lru.insert(key, value);
                    }
                    2 => {
                        let want = pos.map(|pos| model.remove(pos).1);
                        prop_assert_eq!(lru.remove(&key), want);
                    }
                    _ => prop_assert_eq!(lru.pop_coldest(), model.pop()),
                }
                let keys: Vec<u8> = model.iter().map(|row| row.0).collect();
                prop_assert_eq!(order(&lru), keys);
            }
        }
    }
}
