//! A minimal fixed-capacity bitset used by the reachability and
//! dominator analyses. Kept local to avoid external dependencies.


/// Fixed-capacity bitset over `usize` indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty bitset able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet { words: vec![0; capacity.div_ceil(64)], capacity }
    }

    /// Capacity in bits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.capacity, "bit {i} out of capacity {}", self.capacity);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        if i < self.capacity {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Tests bit `i` (out-of-range reads as unset).
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.capacity && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Whether `self ∩ other` is non-empty.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterates set bit indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut b = BitSet::new(130);
        b.insert(0);
        b.insert(64);
        b.insert(129);
        assert!(b.contains(0) && b.contains(64) && b.contains(129));
        assert!(!b.contains(1));
        assert_eq!(b.count(), 3);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn union_and_intersect() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(3);
        b.insert(70);
        assert!(!a.intersects(&b));
        a.union_with(&b);
        assert!(a.contains(70));
        assert!(a.intersects(&b));
    }

    #[test]
    fn remove_and_clear() {
        let mut a = BitSet::new(10);
        a.insert(5);
        a.remove(5);
        assert_eq!(a.count(), 0);
        a.insert(1);
        a.clear();
        assert_eq!(a.count(), 0);
    }
}
