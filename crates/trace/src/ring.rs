//! A fixed-capacity ring buffer that keeps the newest items.
//!
//! The flight recorder must run for hours without growing, so every node's
//! event stream lives in one of these: pushes past capacity overwrite the
//! oldest entry. Iteration yields items oldest-first.

/// Bounded FIFO that overwrites its oldest element when full.
#[derive(Debug, Clone, PartialEq)]
pub struct RingBuffer<T> {
    cap: usize,
    /// Index of the oldest element once the buffer has wrapped.
    head: usize,
    items: Vec<T>,
}

impl<T> RingBuffer<T> {
    /// Creates a buffer holding at most `cap` items. A capacity of zero is
    /// legal and stores nothing.
    pub fn new(cap: usize) -> RingBuffer<T> {
        RingBuffer { cap, head: 0, items: Vec::new() }
    }

    /// Maximum number of retained items.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of items currently retained.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Appends an item, evicting the oldest if the buffer is full.
    pub fn push(&mut self, item: T) {
        if self.cap == 0 {
            return;
        }
        if self.items.len() < self.cap {
            self.items.push(item);
        } else {
            self.items[self.head] = item;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// The retained items as two slices, oldest-first: the older part, then
    /// the part written since the buffer last wrapped.
    pub fn as_slices(&self) -> (&[T], &[T]) {
        let (newer, older) = self.items.split_at(self.head);
        (older, newer)
    }

    /// Iterates oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (older, newer) = self.as_slices();
        older.iter().chain(newer)
    }

    /// Drains into a `Vec`, oldest-first.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.iter().cloned().collect()
    }

    /// Removes all items (capacity is kept).
    pub fn clear(&mut self) {
        self.items.clear();
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_wraps_keeping_newest() {
        let mut r = RingBuffer::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.to_vec(), vec![2, 3, 4]);
        r.push(5);
        assert_eq!(r.to_vec(), vec![3, 4, 5]);
    }

    #[test]
    fn under_capacity_preserves_order() {
        let mut r = RingBuffer::new(10);
        r.push('a');
        r.push('b');
        assert_eq!(r.to_vec(), vec!['a', 'b']);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn capacity_zero_stores_nothing() {
        let mut r = RingBuffer::new(0);
        r.push(1);
        r.push(2);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.to_vec(), Vec::<i32>::new());
    }

    #[test]
    fn capacity_one_keeps_last() {
        let mut r = RingBuffer::new(1);
        for i in 0..100 {
            r.push(i);
        }
        assert_eq!(r.to_vec(), vec![99]);
    }

    #[test]
    fn wrap_exactly_at_boundary() {
        let mut r = RingBuffer::new(4);
        for i in 0..4 {
            r.push(i);
        }
        assert_eq!(r.to_vec(), vec![0, 1, 2, 3]);
        for i in 4..8 {
            r.push(i);
        }
        assert_eq!(r.to_vec(), vec![4, 5, 6, 7]);
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut r = RingBuffer::new(2);
        r.push(1);
        r.push(2);
        r.push(3);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 2);
        r.push(9);
        assert_eq!(r.to_vec(), vec![9]);
    }
}
