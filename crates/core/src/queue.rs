//! Bounded per-node packet queues.

use std::collections::VecDeque;

/// A bounded FIFO queue; pushes beyond capacity drop the *newest* item
/// (drop-tail, as Contiki's queuebuf does). The owner counts the drops.
#[derive(Debug, Clone, Default)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue { items: VecDeque::with_capacity(capacity), capacity }
    }

    /// Enqueues an item; returns `false` (the item is dropped) when full.
    pub fn push(&mut self, item: T) -> bool {
        if self.items.len() >= self.capacity {
            false
        } else {
            self.items.push_back(item);
            true
        }
    }

    /// A reference to the head item.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// A mutable reference to the head item (retry accounting in place,
    /// so a retried item keeps its head-of-line position).
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.items.front_mut()
    }

    /// Removes and returns the head item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Discards every queued item (a cold reboot wiping the mote's RAM).
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(4);
        q.push(1);
        q.push(2);
        assert_eq!(q.front(), Some(&1));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_drops_newest() {
        let mut q = BoundedQueue::new(2);
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(!q.push(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: BoundedQueue<i32> = BoundedQueue::new(0);
    }

    #[test]
    fn front_mut_edits_head_in_place() {
        let mut q = BoundedQueue::new(2);
        q.push(1);
        q.push(2);
        *q.front_mut().expect("non-empty") += 10;
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.front_mut(), None);
    }

    #[test]
    fn clear_empties_and_frees_capacity() {
        let mut q = BoundedQueue::new(2);
        q.push(1);
        q.push(2);
        assert!(!q.push(3));
        q.clear();
        assert!(q.is_empty());
        assert!(q.push(4));
    }
}
