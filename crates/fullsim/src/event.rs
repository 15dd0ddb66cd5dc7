//! The discrete-event queue at the heart of the simulator.
//!
//! Events are ordered by tick; ties break by (priority, insertion
//! sequence) so simulation is fully deterministic regardless of how
//! events were scheduled. The queue is a binary heap keyed on that
//! total order. The boot loop, its only production caller, holds five
//! or six pending events; a calendar wheel measured no faster even at
//! 1,000 pending events (PERFORMANCE.md §2).

use crate::ticks::Tick;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Scheduling priority for events that share a tick (lower runs first).
pub type Priority = i32;

/// An event scheduled on an [`EventQueue`].
#[derive(Debug)]
pub struct Event<T> {
    /// When the event fires.
    pub when: Tick,
    /// Tie-break priority (lower first).
    pub priority: Priority,
    /// Payload delivered to the caller when the event is popped.
    pub payload: T,
    seq: u64,
}

impl<T> Event<T> {
    /// The total-order key: time, then priority, then insertion order.
    fn key(&self) -> (Tick, Priority, u64) {
        (self.when, self.priority, self.seq)
    }
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.when == other.when && self.priority == other.priority && self.seq == other.seq
    }
}

impl<T> Eq for Event<T> {}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped
        // first.
        other.key().cmp(&self.key())
    }
}

/// A deterministic discrete-event queue.
///
/// ```
/// use simart_fullsim::event::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(100, "late");
/// q.schedule(10, "early");
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.now(), 10);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Event<T>>,
    now: Tick,
    next_seq: u64,
    processed: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue at tick 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0,
            next_seq: 0,
            processed: 0,
        }
    }

    /// Current simulated time (the tick of the last popped event).
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedules an event at absolute tick `when` with default priority.
    ///
    /// # Panics
    ///
    /// Panics when scheduling in the past (`when < now`).
    pub fn schedule(&mut self, when: Tick, payload: T) {
        self.schedule_with_priority(when, 0, payload);
    }

    /// Schedules with an explicit tie-break priority.
    ///
    /// # Panics
    ///
    /// Panics when scheduling in the past.
    pub fn schedule_with_priority(&mut self, when: Tick, priority: Priority, payload: T) {
        assert!(
            when >= self.now,
            "cannot schedule event in the past ({when} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event {
            when,
            priority,
            payload,
            seq,
        });
    }

    /// Schedules `delta` ticks after now.
    pub fn schedule_after(&mut self, delta: Tick, payload: T) {
        let when = self.now.saturating_add(delta);
        self.schedule(when, payload);
    }

    /// Pops the earliest event, advancing simulated time to it.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let event = self.heap.pop()?;
        self.now = event.when;
        self.processed += 1;
        Some(event)
    }

    /// The tick of the next pending event.
    pub fn peek_when(&self) -> Option<Tick> {
        self.heap.peek().map(|e| e.when)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards all pending events without advancing time.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 'c');
        q.schedule(10, 'a');
        q.schedule(20, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
        assert_eq!(q.now(), 30);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_break_by_priority_then_insertion() {
        let mut q = EventQueue::new();
        q.schedule_with_priority(5, 1, "second");
        q.schedule_with_priority(5, 0, "first");
        q.schedule_with_priority(5, 1, "third");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(100, "start");
        q.pop();
        q.schedule_after(50, "end");
        assert_eq!(q.peek_when(), Some(150));
    }

    #[test]
    fn clear_keeps_time() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(20, ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), 10);
    }

    #[test]
    fn sparse_picosecond_gaps_pop_in_order() {
        // Boot stages are ~1e12 ticks apart.
        let mut q = EventQueue::new();
        let mut when = 0u64;
        for stage in 0..16u64 {
            when += 900_000_000_000 + stage * 7_777;
            q.schedule(when, stage);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }
}
