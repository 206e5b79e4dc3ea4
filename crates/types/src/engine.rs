//! Engine-layer contracts shared by every clocked component.
//!
//! The simulator advances in lock-step: each cycle, every component —
//! core, cache hierarchy, NoC, DRAM — is ticked exactly once, and all
//! cross-component communication flows through explicit message ports.
//! This module defines that contract:
//!
//! * [`Tick`] — the single-method clocking interface a component exposes.
//! * [`Port`] / [`Channel`] — typed, bounded/unbounded FIFO message
//!   endpoints replacing ad-hoc `Vec` plumbing between components.
//! * [`SimClock`] — the cycle counter that drives a set of components.
//!
//! Keeping these in `clip-types` (not `clip-sim`) lets component crates
//! implement [`Tick`] directly, so a tile, a NoC, or a DRAM model can be
//! driven by any engine without depending on the system crate.

use crate::Cycle;
use std::collections::VecDeque;

/// A clocked component: advances exactly one cycle per call.
///
/// Implementations must be deterministic — given the same sequence of
/// `tick` calls and port traffic, a component must reach the same state.
/// That property is what makes the parallel sweep driver safe: each
/// simulated system is fully isolated and per-run results are
/// bit-reproducible regardless of host-thread scheduling.
pub trait Tick {
    /// Advances the component to the end of cycle `now`.
    fn tick(&mut self, now: Cycle);
}

/// An unbounded typed FIFO channel between two components.
///
/// One side pushes, the other drains; there is no interior mutability or
/// locking — the engine owns both ends and alternates access, which is
/// exactly the lock-step semantics of a hardware wire and keeps the whole
/// simulator `Send` without atomics.
#[derive(Debug, Clone)]
pub struct Channel<T> {
    queue: VecDeque<T>,
}

impl<T> Default for Channel<T> {
    fn default() -> Self {
        Channel {
            queue: VecDeque::new(),
        }
    }
}

impl<T> Channel<T> {
    /// Creates an empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a message.
    #[inline]
    pub fn push(&mut self, msg: T) {
        self.queue.push_back(msg);
    }

    /// Dequeues the oldest message, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.queue.pop_front()
    }

    /// Drains every queued message in FIFO order.
    #[inline]
    pub fn drain(&mut self) -> std::collections::vec_deque::Drain<'_, T> {
        self.queue.drain(..)
    }

    /// Messages currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no message is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Peeks at the oldest message without removing it.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.queue.front()
    }

    /// Iterates queued messages oldest-first without removing them.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.queue.iter()
    }
}

/// A bounded typed port: a [`Channel`] with a capacity, modelling
/// finite buffering (back-pressure) at a component boundary.
#[derive(Debug, Clone)]
pub struct Port<T> {
    channel: Channel<T>,
    capacity: usize,
}

impl<T> Port<T> {
    /// Creates a port holding at most `capacity` messages.
    pub fn bounded(capacity: usize) -> Self {
        Port {
            channel: Channel::new(),
            capacity: capacity.max(1),
        }
    }

    /// Attempts to enqueue; returns `Err(msg)` when the port is full so
    /// the sender can retry (hardware back-pressure).
    #[inline]
    pub fn try_push(&mut self, msg: T) -> Result<(), T> {
        if self.channel.len() >= self.capacity {
            Err(msg)
        } else {
            self.channel.push(msg);
            Ok(())
        }
    }

    /// Dequeues the oldest message, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.channel.pop()
    }

    /// Peeks at the oldest message.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.channel.front()
    }

    /// Messages currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.channel.len()
    }

    /// True when no message is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.channel.is_empty()
    }

    /// True when the port cannot accept another message.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.channel.len() >= self.capacity
    }

    /// Configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates queued messages oldest-first without removing them.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.channel.iter()
    }
}

/// The lock-step cycle driver.
///
/// Owns the current cycle; components read it, only the engine advances
/// it, one cycle at a time. `SimClock` is deliberately dumb — scheduling
/// policy (event rings, epochs) lives with the engine that owns the
/// components.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimClock {
    now: Cycle,
}

impl SimClock {
    /// A clock at cycle zero.
    pub fn new() -> Self {
        SimClock { now: 0 }
    }

    /// Current cycle.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advances to the next cycle and returns it.
    #[inline]
    pub fn advance(&mut self) -> Cycle {
        self.now += 1;
        self.now
    }

    /// Drives a set of components through one cycle at the current time.
    pub fn tick_all<'a>(&self, components: impl IntoIterator<Item = &'a mut dyn Tick>) {
        for c in components {
            c.tick(self.now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_is_fifo() {
        let mut ch = Channel::new();
        ch.push(1);
        ch.push(2);
        ch.push(3);
        assert_eq!(ch.len(), 3);
        assert_eq!(ch.pop(), Some(1));
        let rest: Vec<i32> = ch.drain().collect();
        assert_eq!(rest, vec![2, 3]);
        assert!(ch.is_empty());
    }

    #[test]
    fn port_applies_backpressure() {
        let mut p = Port::bounded(2);
        assert!(p.try_push(1).is_ok());
        assert!(p.try_push(2).is_ok());
        assert!(p.is_full());
        assert_eq!(p.try_push(3), Err(3));
        assert_eq!(p.pop(), Some(1));
        assert!(p.try_push(3).is_ok());
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn clock_drives_components() {
        struct Counter(u64, Vec<Cycle>);
        impl Tick for Counter {
            fn tick(&mut self, now: Cycle) {
                self.0 += 1;
                self.1.push(now);
            }
        }
        let mut clock = SimClock::new();
        let mut a = Counter(0, Vec::new());
        let mut b = Counter(0, Vec::new());
        for _ in 0..3 {
            clock.tick_all([&mut a as &mut dyn Tick, &mut b as &mut dyn Tick]);
            clock.advance();
        }
        assert_eq!(clock.now(), 3);
        assert_eq!(a.0, 3);
        assert_eq!(b.1, vec![0, 1, 2]);
    }
}
