//! Model of the bounded shard submission queue
//! (`crates/serve/src/shard.rs`): producers push work and receive
//! `Overloaded` when the queue is at capacity; workers pop until the queue
//! is closed and drained. Like `next_batch`, a worker holds the shared
//! receiver lock while it forms a batch: it blocks for a first item, then
//! drains up to `max_batch` items already queued (the linger window is
//! modelled as zero). One worker takes batches of one, the other of two.
//!
//! Invariants checked on every schedule:
//!
//! - the queue never exceeds its capacity (the `Overloaded` contract);
//! - every *accepted* item is consumed exactly once — checksums of the
//!   accepted and popped items match after close/drain;
//! - close wakes every worker, including one parked on the receiver lock
//!   (a schedule where one sleeps forever is a deadlock, which the checker
//!   reports on its own).
//!
//! [`QueueVariant::CapacityToctou`] is the mutant: the capacity check and
//! the insert run under *separate* lock acquisitions, so two racing
//! producers both observe a free slot and overfill the queue.

use crate::sync::{spawn, MAtomicU64, MCondvar, MMutex};
use std::sync::atomic::Ordering;

/// Which push protocol to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueVariant {
    /// Check-and-insert under one lock — must pass exhaustively.
    Correct,
    /// Mutant: capacity checked, lock released, then inserted — overfills.
    CapacityToctou,
}

struct QueueState {
    items: Vec<u64>,
    closed: bool,
}

#[derive(Clone)]
struct ModelQueue {
    state: MMutex<QueueState>,
    cv: MCondvar,
    /// The shard's `Mutex<Receiver>`, held by a worker while it forms a
    /// batch.
    receiver: MMutex<()>,
    capacity: usize,
}

impl ModelQueue {
    fn new(capacity: usize) -> ModelQueue {
        ModelQueue {
            state: MMutex::new(
                "queue.state",
                QueueState {
                    items: Vec::new(),
                    closed: false,
                },
            ),
            cv: MCondvar::new("queue.cv"),
            receiver: MMutex::new("queue.receiver", ()),
            capacity,
        }
    }

    /// Push `item`; false means `Overloaded` (queue at capacity).
    fn push(&self, variant: QueueVariant, item: u64) -> bool {
        match variant {
            QueueVariant::Correct => {
                let mut st = self.state.lock();
                if st.items.len() == self.capacity {
                    return false;
                }
                st.items.push(item);
                assert!(
                    st.items.len() <= self.capacity,
                    "queue exceeded capacity {} with {} items",
                    self.capacity,
                    st.items.len()
                );
                drop(st);
                self.cv.notify_all();
                true
            }
            QueueVariant::CapacityToctou => {
                let full = {
                    let st = self.state.lock();
                    st.items.len() == self.capacity
                };
                // BUG under test: the lock was released; the slot observed
                // free above can be claimed by a racing producer.
                if full {
                    return false;
                }
                let mut st = self.state.lock();
                st.items.push(item);
                assert!(
                    st.items.len() <= self.capacity,
                    "queue exceeded capacity {} with {} items",
                    self.capacity,
                    st.items.len()
                );
                drop(st);
                self.cv.notify_all();
                true
            }
        }
    }

    /// Pop the oldest item, blocking until one arrives or the queue is
    /// closed; `None` means closed-and-drained.
    fn pop(&self) -> Option<u64> {
        let mut st = self.state.lock();
        loop {
            if !st.items.is_empty() {
                return Some(st.items.remove(0));
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st);
        }
    }

    /// Take the oldest item if one is already queued, without blocking.
    fn try_pop(&self) -> Option<u64> {
        let mut st = self.state.lock();
        (!st.items.is_empty()).then(|| st.items.remove(0))
    }

    /// One worker pickup: under the receiver lock, block for a first item,
    /// then take up to `max_batch` in total of what is already queued.
    /// `None` means closed-and-drained.
    fn pop_batch(&self, max_batch: usize) -> Option<Vec<u64>> {
        let _receiver = self.receiver.lock();
        let mut batch = vec![self.pop()?];
        while batch.len() < max_batch {
            match self.try_pop() {
                Some(item) => batch.push(item),
                None => break,
            }
        }
        Some(batch)
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }
}

/// One execution: two producers race a capacity-1 queue; two workers
/// drain it in batches of up to one and two; the root closes after the
/// producers finish.
pub fn queue_model(variant: QueueVariant) {
    let queue = ModelQueue::new(1);
    let accepted = MAtomicU64::new("accepted.sum", 0);
    let popped = MAtomicU64::new("popped.sum", 0);

    let worker = |max_batch: usize| {
        let queue = queue.clone();
        let popped = popped.clone();
        spawn(move || {
            // Summed locally, published once: the checksum is bookkeeping,
            // not protocol, so it costs one scheduling point per worker
            // rather than one per batch.
            let mut sum = 0;
            while let Some(batch) = queue.pop_batch(max_batch) {
                sum += batch.iter().sum::<u64>();
            }
            popped.fetch_add(sum, Ordering::Relaxed);
        })
    };
    let single = worker(1);
    let batching = worker(2);
    let producer = {
        let queue = queue.clone();
        let accepted = accepted.clone();
        spawn(move || {
            if queue.push(variant, 7) {
                accepted.fetch_add(7, Ordering::Relaxed);
            }
        })
    };

    // The root is the second producer.
    if queue.push(variant, 11) {
        accepted.fetch_add(11, Ordering::Relaxed);
    }

    producer.join();
    queue.close();
    single.join();
    batching.join();

    assert_eq!(
        accepted.load(Ordering::Acquire),
        popped.load(Ordering::Acquire),
        "accepted items and popped items diverged"
    );
}
