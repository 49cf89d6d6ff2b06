//! Model of hot-reload swap + drain-retire
//! (`crates/serve/src/shard.rs` / `swap_in` in `crates/serve/src/reload.rs`,
//! the one rebuild-and-swap path every reload and rollback takes): a reloader
//! redirects submitters to a fresh queue, then closes and drains the old
//! one; the old worker must quiesce without dropping a request. The old
//! worker drains the old queue directly, as the shard's workers do: there is
//! no batcher thread between queue and worker.
//!
//! The protocol under check:
//!
//! 1. submitters read the active-queue index (`Acquire`) and push there; a
//!    push rejected because the queue closed re-reads the index and
//!    retries (the real gateway resubmits to the new shard's sender);
//! 2. the reloader publishes the new index (`Release`) **before** closing
//!    the old queue, so a rejected submitter always finds the new queue;
//! 3. close wakes the old worker, which drains remaining items and exits;
//!    the reloader joins it (quiescence — a stuck worker is a deadlock the
//!    checker reports on its own).
//!
//! Invariant: every accepted request is processed by exactly one worker
//! (accepted and processed checksums match once both workers retired).
//!
//! [`SwapVariant::DropOnClose`] is the mutant: the reloader force-closes
//! the old queue, discarding queued items instead of letting the worker
//! drain them — a request that was accepted is never answered.

use crate::sync::{spawn, MAtomicU64, MAtomicUsize, MCondvar, MMutex};
use std::sync::atomic::Ordering;

/// Which retire protocol to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapVariant {
    /// Swap, close, drain — must pass exhaustively.
    Correct,
    /// Mutant: close discards queued items instead of draining them.
    DropOnClose,
}

struct QueueState {
    items: Vec<u64>,
    closed: bool,
}

#[derive(Clone)]
struct ModelQueue {
    state: MMutex<QueueState>,
    cv: MCondvar,
}

impl ModelQueue {
    fn new(name_state: &str, name_cv: &str) -> ModelQueue {
        ModelQueue {
            state: MMutex::new(
                name_state,
                QueueState {
                    items: Vec::new(),
                    closed: false,
                },
            ),
            cv: MCondvar::new(name_cv),
        }
    }

    /// Push unless the queue has closed; false means "resubmit elsewhere".
    fn push(&self, item: u64) -> bool {
        let mut st = self.state.lock();
        if st.closed {
            return false;
        }
        st.items.push(item);
        drop(st);
        self.cv.notify_all();
        true
    }

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

    fn close(&self, variant: SwapVariant) {
        let mut st = self.state.lock();
        st.closed = true;
        if variant == SwapVariant::DropOnClose {
            // BUG under test: queued requests vanish instead of draining.
            st.items.clear();
        }
        drop(st);
        self.cv.notify_all();
    }
}

fn worker(queue: &ModelQueue, processed: &MAtomicU64) {
    while let Some(item) = queue.pop() {
        processed.fetch_add(item, Ordering::Relaxed);
    }
}

/// One execution: a submitter races the reload; old worker drains, new
/// worker takes over; nothing accepted is lost.
pub fn swap_model(variant: SwapVariant) {
    let old_queue = ModelQueue::new("old.state", "old.cv");
    let new_queue = ModelQueue::new("new.state", "new.cv");
    let active = MAtomicUsize::new("active", 0);
    let accepted = MAtomicU64::new("accepted.sum", 0);
    let processed = MAtomicU64::new("processed.sum", 0);

    let old_worker = {
        let (q, p) = (old_queue.clone(), processed.clone());
        spawn(move || worker(&q, &p))
    };
    let new_worker = {
        let (q, p) = (new_queue.clone(), processed.clone());
        spawn(move || worker(&q, &p))
    };
    let submitter = {
        let (oq, nq) = (old_queue.clone(), new_queue.clone());
        let (active, accepted) = (active.clone(), accepted.clone());
        spawn(move || {
            // Two attempts suffice: a rejection proves the old queue
            // closed, which the protocol orders after the swap.
            for _ in 0..2 {
                let target = if active.load(Ordering::Acquire) == 0 {
                    &oq
                } else {
                    &nq
                };
                if target.push(3) {
                    accepted.fetch_add(3, Ordering::Relaxed);
                    break;
                }
            }
        })
    };

    // The root is the reloader: publish the new route, then retire the old
    // queue and wait for its worker to quiesce.
    active.store(1, Ordering::Release);
    old_queue.close(variant);
    old_worker.join();

    submitter.join();
    new_queue.close(SwapVariant::Correct);
    new_worker.join();

    assert_eq!(
        accepted.load(Ordering::Acquire),
        processed.load(Ordering::Acquire),
        "a request was accepted but never processed"
    );
}
