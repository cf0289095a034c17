//! Writer coordination: per-fragment latches and the commit-order ticket.
//!
//! **Owns** [`LatchTable`] (one [`FragLatch`] per document, guarding the
//! document's mutable master) and [`CommitOrder`] (ticket draw and the
//! publish turnstile).  Together they fix how concurrent commits
//! interleave: latches in ascending fragment order, then a ticket, then
//! publishes in ticket order.
//!
//! **May call** nothing else in `db`: these are leaf primitives.  The
//! commit pipeline and checkpoint eviction call into them.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mxq_xmldb::PagedDocument;

/// One fragment's write latch: a mutex whose critical section is the whole
/// commit pipeline for that fragment (PUL application onto the master,
/// durability wait, publish).  The guarded slot holds the fragment's
/// mutable master, when one exists.
///
/// The master shares its column image with the published snapshot via
/// `Arc` (copy-on-write per touched chunk), so keeping it
/// around costs no duplicate storage; an empty slot is reconstructed from
/// the published snapshot on the fragment's next update (cheap `Arc`
/// clones).  Invariant: between commits, a non-empty slot's content equals
/// the fragment's published state — a writer that mutated the master but
/// failed to publish (WAL append or group fsync error) clears the slot.
pub(super) struct FragLatch {
    pub(super) slot: Mutex<Option<PagedDocument>>,
}

/// The per-document latch table.  Writers latch the fragments their
/// pending-update list touches — written or read — in ascending fragment
/// order (so two writers overlapping on several documents can never
/// deadlock); disjoint-document writers take disjoint latches and run
/// fully in parallel.  A latch taken for a read-only fragment leaves the
/// master slot untouched; it is held purely so the fragment cannot be
/// republished while a commit that read from it is in flight.
#[derive(Default)]
pub(super) struct LatchTable {
    map: Mutex<HashMap<u32, Arc<FragLatch>>>,
}

impl LatchTable {
    /// The latch for a fragment, created on first use.
    pub(super) fn latch(&self, frag: u32) -> Arc<FragLatch> {
        self.map
            .lock()
            .unwrap()
            .entry(frag)
            .or_insert_with(|| {
                Arc::new(FragLatch {
                    slot: Mutex::new(None),
                })
            })
            .clone()
    }

    /// Drop a fragment's master if no writer currently holds its latch
    /// (used by checkpoint eviction).  Returns false when the latch is
    /// held — the fragment is mid-commit and must not be evicted.
    pub(super) fn try_clear(&self, frag: u32) -> bool {
        let Some(latch) = self.map.lock().unwrap().get(&frag).cloned() else {
            return true;
        };
        let cleared = latch.slot.try_lock().map(|mut slot| *slot = None).is_ok();
        cleared
    }
}

/// The commit-ordering ticket.  `begin` hands out the generation a commit
/// will land on; `publish` is a turnstile that runs the publish closures
/// in strict ticket order, so the store generation stays the count of
/// committed tickets and readers observe commits in the order they were
/// stamped into the WAL.  A commit that fails after taking a ticket calls
/// `abort`, which lets the turnstile move past the hole (the skipped
/// generation is never published — recovery tolerates gaps because replay
/// orders by stamp, not by density).
pub(super) struct CommitOrder {
    state: Mutex<CommitClock>,
}

struct CommitClock {
    /// The next generation to hand out.
    next_ticket: u64,
    /// The lowest ticket that has not yet published.
    next_publish: u64,
    /// Commits parked waiting for their turn, keyed by ticket.  Each
    /// publish unparks exactly its successor — a shared condvar broadcast
    /// would wake every waiter per advance (a thundering herd on the
    /// commit hot path when a group-commit batch drains).
    waiters: HashMap<u64, std::thread::Thread>,
}

impl CommitOrder {
    pub(super) fn new(generation: u64) -> CommitOrder {
        CommitOrder {
            state: Mutex::new(CommitClock {
                next_ticket: generation + 1,
                next_publish: generation + 1,
                waiters: HashMap::new(),
            }),
        }
    }

    /// Take the next commit ticket.  Call only with every needed fragment
    /// latch already held — a ticket holder blocking on a latch held by a
    /// *later* ticket would deadlock the turnstile.
    pub(super) fn begin(&self) -> u64 {
        let mut s = self.state.lock().unwrap();
        let t = s.next_ticket;
        s.next_ticket += 1;
        t
    }

    /// Reset both counters after recovery landed the store on `generation`.
    pub(super) fn reset(&self, generation: u64) {
        let mut s = self.state.lock().unwrap();
        s.next_ticket = generation + 1;
        s.next_publish = generation + 1;
    }

    /// Wait for `ticket`'s turn, run the publish closure, advance the
    /// turnstile.
    pub(super) fn publish<R>(&self, ticket: u64, f: impl FnOnce() -> R) -> R {
        let mut s = self.state.lock().unwrap();
        while s.next_publish != ticket {
            s.waiters.insert(ticket, std::thread::current());
            drop(s);
            // park() may return spuriously or from a stale unpark token;
            // the loop re-checks the turn either way
            std::thread::park();
            s = self.state.lock().unwrap();
        }
        s.waiters.remove(&ticket);
        let r = f();
        s.next_publish = ticket + 1;
        let successor = s.waiters.get(&s.next_publish).cloned();
        drop(s);
        if let Some(t) = successor {
            t.unpark();
        }
        r
    }

    /// Give up a ticket after a failed commit: take the turn and publish
    /// nothing, so later tickets are not stalled forever.
    pub(super) fn abort(&self, ticket: u64) {
        self.publish(ticket, || ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn turnstile_publishes_in_ticket_order_past_an_aborted_ticket() {
        let order = Arc::new(CommitOrder::new(0));
        let tickets: Vec<u64> = (0..4).map(|_| order.begin()).collect();
        assert_eq!(tickets, [1, 2, 3, 4]);
        let ran = Arc::new(Mutex::new(Vec::new()));
        let (done, finished) = mpsc::channel();
        let parked = |ticket: u64| order.state.lock().unwrap().waiters.contains_key(&ticket);
        // arrivals in reverse ticket order; each of 4, 3 and 2 is parked
        // before the next thread starts, so the turnstile alone orders them
        for ticket in [4, 3, 2, 1] {
            let (order, ran, done) = (order.clone(), ran.clone(), done.clone());
            std::thread::spawn(move || {
                if ticket == 2 {
                    order.abort(ticket);
                } else {
                    order.publish(ticket, || ran.lock().unwrap().push(ticket));
                }
                done.send(ticket).unwrap();
            });
            if ticket != 1 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !parked(ticket) {
                    assert!(Instant::now() < deadline, "ticket {ticket} never parked");
                    std::thread::yield_now();
                }
            }
        }
        for _ in 0..4 {
            finished
                .recv_timeout(Duration::from_secs(10))
                .expect("a ticket stalled in the turnstile");
        }
        assert_eq!(*ran.lock().unwrap(), [1, 3, 4]);
        // the turnstile is past every ticket: the next one publishes at once
        let next = order.begin();
        assert_eq!(next, 5);
        order.publish(next, || ());
    }
}
