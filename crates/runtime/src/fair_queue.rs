//! The lanes' bounded fair-share job queue.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::metrics::MetricsHub;

/// The bounded fair-share job queue: per-tenant FIFOs drained in
/// deterministic round-robin order. A tenant holds state only while it
/// has queued jobs.
///
/// `push` blocks on the limits and fails only once closed; `pop` drains
/// everything admitted before returning `None` after close. Beyond a
/// plain bounded FIFO it adds:
///
/// * **Per-tenant quota.** A tenant with `quota` jobs already queued
///   blocks its own producers, leaving the remaining capacity to other
///   tenants (self-backpressure instead of crowding).
/// * **Round-robin service.** Tenants with queued work form a rotation
///   in first-submission order; each pop serves the front tenant's
///   oldest job and moves that tenant to the back if it still has work.
///   Within a tenant, order is strict FIFO — so the service order seen
///   by any one tenant is independent of how much the others submit.
pub(crate) struct FairQueue<T> {
    state: Mutex<FairState<T>>,
    /// Signaled when a job is admitted or the queue closes (poppers).
    ready: Condvar,
    /// Signaled when a pop frees capacity or the queue closes (pushers;
    /// `notify_all`, because waiters block on different predicates —
    /// global capacity vs. their own tenant's quota).
    vacancy: Condvar,
}

struct FairState<T> {
    capacity: usize,
    quota: usize,
    len: usize,
    closed: bool,
    /// Tenants with at least one queued job, in service order, each with
    /// its FIFO. A tenant leaves when its FIFO drains, so at most
    /// `capacity` are here and a linear scan finds one.
    rotation: VecDeque<(String, VecDeque<T>)>,
    /// The tenant served by the previous pop, for the structural
    /// starvation check (see [`MetricsHub::fair_share_violation`]).
    last_popped: Option<String>,
    /// Whether another tenant was already waiting when the previous pop
    /// was served. Serving the same tenant twice in a row is only a
    /// starvation violation if someone else has been waiting the whole
    /// time — a tenant that arrived in between legitimately queues
    /// behind the incumbent's rotation slot.
    last_pop_had_others: bool,
}

impl<T> FairQueue<T> {
    pub(crate) fn new(capacity: usize, quota: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(quota > 0, "tenant quota must be positive");
        Self {
            state: Mutex::new(FairState {
                capacity,
                quota,
                len: 0,
                closed: false,
                rotation: VecDeque::new(),
                last_popped: None,
                last_pop_had_others: false,
            }),
            ready: Condvar::new(),
            vacancy: Condvar::new(),
        }
    }

    /// Blocks until both the global capacity and `tenant`'s quota admit
    /// the item, then enqueues it. `Err(item)` once the queue is closed.
    pub(crate) fn push(&self, tenant: &str, item: T) -> Result<(), T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let st = &mut *state;
            if st.closed {
                return Err(item);
            }
            let queue = st.rotation.iter_mut().find(|(name, _)| name == tenant).map(|(_, q)| q);
            if st.len < st.capacity && queue.as_ref().map_or(0, |q| q.len()) < st.quota {
                match queue {
                    Some(queue) => queue.push_back(item),
                    // Empty → non-empty: the tenant (re)joins the
                    // rotation at the back — "ties by submission order".
                    None => st.rotation.push_back((tenant.to_string(), VecDeque::from([item]))),
                }
                st.len += 1;
                self.ready.notify_one();
                return Ok(());
            }
            state = self.vacancy.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Pops the next job in fair-share order, blocking while the queue
    /// is empty but open. `None` once closed *and* drained.
    pub(crate) fn pop(&self, hub: &MetricsHub) -> Option<T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some((tenant, mut queue)) = state.rotation.pop_front() {
                // A tenant leaves the rotation when its queue drains, so
                // this always finds work.
                let Some(item) = queue.pop_front() else {
                    continue;
                };
                // Structural starvation check: serving the same tenant
                // twice in a row while another tenant has been waiting
                // since the previous pop would mean the rotation is
                // broken. Counted, never expected.
                if state.last_pop_had_others && state.last_popped.as_deref() == Some(&*tenant) {
                    hub.fair_share_violation();
                }
                state.last_pop_had_others = !state.rotation.is_empty();
                state.last_popped = Some(if queue.is_empty() {
                    tenant
                } else {
                    let name = tenant.clone();
                    state.rotation.push_back((tenant, queue));
                    name
                });
                state.len -= 1;
                self.vacancy.notify_all();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: pending `pop`s drain what was admitted, then
    /// every blocked caller returns.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        self.ready.notify_all();
        self.vacancy.notify_all();
    }

    /// Jobs currently queued across all tenants.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResponseCache;
    use crate::server::tests::test_hub;
    use std::time::Duration;

    #[test]
    fn fair_queue_serves_tenants_round_robin_in_submission_order() {
        let queue: FairQueue<&'static str> = FairQueue::new(8, 8);
        let hub = test_hub();
        queue.push("a", "a1").unwrap();
        queue.push("a", "a2").unwrap();
        queue.push("b", "b1").unwrap();
        queue.push("c", "c1").unwrap();
        queue.push("a", "a3").unwrap();
        queue.close();
        let mut order = Vec::new();
        while let Some(item) = queue.pop(&hub) {
            order.push(item);
        }
        // Round-robin across tenants (first submission first), FIFO
        // within each tenant.
        assert_eq!(order, vec!["a1", "b1", "c1", "a2", "a3"]);
        assert_eq!(hub.snapshot(&ResponseCache::new(0)).fair_share_violations, 0);
    }

    #[test]
    fn fair_queue_quota_blocks_only_the_offending_tenant() {
        let queue: FairQueue<u32> = FairQueue::new(8, 1);
        let hub = test_hub();
        queue.push("hog", 1).unwrap();
        // The hog is at quota; another tenant still gets in immediately.
        queue.push("other", 10).unwrap();
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| queue.push("hog", 2));
            // Give the push a moment to block, then drain one hog job:
            // the blocked producer must get through.
            std::thread::sleep(Duration::from_millis(20));
            assert!(!blocked.is_finished(), "push should block at quota");
            assert_eq!(queue.pop(&hub), Some(1));
            blocked.join().unwrap().unwrap();
        });
        assert_eq!(queue.pop(&hub), Some(10));
        assert_eq!(queue.pop(&hub), Some(2));
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn fair_queue_forgets_drained_tenants() {
        let queue: FairQueue<usize> = FairQueue::new(8, 2);
        let hub = test_hub();
        for i in 0..1000 {
            queue.push(&format!("tenant-{i}"), i).unwrap();
            if i % 2 == 1 {
                assert_eq!(queue.pop(&hub), Some(i - 1));
                assert_eq!(queue.pop(&hub), Some(i));
            }
        }
        let state = queue.state.lock().unwrap();
        // Every field named: a new one must say here whether it holds
        // per-tenant state.
        let FairState {
            capacity: _,
            quota: _,
            len,
            closed: _,
            rotation,
            last_popped,
            last_pop_had_others: _,
        } = &*state;
        assert_eq!(*len, 0);
        assert!(rotation.is_empty(), "{} drained tenants kept", rotation.len());
        // The starvation check remembers one name, the last one served.
        assert_eq!(last_popped.as_deref(), Some("tenant-999"));
        assert_eq!(hub.snapshot(&ResponseCache::new(0)).fair_share_violations, 0);
    }

    #[test]
    fn fair_queue_close_drains_then_rejects() {
        let queue: FairQueue<u32> = FairQueue::new(4, 4);
        let hub = test_hub();
        queue.push("t", 1).unwrap();
        queue.push("t", 2).unwrap();
        queue.close();
        assert_eq!(queue.push("t", 3), Err(3), "push after close must fail");
        assert_eq!(queue.pop(&hub), Some(1));
        assert_eq!(queue.pop(&hub), Some(2));
        assert_eq!(queue.pop(&hub), None);
    }
}
