//! Admission queueing: weighted fair queueing per tenant, with FIFO as
//! the single-stream default and the ablation arm.
//!
//! When a node's service slots are full, arriving requests park in a
//! per-node queue. *Which* parked request gets the next free slot is the
//! QoS decision:
//!
//! * [`QosPolicy::Fifo`] — one shared queue in arrival order. A noisy
//!   tenant that floods the node owns the whole queue: every other
//!   tenant's requests sit behind its backlog (and get shed once the
//!   shared cap fills). This is the arm the noisy-neighbor ablation
//!   degrades.
//! * [`QosPolicy::Wfq`] — start-time fair queueing (SFQ): each request is
//!   stamped `start = max(V, last_finish(tenant))`,
//!   `finish = start + cost / weight`, and the queue dispatches the
//!   smallest finish tag. Each tenant also gets its *own* queue bound, so
//!   a flood can neither crowd out a compliant tenant's queue space nor
//!   delay its dispatch beyond its weighted share.
//!
//! Costs are in bytes (the front end charges a request its payload), so
//! weights divide *bandwidth*, not request counts — a tenant of small
//! GETs is not starved by a tenant of huge scans at equal weight.
//!
//! Everything is deterministic: ties on finish tags break toward the
//! lower tenant index, and virtual time only advances with dispatches.

use std::collections::VecDeque;

/// How a node's admission queue orders parked requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QosPolicy {
    /// One shared arrival-order queue (the ablation arm).
    Fifo,
    /// Start-time weighted fair queueing with per-tenant queue bounds.
    #[default]
    Wfq,
}

impl QosPolicy {
    /// Render label.
    pub fn label(self) -> &'static str {
        match self {
            QosPolicy::Fifo => "fifo",
            QosPolicy::Wfq => "wfq",
        }
    }
}

/// Start-time fair queue over a fixed tenant set.
#[derive(Debug)]
pub struct FairQueue<T> {
    // dcs-lint: allow(float-in-sim-state) — per-tenant config weights, frozen at construction
    weights: Vec<f64>,
    // dcs-lint: allow(float-in-sim-state) — WFQ virtual time is fractional by construction; single-threaded IEEE-754 evaluation order makes it seed-stable
    vtime: f64,
    // dcs-lint: allow(float-in-sim-state) — same virtual-time clock as `vtime`
    last_finish: Vec<f64>,
    /// Per-tenant FIFO of `(start, finish, item)`.
    // dcs-lint: allow(float-in-sim-state) — virtual-time tags on queued items, same clock as `vtime`
    queues: Vec<VecDeque<(f64, f64, T)>>,
    len: usize,
}

impl<T> FairQueue<T> {
    /// Creates the queue; one strictly positive weight per tenant.
    pub fn new(weights: &[f64]) -> FairQueue<T> {
        assert!(!weights.is_empty(), "fair queue needs at least one tenant");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        FairQueue {
            weights: weights.to_vec(),
            vtime: 0.0,
            last_finish: vec![0.0; weights.len()],
            queues: weights.iter().map(|_| VecDeque::new()).collect(),
            len: 0,
        }
    }

    /// Parks `item` for `tenant` with service demand `cost` (bytes).
    pub fn push(&mut self, tenant: usize, cost: f64, item: T) {
        let start = self.vtime.max(self.last_finish[tenant]);
        let finish = start + cost.max(1.0) / self.weights[tenant];
        self.last_finish[tenant] = finish;
        self.queues[tenant].push_back((start, finish, item));
        self.len += 1;
    }

    /// Dispatches the parked item with the smallest finish tag (ties to
    /// the lowest tenant index). Advances virtual time to its start tag.
    pub fn pop(&mut self) -> Option<(usize, T)> {
        let tenant = self
            .queues
            .iter()
            .enumerate()
            .filter_map(|(t, q)| q.front().map(|&(_, finish, _)| (t, finish)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))?
            .0;
        let (start, _, item) = self.queues[tenant].pop_front().expect("head just observed");
        self.vtime = self.vtime.max(start);
        self.len -= 1;
        Some((tenant, item))
    }

    /// Parked items for one tenant.
    pub(crate) fn tenant_len(&self, tenant: usize) -> usize {
        self.queues[tenant].len()
    }

    /// Parked items in total.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A node's admission queue under either policy, with shedding bounds.
///
/// Under FIFO the bound is shared (`per_tenant_cap × tenants`); under WFQ
/// each tenant owns `per_tenant_cap` slots of queue space. Total capacity
/// is identical — only its ownership differs, which is exactly the
/// isolation the ablation measures.
#[derive(Debug)]
pub enum QosQueue<T> {
    /// Shared arrival-order queue of `(tenant, item)`.
    Fifo {
        /// The queue.
        queue: VecDeque<(usize, T)>,
        /// Shared bound.
        cap: usize,
    },
    /// Weighted fair queue with per-tenant bounds.
    Wfq {
        /// The queue.
        fq: FairQueue<T>,
        /// Per-tenant bound.
        cap: usize,
    },
}

impl<T> QosQueue<T> {
    /// Creates the queue for `policy` with `per_tenant_cap` queue slots
    /// per tenant.
    pub fn new(policy: QosPolicy, weights: &[f64], per_tenant_cap: usize) -> QosQueue<T> {
        match policy {
            QosPolicy::Fifo => QosQueue::Fifo {
                queue: VecDeque::new(),
                cap: per_tenant_cap * weights.len(),
            },
            QosPolicy::Wfq => QosQueue::Wfq {
                fq: FairQueue::new(weights),
                cap: per_tenant_cap,
            },
        }
    }

    /// Parks `item`, or returns it when the applicable bound is full (the
    /// caller sheds it).
    pub fn try_push(&mut self, tenant: usize, cost: f64, item: T) -> Result<(), T> {
        match self {
            QosQueue::Fifo { queue, cap } => {
                if queue.len() >= *cap {
                    return Err(item);
                }
                queue.push_back((tenant, item));
                Ok(())
            }
            QosQueue::Wfq { fq, cap } => {
                if fq.tenant_len(tenant) >= *cap {
                    return Err(item);
                }
                fq.push(tenant, cost, item);
                Ok(())
            }
        }
    }

    /// Dispatches the next item per the policy.
    pub fn pop(&mut self) -> Option<(usize, T)> {
        match self {
            QosQueue::Fifo { queue, .. } => queue.pop_front(),
            QosQueue::Wfq { fq, .. } => fq.pop(),
        }
    }

    /// Parked items in total.
    pub fn len(&self) -> usize {
        match self {
            QosQueue::Fifo { queue, .. } => queue.len(),
            QosQueue::Wfq { fq, .. } => fq.len(),
        }
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains every parked item in dispatch order (crash reroute, window
    /// close).
    pub fn drain(&mut self) -> Vec<(usize, T)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(x) = self.pop() {
            out.push(x);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wfq_splits_dispatches_by_weight() {
        // Tenant 0 at weight 2, tenant 1 at weight 1, equal costs: the
        // dispatch stream gives tenant 0 two slots per tenant-1 slot.
        let mut fq = FairQueue::new(&[2.0, 1.0]);
        for i in 0..12 {
            fq.push(0, 1000.0, ("a", i));
            fq.push(1, 1000.0, ("b", i));
        }
        let first_nine: Vec<usize> = (0..9).map(|_| fq.pop().unwrap().0).collect();
        let t0 = first_nine.iter().filter(|&&t| t == 0).count();
        assert_eq!(t0, 6, "weight-2 tenant gets 2/3 of slots: {first_nine:?}");
    }

    #[test]
    fn wfq_charges_bytes_not_requests() {
        // Equal weights, but tenant 1's requests are 10x the size: tenant
        // 0 should get ~10 dispatches per tenant-1 dispatch.
        let mut fq = FairQueue::new(&[1.0, 1.0]);
        for i in 0..40 {
            fq.push(0, 1000.0, i);
        }
        for i in 0..4 {
            fq.push(1, 10_000.0, 100 + i);
        }
        let first: Vec<usize> = (0..22).map(|_| fq.pop().unwrap().0).collect();
        let t1 = first.iter().filter(|&&t| t == 1).count();
        assert!(
            (1..=3).contains(&t1),
            "big requests pay their bytes: {first:?}"
        );
    }

    #[test]
    fn wfq_preserves_per_tenant_fifo_order_and_is_work_conserving() {
        let mut fq = FairQueue::new(&[1.0, 1.0]);
        fq.push(0, 10.0, 1);
        fq.push(0, 10.0, 2);
        fq.push(0, 10.0, 3);
        // Tenant 1 idle: tenant 0 drains back-to-back in order.
        let order: Vec<(usize, i32)> = (0..3).map(|_| fq.pop().unwrap()).collect();
        assert_eq!(order, vec![(0, 1), (0, 2), (0, 3)]);
        assert!(fq.pop().is_none());
    }

    #[test]
    fn late_arriving_tenant_is_not_starved_by_backlog() {
        // Tenant 0 parks a deep backlog; tenant 1 arrives later. SFQ
        // stamps tenant 1 from current virtual time, so it interleaves
        // immediately instead of waiting out the backlog.
        let mut fq = FairQueue::new(&[1.0, 1.0]);
        for i in 0..50 {
            fq.push(0, 1000.0, i);
        }
        for _ in 0..5 {
            fq.pop();
        }
        fq.push(1, 1000.0, 999);
        let next_four: Vec<usize> = (0..4).map(|_| fq.pop().unwrap().0).collect();
        assert!(
            next_four.contains(&1),
            "late tenant dispatches promptly: {next_four:?}"
        );
    }

    #[test]
    fn fifo_queue_is_arrival_ordered_with_shared_cap() {
        let mut q: QosQueue<i32> = QosQueue::new(QosPolicy::Fifo, &[1.0, 1.0], 2);
        assert!(q.try_push(0, 1.0, 10).is_ok());
        assert!(q.try_push(1, 1.0, 11).is_ok());
        assert!(q.try_push(0, 1.0, 12).is_ok());
        assert!(q.try_push(0, 1.0, 13).is_ok());
        // Shared cap 4 is full — even the idle tenant is refused.
        assert_eq!(q.try_push(1, 1.0, 14), Err(14));
        assert_eq!(q.pop(), Some((0, 10)));
        assert_eq!(q.pop(), Some((1, 11)));
    }

    #[test]
    fn wfq_queue_bounds_are_per_tenant() {
        let mut q: QosQueue<i32> = QosQueue::new(QosPolicy::Wfq, &[1.0, 1.0], 2);
        assert!(q.try_push(0, 1.0, 1).is_ok());
        assert!(q.try_push(0, 1.0, 2).is_ok());
        // Tenant 0's own bound is full...
        assert_eq!(q.try_push(0, 1.0, 3), Err(3));
        // ...but tenant 1's space is untouchable by the flood.
        assert!(q.try_push(1, 1.0, 4).is_ok());
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn dispatch_order_is_deterministic_across_runs() {
        let run = || {
            let mut fq = FairQueue::new(&[3.0, 1.0, 1.0]);
            for i in 0..30 {
                fq.push((i % 3) as usize, 500.0 + (i as f64) * 7.0, i);
            }
            let mut order = Vec::new();
            while let Some((t, i)) = fq.pop() {
                order.push((t, i));
            }
            order
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn drain_empties_in_dispatch_order() {
        let mut q: QosQueue<i32> = QosQueue::new(QosPolicy::Wfq, &[1.0, 2.0], 8);
        q.try_push(0, 100.0, 1).unwrap();
        q.try_push(1, 100.0, 2).unwrap();
        q.try_push(1, 100.0, 3).unwrap();
        let drained = q.drain();
        assert_eq!(drained.len(), 3);
        assert!(q.is_empty());
        // Weight-2 tenant's first item finishes first.
        assert_eq!(drained[0], (1, 2));
    }
}
