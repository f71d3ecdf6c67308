//! Pluggable load-balancing policies for the cluster front end.
//!
//! A policy picks one node out of a request's candidate set (the replica
//! set for GETs; the primary alone for PUTs). Round-robin is oblivious;
//! the queue-aware policies consult the front end's live per-node load
//! view — outstanding dispatched requests, and for JSQ also the requests
//! parked in each node's admission queue — which is how the cluster
//! reroutes around hot or degraded nodes without any explicit failure
//! signal.

/// Per-node load as the front end sees it.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeLoad {
    /// Requests dispatched to the node and not yet completed.
    pub outstanding: usize,
    /// Requests waiting in the node's admission queue at the front end.
    pub queued: usize,
    /// Extra load charged by the health layer: a node marked `Slow` by
    /// differential detection carries a fixed handicap so the queue-aware
    /// policies steer around it while it still receives a trickle of
    /// traffic (the samples that can readmit it). Round-robin ignores the
    /// penalty — it is load-oblivious by design.
    pub penalty: usize,
}

/// The policies the cluster sweep compares.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LbPolicy {
    /// Rotate through candidates, ignoring load.
    RoundRobin,
    /// Candidate with the fewest dispatched-but-uncompleted requests.
    LeastOutstanding,
    /// Join-shortest-queue: candidate with the fewest total requests
    /// (outstanding plus admission-queued).
    JoinShortestQueue,
}

impl LbPolicy {
    /// Every policy, in presentation order.
    pub const ALL: [LbPolicy; 3] = [
        LbPolicy::RoundRobin,
        LbPolicy::LeastOutstanding,
        LbPolicy::JoinShortestQueue,
    ];

    /// Short table label.
    pub fn label(self) -> &'static str {
        match self {
            LbPolicy::RoundRobin => "round-robin",
            LbPolicy::LeastOutstanding => "least-out",
            LbPolicy::JoinShortestQueue => "jsq",
        }
    }

    /// Picks the target node from `candidates`. `loads` is indexed by
    /// node id; `cursor` advances on every round-robin pick. Ties go to
    /// the candidate listed first (for GETs that is the primary replica),
    /// keeping the choice deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn choose(self, candidates: &[usize], loads: &[NodeLoad], cursor: &mut usize) -> usize {
        self.choose_by(candidates, |n| loads[n], cursor)
    }

    /// [`choose`](Self::choose) with each candidate's load read through
    /// `load(node)`, so a caller with many nodes builds no load table: a
    /// queue-aware pick asks for the candidates' loads only, and
    /// round-robin asks for none.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub(crate) fn choose_by(
        self,
        candidates: &[usize],
        load: impl Fn(usize) -> NodeLoad,
        cursor: &mut usize,
    ) -> usize {
        assert!(
            !candidates.is_empty(),
            "policy needs at least one candidate"
        );
        match self {
            LbPolicy::RoundRobin => {
                let pick = candidates[*cursor % candidates.len()];
                *cursor = cursor.wrapping_add(1);
                pick
            }
            LbPolicy::LeastOutstanding => *candidates
                .iter()
                .min_by_key(|&&n| {
                    let l = load(n);
                    l.outstanding + l.penalty
                })
                .expect("non-empty"),
            LbPolicy::JoinShortestQueue => *candidates
                .iter()
                .min_by_key(|&&n| {
                    let l = load(n);
                    l.outstanding + l.queued + l.penalty
                })
                .expect("non-empty"),
        }
    }
}

impl std::fmt::Display for LbPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(outstanding: &[usize], queued: &[usize]) -> Vec<NodeLoad> {
        outstanding
            .iter()
            .zip(queued)
            .map(|(&o, &q)| NodeLoad {
                outstanding: o,
                queued: q,
                penalty: 0,
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_candidates() {
        let l = loads(&[9, 0, 0], &[0, 0, 0]);
        let mut cursor = 0;
        let picks: Vec<usize> = (0..4)
            .map(|_| LbPolicy::RoundRobin.choose_by(&[0, 2], |n| l[n], &mut cursor))
            .collect();
        // Oblivious: keeps picking the loaded node 0 in turn.
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn least_outstanding_ignores_admission_queues() {
        let l = loads(&[3, 5], &[100, 0]);
        let mut cursor = 0;
        assert_eq!(
            LbPolicy::LeastOutstanding.choose_by(&[0, 1], |n| l[n], &mut cursor),
            0
        );
    }

    #[test]
    fn jsq_counts_queued_work() {
        let l = loads(&[3, 5], &[100, 0]);
        let mut cursor = 0;
        assert_eq!(
            LbPolicy::JoinShortestQueue.choose_by(&[0, 1], |n| l[n], &mut cursor),
            1
        );
    }

    #[test]
    fn slow_penalty_steers_queue_aware_policies() {
        let mut l = loads(&[1, 4], &[0, 0]);
        l[0].penalty = 32;
        let mut cursor = 0;
        // Both queue-aware policies avoid the penalized node...
        assert_eq!(
            LbPolicy::LeastOutstanding.choose_by(&[0, 1], |n| l[n], &mut cursor),
            1
        );
        assert_eq!(
            LbPolicy::JoinShortestQueue.choose_by(&[0, 1], |n| l[n], &mut cursor),
            1
        );
        // ...while round-robin stays oblivious.
        let mut cursor = 0;
        assert_eq!(
            LbPolicy::RoundRobin.choose_by(&[0, 1], |n| l[n], &mut cursor),
            0
        );
    }

    #[test]
    fn picks_read_only_the_candidates_loads() {
        let l = loads(&[0, 7, 4, 0], &[0, 0, 1, 0]);
        let candidates = [2, 1];
        let only_candidates = |n: usize| {
            assert!(
                candidates.contains(&n),
                "read the load of non-candidate {n}"
            );
            l[n]
        };
        let mut cursor = 0;
        assert_eq!(
            LbPolicy::LeastOutstanding.choose_by(&candidates, only_candidates, &mut cursor),
            2
        );
        assert_eq!(
            LbPolicy::JoinShortestQueue.choose_by(&candidates, only_candidates, &mut cursor),
            2
        );
        let no_load = |n: usize| -> NodeLoad { panic!("round-robin read node {n}'s load") };
        assert_eq!(
            LbPolicy::RoundRobin.choose_by(&candidates, no_load, &mut cursor),
            2
        );
    }

    #[test]
    fn choose_over_a_load_table_matches_choose_by() {
        let l = loads(&[3, 1, 2, 1], &[0, 4, 0, 1]);
        for policy in LbPolicy::ALL {
            let (mut a, mut b) = (5, 5);
            for cands in [&[0, 1, 2, 3][..], &[3, 1], &[2]] {
                assert_eq!(
                    policy.choose(cands, &l, &mut a),
                    policy.choose_by(cands, |n| l[n], &mut b),
                    "{policy} over {cands:?}"
                );
            }
            assert_eq!(a, b);
        }
    }

    #[test]
    fn ties_prefer_first_candidate() {
        let l = loads(&[2, 2, 2], &[0, 0, 0]);
        let mut cursor = 0;
        assert_eq!(
            LbPolicy::LeastOutstanding.choose_by(&[1, 0, 2], |n| l[n], &mut cursor),
            1
        );
        assert_eq!(
            LbPolicy::JoinShortestQueue.choose_by(&[2, 1], |n| l[n], &mut cursor),
            2
        );
    }
}
