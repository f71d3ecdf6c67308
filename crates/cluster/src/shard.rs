//! Consistent-hash object sharding with R-way replication.
//!
//! Objects are placed on a hash ring of virtual nodes (many per physical
//! node, for balance). An object's *primary* is the owner of the first
//! vnode at or after the object's hash; its replica set is the primary
//! plus the owners of the next distinct physical nodes around the ring.
//! PUTs land on the primary; GETs may be served by any replica, which is
//! what gives the load balancer a choice to exploit.
//!
//! The ring is deterministic in the node count and vnode count alone — no
//! RNG — so every run of a given cluster shape produces the same
//! placement, and adding a node moves only the keys that hash into the
//! slices its vnodes claim (the property that makes consistent hashing
//! the standard datacenter sharding scheme).

/// SplitMix64: a well-mixed deterministic 64-bit hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The consistent-hash ring.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(hash, node)` pairs sorted by hash.
    vnodes: Vec<(u64, usize)>,
    nodes: usize,
    replication: usize,
}

impl HashRing {
    /// A ring over `nodes` physical nodes with `vnodes_per_node` virtual
    /// nodes each and `replication`-way replica sets (clamped to the node
    /// count).
    ///
    /// # Panics
    ///
    /// Panics if `nodes`, `vnodes_per_node`, or `replication` is zero.
    pub fn new(nodes: usize, vnodes_per_node: usize, replication: usize) -> HashRing {
        assert!(nodes > 0, "ring needs at least one node");
        assert!(
            vnodes_per_node > 0,
            "ring needs at least one vnode per node"
        );
        assert!(replication > 0, "replication factor must be at least one");
        let mut vnodes = Vec::with_capacity(nodes * vnodes_per_node);
        for node in 0..nodes {
            for v in 0..vnodes_per_node {
                vnodes.push((mix((node as u64) << 32 | v as u64), node));
            }
        }
        vnodes.sort_unstable();
        HashRing {
            vnodes,
            nodes,
            replication: replication.min(nodes),
        }
    }

    /// Number of physical nodes on the ring.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Effective replication factor (requested, clamped to node count).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The primary node for `object`.
    pub fn primary(&self, object: u64) -> usize {
        self.replicas(object)[0]
    }

    /// The replica set for `object`: the primary followed by the next
    /// distinct physical nodes clockwise around the ring.
    pub fn replicas(&self, object: u64) -> Vec<usize> {
        self.preference_list(object, self.replication)
    }

    /// The first `n` distinct physical nodes clockwise from `object`'s
    /// ring position. The leading `replication()` entries are the replica
    /// set; the nodes after them are the successors that take over the
    /// object's data when a replica is re-replicated away from a dead
    /// node.
    pub(crate) fn preference_list(&self, object: u64, n: usize) -> Vec<usize> {
        let h = mix(object);
        let start = self.vnodes.partition_point(|&(vh, _)| vh < h);
        let mut out = Vec::with_capacity(n.min(self.nodes));
        for i in 0..self.vnodes.len() {
            let (_, node) = self.vnodes[(start + i) % self.vnodes.len()];
            if !out.contains(&node) {
                out.push(node);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }

    /// The replica set for `object` with `excluded[n] == true` nodes
    /// (dead, or behind an open circuit breaker) removed. May return
    /// fewer than `replication()` entries — even none, when every replica
    /// is excluded — so callers must not assume a full set.
    pub(crate) fn replicas_excluding(&self, object: u64, excluded: &[bool]) -> Vec<usize> {
        self.replicas(object)
            .into_iter()
            .filter(|&n| !excluded.get(n).copied().unwrap_or(false))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_sets_are_distinct_and_sized() {
        let ring = HashRing::new(8, 64, 3);
        for object in 0..2_000u64 {
            let r = ring.replicas(object);
            assert_eq!(r.len(), 3);
            let mut sorted = r.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicate replica for {object}: {r:?}");
            assert!(r.iter().all(|&n| n < 8));
            assert_eq!(ring.primary(object), r[0]);
        }
    }

    #[test]
    fn replication_clamps_to_node_count() {
        let ring = HashRing::new(2, 16, 3);
        assert_eq!(ring.replication(), 2);
        assert_eq!(ring.replicas(99).len(), 2);
    }

    #[test]
    fn placement_is_reasonably_balanced() {
        let ring = HashRing::new(8, 64, 1);
        let mut counts = [0usize; 8];
        let objects = 20_000;
        for object in 0..objects as u64 {
            counts[ring.primary(object)] += 1;
        }
        let mean = objects / 8;
        for (node, &c) in counts.iter().enumerate() {
            assert!(
                c > mean / 2 && c < mean * 2,
                "node {node} owns {c} of {objects} (mean {mean})"
            );
        }
    }

    #[test]
    fn adding_a_node_moves_few_keys() {
        let before = HashRing::new(7, 64, 1);
        let after = HashRing::new(8, 64, 1);
        let objects = 10_000u64;
        let moved = (0..objects)
            .filter(|&o| {
                let (b, a) = (before.primary(o), after.primary(o));
                b != a && a != 7 // a move not explained by the new node
            })
            .count();
        // Consistent hashing: keys only move *to* the new node; nothing
        // reshuffles between the existing seven.
        assert_eq!(moved, 0);
        let to_new = (0..objects).filter(|&o| after.primary(o) == 7).count();
        assert!(to_new > 0, "the new node must own something");
    }

    #[test]
    fn excluding_dead_nodes_shrinks_the_set() {
        let ring = HashRing::new(4, 64, 2);
        let none = [false; 4];
        for object in 0..500u64 {
            let full = ring.replicas(object);
            assert_eq!(ring.replicas_excluding(object, &none), full);
            // Exclude the primary: the set shrinks and keeps ring order.
            let mut dead = [false; 4];
            dead[full[0]] = true;
            let surv = ring.replicas_excluding(object, &dead);
            assert_eq!(surv, full[1..].to_vec());
            // Exclude everything: empty, and callers must cope.
            let all = [true; 4];
            assert!(ring.replicas_excluding(object, &all).is_empty());
        }
    }

    #[test]
    fn preference_list_extends_the_replica_set() {
        let ring = HashRing::new(6, 64, 2);
        for object in 0..500u64 {
            let pref = ring.preference_list(object, 6);
            assert_eq!(pref.len(), 6, "all nodes appear: {pref:?}");
            let mut sorted = pref.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 6, "distinct: {pref:?}");
            assert_eq!(pref[..2].to_vec(), ring.replicas(object));
        }
    }

    #[test]
    fn deterministic_across_constructions() {
        let a = HashRing::new(5, 32, 2);
        let b = HashRing::new(5, 32, 2);
        for o in 0..500 {
            assert_eq!(a.replicas(o), b.replicas(o));
        }
    }
}
