//! The store's typed surface: tenants, namespaces, and experiment
//! configuration.
//!
//! A *tenant* is a named keyspace with its own YCSB workload, offered
//! load, fair-queueing weight, latency SLO, and (optionally) a seat on the
//! ToR's strict-priority lane. Keys are per-tenant; the store maps
//! `(tenant, key)` onto one global object id (tenant in the top 16 bits)
//! so the cluster's consistent-hash ring, replication, and flash layout
//! apply unchanged while namespaces stay disjoint by construction.

use dcs_cluster::{ClusterConfig, LbPolicy, NodeFault, QosPolicy, SwitchConfig};
use dcs_workloads::ycsb::YcsbWorkload;
use dcs_workloads::{DesignUnderTest, TestbedConfig};

use crate::cache::CacheConfig;

/// Bits of the global object id holding the per-tenant key.
pub const KEY_BITS: u32 = 48;

/// Packs a tenant's key into the global object-id space.
///
/// # Panics
///
/// Panics if `key` overflows the 48-bit per-tenant keyspace.
pub(crate) fn object_id(tenant: usize, key: u64) -> u64 {
    assert!(
        key < 1 << KEY_BITS,
        "key {key} overflows the tenant keyspace"
    );
    ((tenant as u64) << KEY_BITS) | key
}

/// One tenant of the store.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Namespace name (report label).
    pub name: String,
    /// The tenant's YCSB workload letter.
    pub workload: YcsbWorkload,
    /// Initial keyspace size (inserts grow it).
    pub keys: u64,
    /// Zipfian skew of the tenant's key popularity.
    pub theta: f64,
    /// Value size, bytes (YCSB uses fixed-size values).
    pub value_bytes: usize,
    /// The tenant's offered load, Gbps of value payload.
    pub offered_gbps: f64,
    /// Fair-queueing weight (share of a contended node's service).
    pub weight: f64,
    /// Latency objective for the SLO-attainment tally, ns (0 = no SLO).
    pub slo_ns: u64,
    /// Ride the ToR's strict-priority lane instead of the bulk queues.
    pub priority: bool,
}

impl TenantSpec {
    /// A tenant with defaults matching the standard YCSB shape: 16 Ki
    /// keys, theta 0.99, 16 KiB values, 1 Gbps offered, weight 1, a 10 ms
    /// SLO, bulk lane.
    pub fn new(name: &str, workload: YcsbWorkload) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            workload,
            keys: 16 * 1024,
            theta: 0.99,
            value_bytes: 16 * 1024,
            offered_gbps: 1.0,
            weight: 1.0,
            slo_ns: dcs_sim::time::ms(10),
            priority: false,
        }
    }
}

/// Full description of a store experiment.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Number of store nodes.
    pub nodes: usize,
    /// Design each node runs (the HDC Engine, or a software baseline).
    pub design: DesignUnderTest,
    /// Load-balancing policy for reads without cache affinity.
    pub policy: LbPolicy,
    /// Replica count per object.
    pub replication: usize,
    /// Virtual nodes per physical node on the hash ring.
    pub vnodes_per_node: usize,
    /// The tenants sharing the store.
    pub tenants: Vec<TenantSpec>,
    /// Per-node read-cache provisioning.
    pub cache: CacheConfig,
    /// Admission-queue ordering on contended nodes.
    pub qos: QosPolicy,
    /// Total run length.
    pub duration_ns: u64,
    /// Warm-up trimmed from measurements.
    pub warmup_ns: u64,
    /// Per-node concurrent request limit (admission control).
    pub max_outstanding: usize,
    /// Per-tenant admission-queue bound per node (FIFO shares
    /// `queue_cap × tenants`; WFQ gives each tenant its own `queue_cap`).
    pub queue_cap: usize,
    /// Top-of-rack switch provisioning.
    pub switch: SwitchConfig,
    /// Per-node testbed parameters (SSD count, node wire).
    pub testbed: TestbedConfig,
    /// Simulation seed (drives every tenant's arrivals and key draws).
    pub seed: u64,
    /// Whole-node failures to inject. The store runs the rack's default
    /// health layer: probes detect a crash, in-flight requests fail over,
    /// and a restarted node rejoins through anti-entropy repair with its
    /// cache warmed from the survivors' entries at committed versions.
    pub node_faults: Vec<NodeFault>,
}

impl StoreConfig {
    /// The lifecycle half of the config: everything the cluster front
    /// end runs with. The Swift-mix traffic fields keep their defaults
    /// and go unused; the store's tenants draw the traffic.
    pub(crate) fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            nodes: self.nodes,
            design: self.design,
            policy: self.policy,
            replication: self.replication,
            vnodes_per_node: self.vnodes_per_node,
            duration_ns: self.duration_ns,
            warmup_ns: self.warmup_ns,
            max_outstanding: self.max_outstanding,
            queue_cap: self.queue_cap,
            switch: self.switch.clone(),
            testbed: self.testbed.clone(),
            seed: self.seed,
            node_faults: self.node_faults.clone(),
            ..ClusterConfig::default()
        }
    }
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            nodes: 4,
            design: DesignUnderTest::DcsCtrl,
            policy: LbPolicy::JoinShortestQueue,
            replication: 2,
            vnodes_per_node: 256,
            tenants: vec![TenantSpec::new("default", YcsbWorkload::C)],
            cache: CacheConfig::default(),
            qos: QosPolicy::Wfq,
            duration_ns: dcs_sim::time::ms(30),
            warmup_ns: dcs_sim::time::ms(5),
            max_outstanding: 48,
            queue_cap: 64,
            switch: SwitchConfig::default(),
            testbed: TestbedConfig::default(),
            seed: 0x570E,
            node_faults: vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_ids_keep_namespaces_disjoint() {
        assert_eq!(object_id(0, 7), 7);
        assert_ne!(object_id(1, 7), object_id(2, 7));
        assert_eq!(object_id(3, 0) >> KEY_BITS, 3);
        // Different tenants can never collide, whatever their keys.
        assert_ne!(object_id(0, (1 << KEY_BITS) - 1), object_id(1, 0));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_keys_are_rejected() {
        object_id(0, 1 << KEY_BITS);
    }
}
