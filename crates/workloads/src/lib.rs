//! # dcs-workloads — the scale-out storage workloads of §V-C
//!
//! The paper evaluates DCS-ctrl on two real applications:
//!
//! * **OpenStack Swift** (§V-C1): an object store whose PUT/GET requests
//!   carry an MD5 integrity check. Requests follow a Poisson arrival
//!   process; object sizes follow the Dropbox-derived distribution of
//!   Drago et al. \[42\].
//! * **HDFS balancer** (§V-C2): a sender streams blocks off its SSD to a
//!   receiver, which CRC32-checks and stores them.
//!
//! Both run unchanged over every design — baseline executors
//! ([`dcs_host::SwExecutor`]) or the HDC Driver ([`dcs_core::HdcDriver`])
//! — because all of them accept [`D2dJob`](dcs_host::D2dJob)s. The
//! measurement harness reports throughput and CPU-utilization breakdowns
//! (Figure 12) and projects them onto faster hardware (Figure 13).

pub mod gen;
pub mod hdfs;
pub mod projection;
pub mod report;
pub mod scenario;
pub mod swift;
pub mod ycsb;

pub use gen::{SizeDistribution, Zipfian};
pub use hdfs::{run_hdfs, HdfsConfig};
pub use projection::{project, ProjectionInput, ProjectionPoint, ProjectionResult};
pub use report::WorkloadReport;
pub use scenario::{build_testbed_nodes, DesignUnderTest, NodeRef, Testbed, TestbedConfig};
pub use swift::{run_swift, SwiftConfig};
pub use ycsb::{OpMix, StoreOp, StoreOpKind, YcsbGenerator, YcsbWorkload};
