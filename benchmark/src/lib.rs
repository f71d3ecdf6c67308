//! The repository benchmark, as a library: the workloads, the layer
//! probes, the metric catalogue, and the measured and traced runs. The
//! `dcs-benchmark` binary is its command line.

pub mod clock;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod workloads;
