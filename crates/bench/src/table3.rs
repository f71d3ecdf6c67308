//! Table III — NDP IP cores: FPGA resources, clock, and throughput.
//!
//! The resource/clock columns come from the paper's synthesis results (we
//! have no Vivado); the harness re-derives the 10 Gbps unit counts and
//! utilization averages, and adds a column the paper could not print:
//! the measured software throughput of this repository's functional
//! implementations (what the GPU/CPU baselines actually execute).

use std::time::Instant;

use dcs_core::resources::{table3_cores, VIRTEX7_VC707};
use dcs_ndp::NdpFunction;
use dcs_sim::Bandwidth;

/// One rendered row.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// The function.
    pub function: NdpFunction,
    /// LUT share of the Virtex-7, percent.
    pub lut_pct: f64,
    /// Register share, percent.
    pub reg_pct: f64,
    /// Max clock, MHz.
    pub clock_mhz: u32,
    /// Modeled per-unit throughput.
    pub per_unit: Bandwidth,
    /// Units needed for 10 Gbps.
    pub units_for_10g: u32,
    /// Measured throughput of our Rust implementation, Gbps.
    pub sw_gbps: f64,
}

/// Measures the wall-clock throughput of one function over `len` bytes.
pub fn software_throughput(function: NdpFunction, len: usize) -> f64 {
    let data: Vec<u8> = (0..len)
        .map(|i| (i * 2654435761usize % 256) as u8)
        .collect();
    let aux: Vec<u8> = if matches!(
        function,
        NdpFunction::Aes256Encrypt | NdpFunction::Aes256Decrypt
    ) {
        let mut a = vec![7u8; 32];
        a.extend([9u8; 16]);
        a
    } else {
        vec![]
    };
    // Warm once, then time a few iterations.
    function.apply(&data, &aux).expect("valid input");
    let iterations = 3;
    #[expect(
        clippy::disallowed_methods,
        reason = "Table 3 measures real host-CPU software throughput of the NDP kernels; the wall clock is the measurement itself and never feeds simulation state"
    )]
    let start = Instant::now();
    for _ in 0..iterations {
        let out = function.apply(&data, &aux).expect("valid input");
        std::hint::black_box(&out);
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (len * iterations) as f64 * 8.0 / secs / 1e9
}

/// Builds all rows.
pub fn run(measure_len: usize) -> Vec<Table3Row> {
    table3_cores()
        .iter()
        .map(|core| Table3Row {
            function: core.function,
            lut_pct: core.luts as f64 * 100.0 / VIRTEX7_VC707.luts as f64,
            reg_pct: core.registers as f64 * 100.0 / VIRTEX7_VC707.registers as f64,
            clock_mhz: core.max_clock_mhz,
            per_unit: core.throughput_per_unit,
            units_for_10g: core.units_for(Bandwidth::gbps(10.0)),
            sw_gbps: software_throughput(core.function, measure_len),
        })
        .collect()
}

/// Renders the table.
pub fn render(measure_len: usize) -> String {
    let rows = run(measure_len);
    let mut out = String::from(
        "Table III — NDP processing units (modeled FPGA columns; measured SW column)\n",
    );
    out.push_str(&format!(
        "  {:<16} {:>7} {:>7} {:>9} {:>12} {:>10} {:>12}\n",
        "unit", "LUT%", "Reg%", "fclk MHz", "Gbps/unit", "units@10G", "SW Gbps"
    ));
    for r in &rows {
        out.push_str(&format!(
            "  {:<16} {:>6.2}% {:>6.2}% {:>9} {:>12.2} {:>10} {:>12.2}\n",
            r.function.name(),
            r.lut_pct,
            r.reg_pct,
            r.clock_mhz,
            r.per_unit.as_gbps(),
            r.units_for_10g,
            r.sw_gbps
        ));
    }
    let lut_avg: f64 = rows.iter().map(|r| r.lut_pct).sum::<f64>() / rows.len() as f64;
    let reg_avg: f64 = rows.iter().map(|r| r.reg_pct).sum::<f64>() / rows.len() as f64;
    out.push_str(&format!(
        "  average for 10 Gbps: {lut_avg:.2}% LUTs, {reg_avg:.2}% registers  (paper: 3.28% / 1.02%)\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_all_six_cores_with_sane_measurements() {
        let rows = run(1 << 20);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.sw_gbps > 0.01,
                "{:?} too slow to be plausible",
                r.function
            );
            assert!(r.units_for_10g >= 1);
        }
        // AES-CTR and the hashes are all in the same order of magnitude;
        // just pin that the table carries real measurements.
        let crc = rows
            .iter()
            .find(|r| r.function == NdpFunction::Crc32)
            .unwrap();
        assert!(crc.sw_gbps > 0.1, "{crc:?}");
    }

    #[test]
    fn decrypt_measures_via_shared_core() {
        assert!(dcs_core::resources::lookup_core(NdpFunction::Aes256Decrypt).is_some());
        let gbps = software_throughput(NdpFunction::Aes256Decrypt, 1 << 18);
        assert!(gbps > 0.01);
    }
}
