//! The FPGA resource model: Tables III and IV of the paper.
//!
//! Synthesis requires the Xilinx toolchain and a VC707 board, so the
//! resource numbers themselves are taken from the paper as a static model;
//! what this module *computes* is everything the paper derives from them:
//! units needed to sustain 10 Gbps per function, aggregate utilization of
//! an NDP configuration, and whether a configuration fits in the Virtex-7's
//! remaining headroom next to the device controllers (Table IV). The
//! `table3` / `table4` experiment regenerators print these derivations.

use dcs_ndp::NdpFunction;
use dcs_sim::Bandwidth;

/// Virtex-7 XC7VX485T capacity (the VC707's FPGA).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FpgaBudget {
    /// Slice LUTs available.
    pub luts: u32,
    /// Slice registers available.
    pub registers: u32,
    /// 36 Kb block RAMs available.
    pub brams: u32,
}

/// The VC707's Virtex-7 budget (paper Table IV denominators).
pub const VIRTEX7_VC707: FpgaBudget = FpgaBudget {
    luts: 303_600,
    registers: 607_200,
    brams: 1_030,
};

/// One synthesizable IP core: a Table III row.
#[derive(Clone, Copy, Debug)]
pub struct IpCore {
    /// The processing function the core implements.
    pub function: NdpFunction,
    /// Slice LUTs per instance (at the multiplicity Table III reports).
    pub luts: u32,
    /// Slice registers per instance.
    pub registers: u32,
    /// Maximum clock frequency that passed timing, in MHz (capped at 250
    /// for realistic estimation, footnote 1).
    pub max_clock_mhz: u32,
    /// Throughput of one unit at that clock.
    pub throughput_per_unit: Bandwidth,
}

impl IpCore {
    /// Units required to reach `target` aggregate throughput.
    pub fn units_for(&self, target: Bandwidth) -> u32 {
        (target.as_gbps() / self.throughput_per_unit.as_gbps()).ceil() as u32
    }

    /// LUTs consumed by `n` units.
    ///
    /// Table III already reports the resources of the multi-instance (or
    /// fully pipelined) configuration that reaches 10 Gbps (footnote 2),
    /// so the 10 Gbps configuration costs exactly the table's numbers; we
    /// scale linearly for other unit counts.
    pub(crate) fn luts_for_units(&self, n: u32) -> u32 {
        let base_units = self.units_for(Bandwidth::gbps(10.0)).max(1);
        (self.luts as u64 * n as u64 / base_units as u64) as u32
    }

    /// Registers consumed by `n` units (same scaling as
    /// [`IpCore::luts_for_units`]).
    pub(crate) fn registers_for_units(&self, n: u32) -> u32 {
        let base_units = self.units_for(Bandwidth::gbps(10.0)).max(1);
        (self.registers as u64 * n as u64 / base_units as u64) as u32
    }
}

/// Table III: the six IP cores the paper synthesizes.
pub fn table3_cores() -> [IpCore; 6] {
    [
        IpCore {
            function: NdpFunction::Md5,
            luts: 8_970,
            registers: 4_180,
            max_clock_mhz: 130,
            throughput_per_unit: Bandwidth::mbps(970.0),
        },
        IpCore {
            function: NdpFunction::Sha1,
            luts: 10_760,
            registers: 6_848,
            max_clock_mhz: 235,
            throughput_per_unit: Bandwidth::gbps(1.10),
        },
        IpCore {
            function: NdpFunction::Sha256,
            luts: 13_090,
            registers: 7_480,
            max_clock_mhz: 130,
            throughput_per_unit: Bandwidth::mbps(800.0),
        },
        IpCore {
            function: NdpFunction::Aes256Encrypt,
            luts: 10_689,
            registers: 6_000,
            max_clock_mhz: 250,
            throughput_per_unit: Bandwidth::gbps(40.90),
        },
        IpCore {
            function: NdpFunction::Crc32,
            luts: 93,
            registers: 53,
            max_clock_mhz: 250,
            throughput_per_unit: Bandwidth::gbps(10.0),
        },
        IpCore {
            function: NdpFunction::GzipCompress,
            luts: 16_273,
            registers: 12_718,
            max_clock_mhz: 178,
            throughput_per_unit: Bandwidth::gbps(100.0),
        },
    ]
}

/// Table IV: resources consumed by the HDC Engine's device controllers and
/// infrastructure (PCIe core, host interface, scoreboard, NVMe + NIC
/// controllers).
#[derive(Clone, Copy, Debug)]
pub struct EngineUtilization {
    /// LUTs used.
    pub luts: u32,
    /// Registers used.
    pub registers: u32,
    /// BRAMs used.
    pub brams: u32,
    /// Power estimate in watts.
    pub power_watts: f64,
}

/// Table IV's measured values.
pub const TABLE4_ENGINE: EngineUtilization = EngineUtilization {
    luts: 116_344,
    registers: 91_005,
    brams: 442,
    power_watts: 5.57,
};

/// A derived resource report for a set of NDP functions at a target
/// throughput, next to the engine baseline.
#[derive(Clone, Debug)]
pub struct ResourceReport {
    /// Per-function `(core, units, luts, registers)` rows.
    pub rows: Vec<(IpCore, u32, u32, u32)>,
    /// Engine baseline (Table IV).
    pub engine: EngineUtilization,
    /// FPGA budget.
    pub budget: FpgaBudget,
}

impl ResourceReport {
    /// Builds the report for `functions` each sustaining `target`.
    pub fn for_functions(functions: &[NdpFunction], target: Bandwidth) -> ResourceReport {
        let rows = functions
            .iter()
            .filter_map(|f| lookup_core(*f))
            .map(|core| {
                let units = core.units_for(target);
                (
                    core,
                    units,
                    core.luts_for_units(units),
                    core.registers_for_units(units),
                )
            })
            .collect();
        ResourceReport {
            rows,
            engine: TABLE4_ENGINE,
            budget: VIRTEX7_VC707,
        }
    }

    /// Total LUTs of engine + NDP configuration.
    pub fn total_luts(&self) -> u32 {
        self.engine.luts + self.rows.iter().map(|(_, _, l, _)| l).sum::<u32>()
    }

    /// Total registers of engine + NDP configuration.
    pub(crate) fn total_registers(&self) -> u32 {
        self.engine.registers + self.rows.iter().map(|(_, _, _, r)| r).sum::<u32>()
    }

    /// Whether the configuration fits the FPGA (the paper's claim that
    /// "the FPGA has enough remaining resources to add NDP units").
    pub fn fits(&self) -> bool {
        self.total_luts() <= self.budget.luts && self.total_registers() <= self.budget.registers
    }

    /// LUT utilization of the full configuration, as a fraction.
    pub fn lut_utilization(&self) -> f64 {
        self.total_luts() as f64 / self.budget.luts as f64
    }
}

/// The Table III core implementing `function`, if one exists (decrypt and
/// decompress share their counterpart's hardware).
pub fn lookup_core(function: NdpFunction) -> Option<IpCore> {
    let key = match function {
        NdpFunction::Aes256Decrypt => NdpFunction::Aes256Encrypt,
        NdpFunction::GzipDecompress => NdpFunction::GzipCompress,
        other => other,
    };
    table3_cores().iter().find(|c| c.function == key).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_for_10gbps_match_paper_derivation() {
        // MD5 at 0.97 Gbps/unit needs 11 units for 10 Gbps; AES one.
        let md5 = lookup_core(NdpFunction::Md5).unwrap();
        assert_eq!(md5.units_for(Bandwidth::gbps(10.0)), 11);
        let aes = lookup_core(NdpFunction::Aes256Encrypt).unwrap();
        assert_eq!(aes.units_for(Bandwidth::gbps(10.0)), 1);
        let crc = lookup_core(NdpFunction::Crc32).unwrap();
        assert_eq!(crc.units_for(Bandwidth::gbps(10.0)), 1);
    }

    #[test]
    fn average_10g_utilization_matches_paper_claim() {
        // §III-D: "on average, only 3.28% slice LUT and 1.02% slice
        // register of a Virtex 7 FPGA are required" for 10 Gbps.
        let lut_avg: f64 = table3_cores()
            .iter()
            .map(|c| c.luts as f64 / VIRTEX7_VC707.luts as f64)
            .sum::<f64>()
            / table3_cores().len() as f64;
        assert!(
            (lut_avg * 100.0 - 3.28).abs() < 0.1,
            "lut avg {:.2}%",
            lut_avg * 100.0
        );
        let reg_avg: f64 = table3_cores()
            .iter()
            .map(|c| c.registers as f64 / VIRTEX7_VC707.registers as f64)
            .sum::<f64>()
            / table3_cores().len() as f64;
        assert!(
            (reg_avg * 100.0 - 1.02).abs() < 0.1,
            "reg avg {:.2}%",
            reg_avg * 100.0
        );
    }

    #[test]
    fn table4_percentages_match() {
        assert_eq!(TABLE4_ENGINE.luts * 100 / VIRTEX7_VC707.luts, 38);
        assert_eq!(TABLE4_ENGINE.registers * 100 / VIRTEX7_VC707.registers, 14); // 14.99 -> 15 in paper
        assert_eq!(TABLE4_ENGINE.brams * 100 / VIRTEX7_VC707.brams, 42); // 42.9 -> 43 in paper
    }

    #[test]
    fn full_ndp_configuration_fits_next_to_controllers() {
        let all = [
            NdpFunction::Md5,
            NdpFunction::Sha1,
            NdpFunction::Sha256,
            NdpFunction::Aes256Encrypt,
            NdpFunction::Crc32,
            NdpFunction::GzipCompress,
        ];
        let report = ResourceReport::for_functions(&all, Bandwidth::gbps(10.0));
        assert!(
            report.fits(),
            "total LUTs {} of {}",
            report.total_luts(),
            report.budget.luts
        );
        assert!(report.lut_utilization() < 0.65);
    }

    #[test]
    fn inverse_functions_share_hardware() {
        let enc = lookup_core(NdpFunction::Aes256Encrypt).unwrap();
        let dec = lookup_core(NdpFunction::Aes256Decrypt).unwrap();
        assert_eq!(enc.luts, dec.luts);
        assert!(lookup_core(NdpFunction::GzipDecompress).is_some());
    }
}
