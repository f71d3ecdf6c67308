//! Table IV — HDC Engine resource utilization on the Virtex-7, plus the
//! derived headroom check for adding NDP units (§IV-C: "the FPGA has
//! enough remaining resources to add NDP units").

use dcs_core::resources::{ResourceReport, TABLE4_ENGINE, VIRTEX7_VC707};
use dcs_ndp::NdpFunction;
use dcs_sim::Bandwidth;

use crate::{row, Report};

/// Builds the engine+NDP resource report at a target per-function rate.
pub fn run(target: Bandwidth) -> ResourceReport {
    ResourceReport::for_functions(
        &[
            NdpFunction::Md5,
            NdpFunction::Sha1,
            NdpFunction::Sha256,
            NdpFunction::Crc32,
            NdpFunction::Aes256Encrypt,
            NdpFunction::GzipCompress,
        ],
        target,
    )
}

/// The table and the headroom derivation (`quick` changes nothing:
/// the resource model is static).
pub fn report(quick: bool) -> Report {
    let mut r = Report::new(
        "table4",
        quick,
        "Table IV — HDC Engine Virtex-7 resource utilization (modeled)",
    );
    let s = r.section("");
    let t = s.table("engine", "resource used available share:%");
    for (name, used, available) in [
        ("LUTs", TABLE4_ENGINE.luts, VIRTEX7_VC707.luts),
        (
            "Registers",
            TABLE4_ENGINE.registers,
            VIRTEX7_VC707.registers,
        ),
        ("BRAMs", TABLE4_ENGINE.brams, VIRTEX7_VC707.brams),
    ] {
        row!(t, name, used, available, used as f64 / available as f64);
    }
    row!(
        s.table("power", "item power:W.2"),
        "Power",
        TABLE4_ENGINE.power_watts,
    );
    let bank = run(Bandwidth::gbps(10.0));
    row!(
        s.table("with_ndp_bank", "configuration luts share:% fits"),
        "+ full NDP bank at 10 Gbps/function",
        bank.total_luts(),
        bank.lut_utilization(),
        bank.fits(),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_plus_full_ndp_bank_fits() {
        let report = run(Bandwidth::gbps(10.0));
        assert!(report.fits());
        assert!(
            report.lut_utilization() > 0.38,
            "engine baseline alone is 38%"
        );
        assert!(report.lut_utilization() < 0.70);
    }

    #[test]
    fn forty_gbps_bank_grows_but_may_still_fit() {
        let r10 = run(Bandwidth::gbps(10.0));
        let r40 = run(Bandwidth::gbps(40.0));
        assert!(r40.total_luts() > r10.total_luts());
    }
}
