//! The near-device processing bank (§III-D).
//!
//! Each Table III function gets a bank of identical units. A unit
//! processes one stream at its per-unit line rate (MD5's 0.97 Gbps, AES's
//! 40.9 Gbps, …); the bank provides aggregate throughput across concurrent
//! streams. The default configuration instantiates exactly the units
//! Table III derives for 10 Gbps aggregate per function. The computation
//! itself runs the real [`dcs_ndp`] code over the bytes in engine memory,
//! so digests and transforms are bit-exact with every other design.

use dcs_sim::DetMap;

use dcs_ndp::{NdpFunction, NdpOutput};
use dcs_sim::{Bandwidth, ServerBank, SimTime};

use crate::resources::lookup_core;

/// Configuration of one function's bank.
#[derive(Clone, Debug)]
pub struct NdpUnitSpec {
    /// The function.
    pub function: NdpFunction,
    /// Units instantiated.
    pub units: usize,
    /// Per-unit throughput.
    pub per_unit: Bandwidth,
    /// Fixed per-invocation setup time (buffer switch, state init), ns.
    pub setup_ns: u64,
}

impl NdpUnitSpec {
    /// The Table III configuration for `function` at `target` aggregate
    /// throughput.
    pub fn table3(function: NdpFunction, target: Bandwidth) -> Option<NdpUnitSpec> {
        let core = lookup_core(function)?;
        Some(NdpUnitSpec {
            function,
            units: core.units_for(target) as usize,
            per_unit: core.throughput_per_unit,
            setup_ns: 200,
        })
    }
}

/// A bank of NDP units for several functions.
///
/// Pure timing + computation logic; the engine component schedules around
/// the completion instants this returns.
pub struct NdpBank {
    banks: DetMap<NdpFunction, (NdpUnitSpec, ServerBank)>,
}

impl NdpBank {
    /// Builds banks for `functions` at 10 Gbps aggregate each (the paper's
    /// target).
    pub fn for_functions(functions: &[NdpFunction]) -> NdpBank {
        Self::with_target(functions, Bandwidth::gbps(10.0))
    }

    /// Builds banks at a custom aggregate target.
    pub(crate) fn with_target(functions: &[NdpFunction], target: Bandwidth) -> NdpBank {
        let banks = functions
            .iter()
            .filter_map(|f| {
                NdpUnitSpec::table3(*f, target).map(|spec| {
                    let bank = ServerBank::new(spec.units.max(1));
                    (*f, (spec, bank))
                })
            })
            .collect();
        NdpBank { banks }
    }

    /// Whether `function` has hardware in this configuration.
    pub fn supports(&self, function: NdpFunction) -> bool {
        let key = Self::hardware_key(function);
        self.banks.contains_key(&key)
    }

    /// Inverse transforms run on their counterpart's hardware.
    fn hardware_key(function: NdpFunction) -> NdpFunction {
        match function {
            NdpFunction::Aes256Decrypt => NdpFunction::Aes256Encrypt,
            NdpFunction::GzipDecompress => NdpFunction::GzipCompress,
            other => other,
        }
    }

    /// Schedules `len` bytes of `function` work starting no earlier than
    /// `now`; returns the completion instant.
    ///
    /// # Panics
    ///
    /// Panics if the function has no hardware — callers must check
    /// [`NdpBank::supports`] (the driver refuses such commands up front).
    pub fn schedule(&mut self, now: SimTime, function: NdpFunction, len: usize) -> SimTime {
        let key = Self::hardware_key(function);
        let (spec, bank) = self
            .banks
            .get_mut(&key)
            .unwrap_or_else(|| panic!("no NDP hardware for {function}"));
        let service = spec.setup_ns + spec.per_unit.transfer_time(len);
        bank.offer(now, service)
    }

    /// Executes the function over real bytes (call at the completion
    /// instant).
    ///
    /// # Errors
    ///
    /// Propagates [`dcs_ndp::function::NdpError`] (malformed aux,
    /// undecodable gzip stream).
    pub fn execute(
        &self,
        function: NdpFunction,
        input: &[u8],
        aux: &[u8],
    ) -> Result<NdpOutput, dcs_ndp::function::NdpError> {
        function.apply(input, aux)
    }

    /// Aggregate busy time across all banks (for utilization reporting).
    pub fn busy_time(&self) -> u64 {
        self.banks.values().map(|(_, b)| b.busy_time()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_sim::time;

    #[test]
    fn md5_single_stream_runs_at_per_unit_rate() {
        let mut bank = NdpBank::for_functions(&[NdpFunction::Md5]);
        let done = bank.schedule(SimTime::ZERO, NdpFunction::Md5, 4096);
        // 4 KiB at 0.97 Gbps ≈ 33.8 us (+200ns setup).
        let expect = Bandwidth::mbps(970.0).transfer_time(4096) + 200;
        assert_eq!(done.as_nanos(), expect);
    }

    #[test]
    fn concurrent_streams_use_parallel_units() {
        let mut bank = NdpBank::for_functions(&[NdpFunction::Md5]);
        // Table III: 11 units for 10 Gbps. Eleven concurrent 4 KiB streams
        // finish together; a twelfth queues.
        let mut finishes = Vec::new();
        for _ in 0..12 {
            finishes.push(bank.schedule(SimTime::ZERO, NdpFunction::Md5, 4096));
        }
        let first = finishes[0];
        assert!(finishes[..11].iter().all(|f| *f == first));
        assert!(finishes[11] > first);
    }

    #[test]
    fn aes_is_much_faster_than_md5_per_stream() {
        let mut bank = NdpBank::for_functions(&[NdpFunction::Md5, NdpFunction::Aes256Encrypt]);
        let md5 = bank.schedule(SimTime::ZERO, NdpFunction::Md5, 65536);
        let aes = bank.schedule(SimTime::ZERO, NdpFunction::Aes256Encrypt, 65536);
        assert!(aes.as_nanos() * 10 < md5.as_nanos(), "{aes} vs {md5}");
    }

    #[test]
    fn decrypt_shares_encrypt_hardware() {
        let mut bank = NdpBank::for_functions(&[NdpFunction::Aes256Encrypt]);
        assert!(bank.supports(NdpFunction::Aes256Decrypt));
        let done = bank.schedule(SimTime::ZERO, NdpFunction::Aes256Decrypt, 4096);
        assert!(done > SimTime::ZERO);
        assert!(done.as_nanos() < time::us(2));
    }

    #[test]
    #[should_panic(expected = "no NDP hardware")]
    fn unsupported_function_panics() {
        let mut bank = NdpBank::for_functions(&[NdpFunction::Md5]);
        bank.schedule(SimTime::ZERO, NdpFunction::Crc32, 100);
    }

    #[test]
    fn execute_produces_real_results() {
        let bank = NdpBank::for_functions(&[NdpFunction::Md5]);
        let out = bank.execute(NdpFunction::Md5, b"abc", &[]).unwrap();
        assert_eq!(
            dcs_ndp::to_hex(out.digest.as_ref().unwrap()),
            "900150983cd24fb0d6963f7d28e17f72"
        );
    }
}
