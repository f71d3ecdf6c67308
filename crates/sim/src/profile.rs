//! Opt-in host-time profile of the dispatch loop.
//!
//! [`Simulator::enable_host_profile`](crate::Simulator::enable_host_profile)
//! turns it on; from then on every [`Component::handle`](crate::Component::handle)
//! call is timed on the host clock and charged to the receiving
//! component's kind and the payload's type. The readings stay in the
//! `Simulator`, outside the [`World`](crate::World): nothing a component
//! can observe depends on them, so a profiled run is event-for-event the
//! run it measures. When the profile is off the dispatch loop pays one
//! branch per message.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::component::ComponentId;

/// The profile's clock.
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "host-time profile only: readings are kept in the Simulator's HostProfile, never in World state or an event, so runs replay identically"
)]
pub(crate) fn host_clock() -> Instant {
    Instant::now()
}

/// Accumulated handler wall time, keyed by `(component index, payload
/// type)`.
#[derive(Debug, Default)]
pub(crate) struct HostProfile {
    cells: BTreeMap<(u32, &'static str), (u64, Duration)>,
}

impl HostProfile {
    /// Charges one handler call.
    #[inline]
    pub(crate) fn record(&mut self, dst: ComponentId, payload: &'static str, took: Duration) {
        let cell = self
            .cells
            .entry((dst.0, payload))
            .or_insert((0, Duration::ZERO));
        cell.0 += 1;
        cell.1 += took;
    }

    /// One row per `(component kind, payload type)`, heaviest first
    /// (ties by name). `names` maps a component index to its registered
    /// name.
    pub(crate) fn rows(&self, names: &[String]) -> Vec<ProfileRow> {
        let mut merged: BTreeMap<(&str, &str), (u64, Duration)> = BTreeMap::new();
        for (&(dst, payload), &(calls, wall)) in &self.cells {
            let kind = component_kind(&names[dst as usize]);
            let cell = merged
                .entry((kind, short_type_name(payload)))
                .or_insert((0, Duration::ZERO));
            cell.0 += calls;
            cell.1 += wall;
        }
        let mut rows: Vec<ProfileRow> = merged
            .into_iter()
            .map(|((kind, payload), (calls, wall))| ProfileRow {
                component: kind.to_string(),
                payload: payload.to_string(),
                calls,
                wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.wall_ns));
        rows
    }
}

/// One line of the host-time profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileRow {
    /// Component kind: the registered name with a leading `nN-` / `sN-`
    /// node prefix stripped, so the 64 nodes of a rack share one row.
    pub component: String,
    /// Payload type name, without its module path.
    pub payload: String,
    /// Handler calls.
    pub calls: u64,
    /// Host nanoseconds spent inside those calls.
    pub wall_ns: u64,
}

/// `n12-hdc-engine` → `hdc-engine`, `s3-fe-cpu` → `fe-cpu`; any other
/// name is its own kind.
fn component_kind(name: &str) -> &str {
    let Some(rest) = name.strip_prefix(['n', 's']) else {
        return name;
    };
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    match rest[digits..].strip_prefix('-') {
        Some(kind) if digits > 0 => kind,
        _ => name,
    }
}

/// `dcs_core::engine::GatherDone` → `GatherDone`; generic arguments are
/// kept as written (`alloc::vec::Vec<u8>` → `Vec<u8>`).
fn short_type_name(full: &str) -> &str {
    let base_end = full.find('<').unwrap_or(full.len());
    let start = full[..base_end].rfind("::").map_or(0, |i| i + 2);
    &full[start..]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_prefixes_are_stripped() {
        assert_eq!(component_kind("n12-hdc-engine"), "hdc-engine");
        assert_eq!(component_kind("s3-fe-cpu"), "fe-cpu");
        assert_eq!(component_kind("n0-nic"), "nic");
        assert_eq!(component_kind("nic"), "nic");
        assert_eq!(component_kind("n-x"), "n-x");
        assert_eq!(component_kind("s12"), "s12");
        assert_eq!(component_kind("server-cpu"), "server-cpu");
    }

    #[test]
    fn type_names_lose_their_module_path() {
        assert_eq!(
            short_type_name("dcs_core::engine::GatherDone"),
            "GatherDone"
        );
        assert_eq!(short_type_name("alloc::vec::Vec<u8>"), "Vec<u8>");
        assert_eq!(short_type_name("Tick"), "Tick");
    }

    #[test]
    fn rows_merge_nodes_and_sort_heaviest_first() {
        let names: Vec<String> = ["n0-nic", "n1-nic", "frontend"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut p = HostProfile::default();
        p.record(ComponentId(0), "a::Frame", Duration::from_nanos(10));
        p.record(ComponentId(1), "a::Frame", Duration::from_nanos(30));
        p.record(ComponentId(2), "b::Tick", Duration::from_nanos(25));
        let rows = p.rows(&names);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            ProfileRow {
                component: "nic".into(),
                payload: "Frame".into(),
                calls: 2,
                wall_ns: 40,
            }
        );
        assert_eq!(rows[1].component, "frontend");
        assert_eq!(rows[1].calls, 1);
    }
}
