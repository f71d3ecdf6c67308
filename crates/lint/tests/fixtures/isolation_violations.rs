//! Seeded isolation violations for the workspace-pass integration
//! tests (crates/lint/tests/semantic_rules.rs). Fed to the analyzer
//! under a sim-state crate path. The globals and shared handles below
//! must be caught by the isolation rules; the raw-pointer and borrowed
//! fields are rustc's to reject (`Component: Send + 'static`). NOT
//! compiled into the workspace — the `fixtures` directory is excluded
//! from the lint walk and from cargo.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Process-global mutable counter: `static-mut`.
static mut EVENT_COUNTER: u64 = 0;

/// Interior-mutable static — also `static-mut` (no `mut` keyword, same
/// hazard).
static SHARED_TALLY: Mutex<u64> = Mutex::new(0);

thread_local! {
    /// Thread-keyed scratch space: `thread-local-state`.
    static SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::new());
}

/// Held by `FakeNic` below; both fields are `shared-mut-state`.
pub struct PeerLink {
    /// `Rc` + `RefCell`: two shared-mut hits on one field.
    pub peer: Rc<RefCell<u64>>,
    /// `Arc` + `Mutex`: two more.
    pub stats: Arc<Mutex<u64>>,
}

/// A fake component holding the shared `PeerLink`.
pub struct FakeNic {
    link: PeerLink,
    /// `!Send`: rustc rejects the `Component` impl.
    dma_window: *mut u8,
    /// Fine: `&'static str` is immutable forever.
    label: &'static str,
    /// Fine: `&'static mut` is unique, so only one world can hold it.
    scratch: &'static mut [u8; 64],
}

impl Component for FakeNic {
    fn handle(&mut self) {
        self.label = "fake";
    }
}
