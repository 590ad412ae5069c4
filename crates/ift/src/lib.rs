//! Information flow tracking primitives for the DejaVuzz reproduction.
//!
//! This crate implements the paper's two taint-propagation regimes as
//! *word-level operators* usable both by the netlist simulator
//! (`dejavuzz-rtl`) and by the behavioural out-of-order cores
//! (`dejavuzz-uarch`):
//!
//! * **CellIFT** (Solt et al., USENIX Security '22): the state-of-the-art
//!   policies the paper uses as its baseline. Policy 1 (AND) and Policy 2
//!   (MUX) from §2.2 of the paper, where control taints propagate whenever
//!   the selection signal is tainted — the source of control-flow
//!   over-tainting.
//! * **diffIFT** (the paper's contribution, §3.3 / Table 1): control taints
//!   propagate only when the *cross-instance comparison signal* is high,
//!   i.e. when the two DUT variants (running with different secrets)
//!   actually disagree on the control signal's value.
//!
//! The central type is [`TWord`], a **two-plane tainted word**: plane `a`
//! holds DUT-variant-1's value, plane `b` holds DUT-variant-2's value, and a
//! shared shadow mask `t` holds the (union of the two variants') taint. With
//! both planes in one value, the `diff` gates of Table 1 are available
//! immediately — no lock-step plumbing between separate simulator instances
//! is needed.
//!
//! On top of the operators the crate provides the observation machinery of
//! §4.2–§4.3:
//!
//! * [`Module`] — the closed vocabulary of components (`rob`, `dcache`,
//!   …) censuses, points, sinks and bugs name, and who reports which,
//! * [`census::Census`] — per-module tainted-register counts and the global
//!   taint sum (Figure 6's y-axis),
//! * [`coverage::CoverageMatrix`] — the taint coverage matrix: one bitmap
//!   slot per (module, tainted-register-count) tuple (§4.2.2),
//! * [`shared::SharedCoverage`] — the exact union a campaign's parallel
//!   workers commit to, and [`shared::RecordingCoverage`], the sink one
//!   campaign slot folds its observations through,
//! * [`liveness`] — taint liveness annotations binding buffer arrays to
//!   their state registers, and the exploitability filter of §4.3.2.
//!
//! # Example
//!
//! ```
//! use dejavuzz_ift::{IftMode, Policy, TWord};
//!
//! let diffift = Policy::new(IftMode::DiffIft);
//! let cellift = Policy::new(IftMode::CellIft);
//!
//! // A tainted selection signal whose value is identical in both variants:
//! let sel = TWord::with_taint(1, 1, 1);
//! let x = TWord::lit(0xAAAA);
//! let y = TWord::lit(0x5555);
//!
//! // CellIFT over-taints: the output is tainted although no secret could
//! // have selected a different input.
//! assert!(cellift.mux(sel, y, x).is_tainted());
//! // diffIFT suppresses the control taint: both variants select `y`.
//! assert!(!diffift.mux(sel, y, x).is_tainted());
//! ```

pub mod census;
pub mod coverage;
pub mod liveness;
pub mod mem;
pub mod module;
pub mod persist;
pub mod policy;
pub mod shared;
pub mod tword;

pub use census::{Census, ModuleCensus, TaintLog};
pub use coverage::{CoverageLog, CoverageMatrix, CoveragePoint, TaintCoverage};
pub use liveness::{LivenessMask, SinkReport};
pub use mem::TMem;
pub use module::Module;
pub use policy::{IftMode, Policy};
pub use shared::{RecordingCoverage, SharedCoverage};
pub use tword::TWord;
