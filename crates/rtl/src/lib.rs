//! Netlist-level substrate: the RTL IR the paper's Yosys passes operate on,
//! a compiled cycle simulator, and the CellIFT / diffIFT instrumentation
//! passes.
//!
//! The paper instruments the DUT "at the RTL IR level and thus supports
//! word-level cells and non-flattened memories", whereas CellIFT
//! "instruments at the cell level, \[and\] requires flattening all memory,
//! resulting in a significantly increased compilation time" (§6.3,
//! Table 4). This crate reproduces that asymmetry faithfully:
//!
//! * [`ir`] — a word-level netlist IR (combinational cells, enabled
//!   registers, word-addressed memories, `liveness_mask` attributes),
//! * [`builder`] — a small "Chisel-lite" construction API,
//! * [`mod@instrument`] — the two passes. The diffIFT pass shadows cells
//!   word-for-word; the CellIFT pass first *flattens every memory* into
//!   per-slot registers with address-decode mux trees, exactly the cost
//!   blow-up the paper measures,
//! * [`sim`] — a compiled two-phase cycle simulator over (instrumented)
//!   netlists whose signals carry [`dejavuzz_ift::TWord`] two-plane
//!   values, making the same simulator serve as the paper's differential
//!   testbench,
//! * [`examples`] — the Figure 2 RoB-entry circuit and synthetic
//!   BOOM/XiangShan-scale netlists for the Table 4 compile-time rows.

pub mod autoannotate;
pub mod builder;
pub mod examples;
pub mod instrument;
pub mod ir;
pub mod sim;

pub use builder::NetlistBuilder;
pub use instrument::{instrument, InstrumentReport};
pub use ir::{CellKind, MemId, Netlist, NetlistError, SignalId};
pub use sim::{NetlistSim, SimState};
