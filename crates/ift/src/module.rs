//! The module vocabulary: §4.2.2 indexes one bitmap per RTL module, so a
//! module is a fixed member of the DUT's hierarchy, known before the
//! first cycle. Every census, coverage point, sink, timing event and bug
//! report names a [`Module`], and each variant's docs say which in-tree
//! backend reports it.
//!
//! Adding a module is one `Variant = "name"` line in the list below, in
//! name order, and bumps no format version: snapshots store names, not
//! variant positions. Only the procsim pipe sends positions, and a
//! pool's parent and workers are one build.

use std::fmt;

/// Declares [`Module`] from one list of `Variant = "name"` entries, in
/// name order; [`Module::ALL`] and [`Module::name`] follow from it.
macro_rules! modules {
    ($($(#[$attr:meta])* $variant:ident = $name:literal,)*) => {
        /// One component of a DUT's hierarchy.
        ///
        /// Variants are declared in name order, so the derived `Ord` sorts
        /// exactly as the names do: coverage points, bug lists and
        /// snapshots keep one canonical order.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum Module {
            $($(#[$attr])* $variant,)*
        }

        impl Module {
            /// Every module, in name order; a module's position is its
            /// `as u8` value.
            pub const ALL: [Module; [$($name),*].len()] = [$(Module::$variant),*];

            /// The name censuses, reports and snapshots use.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Module::$variant => $name,)*
                }
            }
        }
    };
}

modules! {
    /// Branch history table (behavioural cores).
    Bht = "bht",
    /// Branch target buffer (behavioural cores).
    Btb = "btb",
    /// A `netlist:<scale>` synthetic core, as one module.
    Core = "core",
    /// Data cache (behavioural cores; also a timing resource).
    Dcache = "dcache",
    /// Floating-point register file (behavioural cores).
    Fpregfile = "fpregfile",
    /// Floating-point unit: a behavioural timing resource only.
    Fpu = "fpu",
    /// Fetch frontend, the PC (behavioural cores).
    Frontend = "frontend",
    /// Instruction cache (behavioural cores; also a timing resource).
    Icache = "icache",
    /// Second-level TLB (behavioural cores).
    L2tlb = "l2tlb",
    /// Line-fill buffer (behavioural cores).
    Lfb = "lfb",
    /// Loop predictor (behavioural cores).
    Loop = "loop",
    /// Load/store unit, the store queue (behavioural cores; also a timing
    /// resource).
    Lsu = "lsu",
    /// Load/store writeback port: a behavioural timing resource only.
    LsuWb = "lsu-wb",
    /// Main memory (behavioural cores, while a CellIFT run is exploded).
    Mem = "mem",
    /// Return address stack (behavioural cores).
    Ras = "ras",
    /// Integer register file (behavioural cores).
    Regfile = "regfile",
    /// Reorder buffer (behavioural cores; the Figure 2 RoB-entry circuit).
    Rob = "rob",
    /// First-level TLB (behavioural cores; also a timing resource).
    Tlb = "tlb",
    /// A netlist's root, for cells built outside any module.
    #[default]
    Top = "top",
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_in_name_order_and_positions_are_tags() {
        for (i, m) in Module::ALL.into_iter().enumerate() {
            assert_eq!(m as usize, i, "{m}");
        }
        assert!(Module::ALL.windows(2).all(|w| w[0].name() < w[1].name()));
        assert!(Module::ALL.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(Module::LsuWb.to_string(), "lsu-wb");
    }
}
