//! Core configurations: the BOOM-like and XiangShan-like models of Table 2,
//! including which planted bugs each carries (§6.4).

/// Which microarchitectural bugs are present in a core model.
///
/// The classic Meltdown/Spectre behaviours and the five new paper bugs
/// (B1–B5) are individually switchable so ablation benches can measure
/// detection of each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BugSet {
    /// Meltdown: a faulting load forwards its data to dependents before the
    /// exception commits.
    pub meltdown_forward: bool,
    /// B1 MeltDown-Sampling (CVE-2024-44594, XiangShan): the load-unit
    /// address wire is narrower than the pipeline's; high mask bits are
    /// implicitly truncated so an illegal masked address aliases — and
    /// samples — a legal one.
    pub mds_addr_truncate: bool,
    /// B2 Phantom-RSB (CVE-2024-44591, BOOM): squash recovery restores the
    /// TOS pointer and the top RAS entry but not entries below TOS that
    /// transient calls overwrote.
    pub phantom_rsb: bool,
    /// B3 Phantom-BTB (CVE-2024-44590, BOOM): an indirect-jump
    /// misprediction resolving in the same cycle as an exception commit
    /// applies the BTB correction to the excepting PC's entry.
    pub phantom_btb: bool,
    /// B4 Spectre-Refetch (CVE-2024-44592/3, both cores): transient fetches
    /// that miss the icache occupy the fetch port, delaying the first
    /// post-window fetch.
    pub refetch_contention: bool,
    /// B5 Spectre-Reload (CVE-2024-44595, XiangShan): the load pipeline and
    /// the load queue contend on the load write-back port.
    pub reload_contention: bool,
}

impl BugSet {
    /// Every bug enabled (stress/testing).
    pub const ALL: BugSet = BugSet {
        meltdown_forward: true,
        mds_addr_truncate: true,
        phantom_rsb: true,
        phantom_btb: true,
        refetch_contention: true,
        reload_contention: true,
    };

    /// No bugs (a hypothetical fixed design; ablation baseline).
    pub const NONE: BugSet = BugSet {
        meltdown_forward: false,
        mds_addr_truncate: false,
        phantom_rsb: false,
        phantom_btb: false,
        refetch_contention: false,
        reload_contention: false,
    };
}

/// Sizing and latency parameters of a core model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Core name as reported in tables.
    pub name: &'static str,
    /// Configuration name (Table 2 row "Configuration").
    pub configuration: &'static str,
    /// ISA string (Table 2).
    pub isa: &'static str,
    /// Verilog LoC of the real design (Table 2; used by Table 4 scale).
    pub verilog_loc: usize,
    /// `liveness_mask` annotation LoC (Table 2).
    pub annotation_loc: usize,

    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Load queue entries.
    pub lq_entries: usize,
    /// Store queue entries.
    pub sq_entries: usize,

    /// Bimodal branch history table entries.
    pub bht_entries: usize,
    /// Branch target buffer entries.
    pub btb_entries: usize,
    /// Return address stack entries.
    pub ras_entries: usize,
    /// Loop predictor entries.
    pub loop_entries: usize,

    /// Instruction cache: number of lines.
    pub icache_lines: usize,
    /// Data cache: number of lines.
    pub dcache_lines: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Miss-status holding registers / line-fill-buffer entries.
    pub mshr_entries: usize,
    /// TLB entries.
    pub tlb_entries: usize,
    /// L2 TLB entries.
    pub l2tlb_entries: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Physical address width in bits (B1: the load-unit wire width).
    pub paddr_bits: u32,

    /// Cache hit latency in cycles.
    pub cache_hit_latency: u64,
    /// Cache miss (fill) latency in cycles.
    pub cache_miss_latency: u64,
    /// TLB miss (walk via L2 TLB) latency in cycles.
    pub tlb_miss_latency: u64,
    /// Integer multiply latency.
    pub mul_latency: u64,
    /// Integer divide latency.
    pub div_latency: u64,
    /// FP add/mul latency.
    pub fpu_latency: u64,
    /// FP divide latency (the Spectre-Rewind contention resource).
    pub fdiv_latency: u64,
    /// Branch resolve delay after operands are ready (pipeline depth
    /// between execute and redirect — the transient window length lever).
    pub branch_resolve_delay: u64,
    /// Writeback-to-commit depth for excepting instructions: the flush /
    /// trap sequence takes this many cycles after the fault is known,
    /// during which younger instructions keep executing transiently (the
    /// Meltdown window length lever).
    pub exception_commit_delay: u64,

    /// The bugs this model carries.
    pub bugs: BugSet,
}

/// The SmallBOOM-like configuration (Table 2, column BOOM).
pub fn boom_small() -> CoreConfig {
    CoreConfig {
        name: "BOOM",
        configuration: "SmallBOOM",
        isa: "RV64GC",
        verilog_loc: 171_000,
        annotation_loc: 212,
        rob_entries: 32,
        fetch_width: 1,
        commit_width: 1,
        lq_entries: 8,
        sq_entries: 8,
        bht_entries: 128,
        btb_entries: 32,
        ras_entries: 8,
        loop_entries: 16,
        icache_lines: 64,
        dcache_lines: 64,
        line_bytes: 64,
        mshr_entries: 4,
        tlb_entries: 8,
        l2tlb_entries: 32,
        page_bytes: 4096,
        paddr_bits: 40,
        cache_hit_latency: 2,
        cache_miss_latency: 20,
        tlb_miss_latency: 12,
        mul_latency: 3,
        div_latency: 16,
        fpu_latency: 4,
        fdiv_latency: 24,
        branch_resolve_delay: 6,
        exception_commit_delay: 8,
        bugs: BugSet {
            meltdown_forward: true,
            mds_addr_truncate: false,
            phantom_rsb: true,
            phantom_btb: true,
            refetch_contention: true,
            reload_contention: false,
        },
    }
}

/// The XiangShan-MinimalConfig-like configuration (Table 2).
pub fn xiangshan_minimal() -> CoreConfig {
    CoreConfig {
        name: "XiangShan",
        configuration: "MinimalConfig",
        isa: "RV64GC",
        verilog_loc: 893_000,
        annotation_loc: 592,
        rob_entries: 48,
        fetch_width: 2,
        commit_width: 2,
        lq_entries: 16,
        sq_entries: 12,
        bht_entries: 256,
        btb_entries: 64,
        ras_entries: 16,
        loop_entries: 32,
        icache_lines: 128,
        dcache_lines: 128,
        line_bytes: 64,
        mshr_entries: 8,
        tlb_entries: 16,
        l2tlb_entries: 64,
        page_bytes: 4096,
        paddr_bits: 39,
        cache_hit_latency: 2,
        cache_miss_latency: 24,
        tlb_miss_latency: 16,
        mul_latency: 3,
        div_latency: 20,
        fpu_latency: 4,
        fdiv_latency: 28,
        branch_resolve_delay: 8,
        exception_commit_delay: 10,
        bugs: BugSet {
            meltdown_forward: true,
            mds_addr_truncate: true,
            phantom_rsb: false,
            phantom_btb: false,
            refetch_contention: true,
            reload_contention: true,
        },
    }
}

/// The liveness annotations each core model ships with (Table 2's
/// "Annotation LoC" rows summarise these).
///
/// Every entry binds a sink array to its state-register liveness signal,
/// mirroring the paper's `(* liveness_mask = "..." *)` attributes.
pub fn annotations(cfg: &CoreConfig) -> Vec<dejavuzz_ift::LivenessMask> {
    use dejavuzz_ift::{LivenessMask, Module};
    let mut v = vec![
        LivenessMask::new(Module::Lfb, "lb", "mshr_valid_vec"),
        LivenessMask::new(Module::Dcache, "data_array", "dcache_line_valid_vec"),
        LivenessMask::new(Module::Icache, "data_array", "icache_line_valid_vec"),
        LivenessMask::new(Module::Ras, "stack", "ras_in_stack_vec"),
        LivenessMask::new(Module::Btb, "targets", "btb_entry_valid_vec"),
        LivenessMask::new(Module::Bht, "counters", "bht_trained_vec"),
        LivenessMask::new(Module::Loop, "entries", "loop_conf_vec"),
        LivenessMask::new(Module::Tlb, "entries", "tlb_valid_vec"),
        LivenessMask::new(Module::Rob, "results", "rob_entry_valid_vec"),
        LivenessMask::new(Module::Regfile, "regs", "prf_allocated_vec"),
        LivenessMask::new(Module::Lsu, "lq_data", "lq_valid_vec"),
        LivenessMask::new(Module::Lsu, "sq_data", "sq_valid_vec"),
    ];
    if cfg.l2tlb_entries > 0 {
        v.push(LivenessMask::new(
            Module::L2tlb,
            "entries",
            "l2tlb_valid_vec",
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavuzz_ift::Module;

    #[test]
    fn table2_rows_match_paper() {
        let boom = boom_small();
        let xs = xiangshan_minimal();
        assert_eq!(boom.configuration, "SmallBOOM");
        assert_eq!(xs.configuration, "MinimalConfig");
        assert_eq!(boom.isa, "RV64GC");
        assert_eq!(xs.isa, "RV64GC");
        assert_eq!(boom.verilog_loc, 171_000);
        assert_eq!(xs.verilog_loc, 893_000);
        assert_eq!(boom.annotation_loc, 212);
        assert_eq!(xs.annotation_loc, 592);
    }

    #[test]
    fn bug_placement_matches_table5() {
        let boom = boom_small();
        let xs = xiangshan_minimal();
        // B1/B5 are XiangShan bugs, B2/B3 are BOOM bugs, B4 is on both.
        assert!(xs.bugs.mds_addr_truncate && !boom.bugs.mds_addr_truncate);
        assert!(xs.bugs.reload_contention && !boom.bugs.reload_contention);
        assert!(boom.bugs.phantom_rsb && !xs.bugs.phantom_rsb);
        assert!(boom.bugs.phantom_btb && !xs.bugs.phantom_btb);
        assert!(boom.bugs.refetch_contention && xs.bugs.refetch_contention);
        assert!(boom.bugs.meltdown_forward && xs.bugs.meltdown_forward);
    }

    #[test]
    fn xiangshan_is_the_bigger_machine() {
        let boom = boom_small();
        let xs = xiangshan_minimal();
        assert!(xs.rob_entries > boom.rob_entries);
        assert!(xs.fetch_width >= boom.fetch_width);
        assert!(xs.bht_entries > boom.bht_entries);
        assert!(xs.ras_entries > boom.ras_entries);
    }

    #[test]
    fn annotation_registry_covers_paper_examples() {
        let anns = annotations(&boom_small());
        assert!(anns
            .iter()
            .any(|a| a.module == Module::Lfb && a.signal == "mshr_valid_vec"));
        assert!(anns.iter().any(|a| a.module == Module::Rob));
        assert!(anns.iter().any(|a| a.module == Module::Regfile));
        assert!(anns.len() >= 12);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants ARE the subject
    fn bugset_constants() {
        assert!(BugSet::ALL.meltdown_forward && BugSet::ALL.reload_contention);
        assert!(!BugSet::NONE.meltdown_forward && !BugSet::NONE.phantom_rsb);
    }

    #[test]
    fn b1_wire_width_is_narrower_than_pipeline() {
        assert!(xiangshan_minimal().paddr_bits < 64);
    }
}
