//! The three benchmark workloads: which backend, how many workers, which
//! scheduler, and how many iterations one trial campaign runs.

use std::path::Path;

use dejavuzz::{BackendSpec, CampaignBuilder, ProcSpec, SchedulerSpec};
use dejavuzz_rtl::examples::{CoreScale, BOOM_SCALE, SMALL_SCALE};
use dejavuzz_uarch::boom_small;

/// One named workload. Every workload is a closed loop: each of its
/// workers claims the next seed only after its previous one committed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `netlist:boom`, one worker: host time is the netlist simulator's.
    NetlistBoom,
    /// `behavioural:BOOM`, two stealing workers, a checkpoint every round:
    /// executor, corpus, census fold and snapshot writes are visible.
    BehaviouralBoom,
    /// `proc:netlist:small:2`, two stealing workers: per-sim RPC and
    /// per-sim simulator setup dominate.
    ProcNetlistSmall,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [
        Workload::NetlistBoom,
        Workload::BehaviouralBoom,
        Workload::ProcNetlistSmall,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NetlistBoom => "netlist-boom",
            Workload::BehaviouralBoom => "behavioural-boom",
            Workload::ProcNetlistSmall => "proc-netlist-small",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The backend, spelled as `dejavuzz-fuzz --backend` takes it.
    pub fn backend_arg(self) -> &'static str {
        match self {
            Workload::NetlistBoom => "netlist:boom",
            Workload::BehaviouralBoom => "behavioural",
            Workload::ProcNetlistSmall => "proc:netlist:small:2",
        }
    }

    /// The plain backend spec the end-to-end runs use.
    pub fn spec(self) -> BackendSpec {
        BackendSpec::parse(self.backend_arg(), boom_small()).expect("workload backends parse")
    }

    /// The pool spec of the process-pool workload.
    pub fn proc_spec(self) -> Option<ProcSpec> {
        match self.spec() {
            BackendSpec::Proc(spec) => Some(spec),
            _ => None,
        }
    }

    /// The synthetic netlist the workload simulates, if any.
    pub fn netlist_scale(self) -> Option<CoreScale> {
        match self {
            Workload::NetlistBoom => Some(BOOM_SCALE),
            Workload::BehaviouralBoom => None,
            Workload::ProcNetlistSmall => Some(SMALL_SCALE),
        }
    }

    /// Campaign workers (threads claiming seeds).
    pub fn workers(self) -> usize {
        match self {
            Workload::NetlistBoom => 1,
            Workload::BehaviouralBoom | Workload::ProcNetlistSmall => 2,
        }
    }

    /// Iterations (committed seeds) of one trial campaign.
    pub fn iterations(self) -> usize {
        match self {
            Workload::NetlistBoom => 10,
            Workload::BehaviouralBoom | Workload::ProcNetlistSmall => 200,
        }
    }

    /// The campaign seeds one benchmark run at `seed` measures:
    /// `seed * 1000 + i`. Campaigns of one seed differ in cost by far
    /// more than host noise (which seeds the corpus retains shapes every
    /// later iteration), so each measured round runs several and the
    /// round's totals are one sample.
    pub fn campaign_seeds(self, seed: u64) -> Vec<u64> {
        let campaigns = match self {
            Workload::NetlistBoom => 4,
            Workload::BehaviouralBoom | Workload::ProcNetlistSmall => 12,
        };
        (0..campaigns)
            .map(|i| seed.wrapping_mul(1000).wrapping_add(i))
            .collect()
    }

    /// The campaign this workload runs at campaign seed `seed`, with the
    /// plain backend spec. `scratch` holds the checkpoint file.
    pub fn builder(self, seed: u64, scratch: &Path) -> CampaignBuilder {
        let b = CampaignBuilder::new()
            .backend(self.spec())
            .workers(self.workers())
            .seed(seed);
        match self {
            Workload::NetlistBoom => b,
            // Barriered stealing: pipeline lag 0, the depth-0 loop.
            Workload::BehaviouralBoom => b
                .scheduler(SchedulerSpec::WorkStealing)
                .snapshot_path(scratch.join("behavioural-boom.snap"))
                .snapshot_every(1),
            Workload::ProcNetlistSmall => b.scheduler(SchedulerSpec::WorkStealing),
        }
    }
}
