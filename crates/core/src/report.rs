//! Bug reports: the classification scheme of Table 5.

use std::borrow::Cow;

use dejavuzz_ift::Module;

use crate::gen::WindowType;

/// Attack family (Table 5's first column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttackType {
    /// The secret is architecturally inaccessible (permission revoked);
    /// the window leaks it across the privilege boundary.
    Meltdown,
    /// The secret is accessible to the victim domain; the window leaks it
    /// through speculative side effects.
    Spectre,
}

impl AttackType {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AttackType::Meltdown => "Meltdown",
            AttackType::Spectre => "Spectre",
        }
    }
}

/// Where the leaked secret was observed (Table 5's "Encoded Timing
/// Component" column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LeakChannel {
    /// A live tainted sink in a microarchitectural component
    /// (dcache/icache/tlb/btb/ras/loop/lfb/…).
    Encoded {
        /// Module owning the sink, as the backend reported it.
        module: Module,
    },
    /// A constant-time violation attributed to a contended resource
    /// (lsu/fpu/icache port contention).
    Timing {
        /// The contended resource; `None` (reported as `pipeline`) when
        /// no timing event explains the divergence.
        resource: Option<Module>,
    },
}

/// One reported transient-execution vulnerability.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BugReport {
    /// Core the bug was found on: borrowed from the backend while the
    /// campaign runs, owned once decoded from a snapshot.
    pub core: Cow<'static, str>,
    /// Attack family.
    pub attack: AttackType,
    /// The transient-window category that opened the window.
    pub window_type: WindowType,
    /// The leaking channel.
    pub channel: LeakChannel,
    /// Campaign iteration that found it.
    pub iteration: usize,
}

impl BugReport {
    /// The component mnemonic as Table 5 prints it: a scenario window's
    /// `classify_sink` hook may refine an encoded sink's module into a
    /// family label (`regfile` under Zenbleed is `regfile-stale`).
    pub fn component(&self) -> &'static str {
        match self.channel {
            LeakChannel::Encoded { module } => match self.window_type {
                WindowType::Scenario(i) => {
                    dejavuzz_scenarios::instance_classify_sink(i, module.name())
                        .unwrap_or(module.name())
                }
                _ => module.name(),
            },
            LeakChannel::Timing { resource } => resource.map_or("pipeline", Module::name),
        }
    }

    /// A stable deduplication key: Table 5 aggregates by (attack, window
    /// class, component).
    pub fn dedup_key(&self) -> (AttackType, &'static str, &'static str) {
        (
            self.attack,
            self.window_type.table5_class(),
            self.component(),
        )
    }
}

impl std::fmt::Display for BugReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} via {} window -> {}",
            self.core,
            self.attack.name(),
            self.window_type.table5_class(),
            self.component()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bug(window_type: WindowType, channel: LeakChannel) -> BugReport {
        BugReport {
            core: Cow::Borrowed("BOOM"),
            attack: AttackType::Spectre,
            window_type,
            channel,
            iteration: 1,
        }
    }

    #[test]
    fn dedup_key_aggregates_like_table5() {
        let a = BugReport {
            attack: AttackType::Meltdown,
            iteration: 3,
            ..bug(
                WindowType::MemPageFault,
                LeakChannel::Encoded {
                    module: Module::Dcache,
                },
            )
        };
        let b = BugReport {
            window_type: WindowType::MemMisalign, // same class: mem-excp
            iteration: 9,
            ..a.clone()
        };
        assert_eq!(a.dedup_key(), b.dedup_key());
    }

    #[test]
    fn display_is_reportable() {
        let r = BugReport {
            core: Cow::Owned("XiangShan".to_string()),
            ..bug(
                WindowType::BranchMispredict,
                LeakChannel::Timing {
                    resource: Some(Module::Fpu),
                },
            )
        };
        let s = r.to_string();
        assert!(s.contains("XiangShan") && s.contains("Spectre") && s.contains("fpu"));
    }

    /// The scenario label is applied when the component is read, so a
    /// bug keeps the raw module its sink reported.
    #[test]
    fn components_apply_the_scenario_sink_label() {
        let zenbleed = WindowType::Scenario(dejavuzz_scenarios::intern_spec("zenbleed").unwrap());
        let encoded = |module| LeakChannel::Encoded { module };
        let component = |w, c| bug(w, c).component();
        assert_eq!(
            component(zenbleed, encoded(Module::Regfile)),
            "regfile-stale"
        );
        assert_eq!(component(zenbleed, encoded(Module::Dcache)), "dcache");
        assert_eq!(
            component(WindowType::BranchMispredict, encoded(Module::Regfile)),
            "regfile"
        );
        let unattributed = LeakChannel::Timing { resource: None };
        assert_eq!(component(zenbleed, unattributed), "pipeline");
    }
}
