//! The open extension registry: named constructors for user-supplied
//! [`Scheduler`], [`SeedPolicy`] and [`SimBackend`] implementations.
//!
//! The built-in scheduling and simulation implementations are selected by
//! the closed enums [`crate::scheduler::SchedulerSpec`],
//! [`crate::scheduler::PolicySpec`] and [`crate::backend::BackendSpec`] —
//! closed so campaign snapshots can persist them as stable tags. Custom
//! implementations cannot live in those enums, but they still have to
//! round-trip through persistence: a snapshot taken under a custom
//! scheduler must name *which* scheduler it ran, and `--resume` must be
//! able to rebuild it, state included. The registry closes that gap:
//!
//! * an embedder registers a constructor under a stable string id
//!   ([`register_scheduler`] / [`register_seed_policy`] /
//!   [`register_backend`]),
//! * the `Extension(id)` variants of the spec enums select it (directly,
//!   or via [`crate::builder::CampaignBuilder`]'s `*_ctor` conveniences),
//! * snapshots persist the id plus an *opaque state blob*
//!   ([`crate::scheduler::Scheduler::state`] /
//!   [`crate::scheduler::PolicyState::Opaque`]), and resume hands the
//!   blob back to the registered constructor.
//!
//! The registry is process-global: ids registered once (typically at
//! program start) are visible to every campaign, which is exactly what
//! snapshot rehydration needs — the resuming process registers the same
//! extensions the snapshotting process did, and
//! [`crate::builder::CampaignBuilder::build`] validates up front that
//! every id a configuration (or a resumed snapshot) names is actually
//! resolvable, returning [`crate::builder::BuildError`] instead of
//! failing mid-campaign. Registering an id that already exists replaces
//! the previous constructor (the registry is open, not append-only).
//!
//! Constructors rather than instances: a campaign builds one scheduler
//! and one policy per *run* (and rebuilds them on every resume), and one
//! backend per *worker thread*, so what the registry stores must be a
//! factory. The scheduler/policy constructors receive `Some(blob)` when
//! rehydrating from a snapshot and `None` for a fresh campaign.
//!
//! ```
//! use dejavuzz::registry;
//! use dejavuzz::scheduler::WorkStealing;
//!
//! // A (trivial) custom scheduler: the built-in work stealing under a
//! // custom id. Real extensions parse `state` to restore themselves.
//! registry::register_scheduler("docs-ws", |_state| Box::new(WorkStealing)).unwrap();
//! assert!(registry::scheduler_ctor("docs-ws").is_some());
//! assert!(registry::scheduler_ctor("never-registered").is_none());
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

use crate::backend::SimBackend;
use crate::scheduler::{Scheduler, SeedPolicy};

/// A scheduler factory: builds a fresh instance, restoring the opaque
/// snapshot state blob when one is given ([`Scheduler::state`] produced
/// it; `None` means a fresh campaign).
pub type SchedulerCtor = Arc<dyn Fn(Option<&[u8]>) -> Box<dyn Scheduler> + Send + Sync>;

/// A seed-policy factory: builds a fresh instance, restoring the opaque
/// snapshot state blob when one is given
/// ([`crate::scheduler::PolicyState::Opaque`] carried it).
pub type PolicyCtor = Arc<dyn Fn(Option<&[u8]>) -> Box<dyn SeedPolicy> + Send + Sync>;

/// A backend factory: builds one simulator instance per worker thread.
pub type BackendCtor = Arc<dyn Fn() -> Box<dyn SimBackend> + Send + Sync>;

/// Why a registration was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// The id is unusable as a persistent extension name.
    InvalidId {
        /// The offending id.
        id: String,
        /// What is wrong with it.
        reason: &'static str,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::InvalidId { id, reason } => {
                write!(f, "invalid extension id {id:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

#[derive(Default)]
struct Registry {
    schedulers: BTreeMap<String, SchedulerCtor>,
    policies: BTreeMap<String, PolicyCtor>,
    backends: BTreeMap<String, BackendCtor>,
}

fn registry() -> &'static RwLock<Registry> {
    static REGISTRY: OnceLock<RwLock<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Registry::default()))
}

/// Ids are persisted inside snapshot files and echoed in CLI labels, so
/// they must be stable, printable and unambiguous: non-empty ASCII
/// graphic characters, no whitespace, and no `:` (reserved for the
/// `ext:<id>` spelling of spec labels and `--scheduler ext:<id>` style
/// parsing).
pub(crate) fn validate_id(id: &str) -> Result<(), RegistryError> {
    let reason = if id.is_empty() {
        "must not be empty"
    } else if id.contains(':') {
        "must not contain ':' (reserved for the ext:<id> spelling)"
    } else if !id.chars().all(|c| c.is_ascii_graphic()) {
        "must be printable ASCII without whitespace"
    } else {
        return Ok(());
    };
    Err(RegistryError::InvalidId {
        id: id.to_string(),
        reason,
    })
}

/// Registers a custom [`Scheduler`] constructor under `id`, replacing any
/// previous registration of the same id. Selected by
/// [`crate::scheduler::SchedulerSpec::Extension`].
pub fn register_scheduler(
    id: &str,
    ctor: impl Fn(Option<&[u8]>) -> Box<dyn Scheduler> + Send + Sync + 'static,
) -> Result<(), RegistryError> {
    validate_id(id)?;
    let mut reg = registry().write().expect("registry poisoned");
    reg.schedulers.insert(id.to_string(), Arc::new(ctor));
    Ok(())
}

/// Registers a custom [`SeedPolicy`] constructor under `id`, replacing
/// any previous registration of the same id. Selected by
/// [`crate::scheduler::PolicySpec::Extension`].
pub fn register_seed_policy(
    id: &str,
    ctor: impl Fn(Option<&[u8]>) -> Box<dyn SeedPolicy> + Send + Sync + 'static,
) -> Result<(), RegistryError> {
    validate_id(id)?;
    let mut reg = registry().write().expect("registry poisoned");
    reg.policies.insert(id.to_string(), Arc::new(ctor));
    Ok(())
}

/// Registers a custom [`SimBackend`] constructor under `id`, replacing
/// any previous registration of the same id. Selected by
/// [`crate::backend::BackendSpec::Extension`].
pub fn register_backend(
    id: &str,
    ctor: impl Fn() -> Box<dyn SimBackend> + Send + Sync + 'static,
) -> Result<(), RegistryError> {
    validate_id(id)?;
    let mut reg = registry().write().expect("registry poisoned");
    reg.backends.insert(id.to_string(), Arc::new(ctor));
    Ok(())
}

/// Looks up a registered scheduler constructor.
pub fn scheduler_ctor(id: &str) -> Option<SchedulerCtor> {
    registry()
        .read()
        .expect("registry poisoned")
        .schedulers
        .get(id)
        .cloned()
}

/// Looks up a registered seed-policy constructor.
pub fn seed_policy_ctor(id: &str) -> Option<PolicyCtor> {
    registry()
        .read()
        .expect("registry poisoned")
        .policies
        .get(id)
        .cloned()
}

/// Looks up a registered backend constructor.
pub fn backend_ctor(id: &str) -> Option<BackendCtor> {
    registry()
        .read()
        .expect("registry poisoned")
        .backends
        .get(id)
        .cloned()
}

/// Ids of every registered scheduler extension, sorted (diagnostics and
/// `--help`-style listings).
pub fn registered_schedulers() -> Vec<String> {
    let reg = registry().read().expect("registry poisoned");
    reg.schedulers.keys().cloned().collect()
}

/// Ids of every registered seed-policy extension, sorted.
pub fn registered_seed_policies() -> Vec<String> {
    let reg = registry().read().expect("registry poisoned");
    reg.policies.keys().cloned().collect()
}

/// Ids of every registered backend extension, sorted.
pub fn registered_backends() -> Vec<String> {
    let reg = registry().read().expect("registry poisoned");
    reg.backends.keys().cloned().collect()
}

/// One selectable implementation in an introspection listing
/// ([`list_schedulers`] and friends; `dejavuzz-fuzz --list-extensions`
/// prints these). The id is spelled exactly as the CLI accepts it:
/// built-ins by their canonical short name, extensions as `ext:<id>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtensionInfo {
    /// The CLI spelling that selects this implementation.
    pub id: String,
    /// True for the closed built-ins, false for registry extensions.
    pub builtin: bool,
}

fn catalogue(builtins: &[&str], registered: Vec<String>) -> Vec<ExtensionInfo> {
    let mut out: Vec<ExtensionInfo> = builtins
        .iter()
        .map(|id| ExtensionInfo {
            id: (*id).to_string(),
            builtin: true,
        })
        .collect();
    out.extend(registered.into_iter().map(|id| ExtensionInfo {
        id: format!("ext:{id}"),
        builtin: false,
    }));
    out
}

/// Every selectable slot scheduler: the built-in `steal` followed by the
/// registered extensions as `ext:<id>`, sorted.
pub fn list_schedulers() -> Vec<ExtensionInfo> {
    catalogue(&["steal"], registered_schedulers())
}

/// Every selectable corpus seed policy: the built-ins (`energy`,
/// `favoured`) followed by the registered extensions as `ext:<id>`.
pub fn list_seed_policies() -> Vec<ExtensionInfo> {
    catalogue(&["energy", "favoured"], registered_seed_policies())
}

/// Every selectable simulation backend: the built-in spellings
/// (including the `proc:<inner>:<M>` pool wrapper template) followed by
/// the registered extensions as `ext:<id>`.
pub fn list_backends() -> Vec<ExtensionInfo> {
    catalogue(
        &[
            "behavioural",
            "netlist:small",
            "netlist:boom",
            "netlist:xiangshan",
            "proc:<inner>:<M>",
        ],
        registered_backends(),
    )
}

/// Every registered scenario template family, sorted by family id —
/// the built-ins ship pre-registered, embedder templates appear once
/// [`dejavuzz_scenarios::register_template`]ed.
pub fn list_scenarios() -> Vec<dejavuzz_scenarios::TemplateInfo> {
    dejavuzz_scenarios::list_templates()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{EnergyDecay, WorkStealing};

    #[test]
    fn invalid_ids_are_refused_with_reasons() {
        for (id, needle) in [
            ("", "must not be empty"),
            ("has space", "printable ASCII"),
            ("tab\there", "printable ASCII"),
            ("colon:id", "reserved"),
            ("ünïcode", "printable ASCII"),
        ] {
            let err = register_scheduler(id, |_| Box::new(WorkStealing)).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{id:?} gave {err}, wanted {needle:?}"
            );
        }
    }

    #[test]
    fn registration_resolves_and_replaces() {
        register_scheduler("reg-test-sched", |_| Box::new(WorkStealing)).unwrap();
        assert!(scheduler_ctor("reg-test-sched").is_some());
        assert!(scheduler_ctor("reg-test-sched-missing").is_none());
        // Re-registration replaces (the registry is open, not append-only).
        register_scheduler("reg-test-sched", |_| Box::new(WorkStealing)).unwrap();
        assert!(registered_schedulers().contains(&"reg-test-sched".to_string()));

        register_seed_policy("reg-test-pol", |_| Box::new(EnergyDecay)).unwrap();
        assert!(seed_policy_ctor("reg-test-pol").is_some());
        assert!(registered_seed_policies().contains(&"reg-test-pol".to_string()));

        register_backend("reg-test-be", || {
            Box::new(crate::backend::BehaviouralBackend::new(
                dejavuzz_uarch::boom_small(),
            ))
        })
        .unwrap();
        assert!(backend_ctor("reg-test-be").is_some());
        assert!(registered_backends().contains(&"reg-test-be".to_string()));
        assert!(backend_ctor("reg-test-be-missing").is_none());
    }
}
