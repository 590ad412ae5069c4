//! Templated attack-experiment library for DejaVuzz.
//!
//! The core generator (`dejavuzz::gen`) covers the paper's original
//! transient-window families. This crate adds *scenario templates*: named,
//! parameterized attack-experiment families that plug whole new window
//! families into the fuzzer end to end — generation, scheduling quotas,
//! detection, stats, and snapshot persistence — without touching the
//! engine. A template describes a family once ([`ScenarioTemplate`]); the
//! engine instantiates it per parameterization and treats each instance as
//! a first-class window type.
//!
//! Two process-global tables underpin the wiring:
//!
//! * the **template registry** — family id → template
//!   ([`register_template`], [`list_templates`]); the four built-in
//!   families below are pre-registered.
//! * the **instance intern table** — every *parameterized* instance the
//!   process has seen (`family:param=val`), interned to a dense `u16` so
//!   the engine's `WindowType` stays `Copy` ([`intern_spec`] and the
//!   `instance_*` accessors). Specs are canonicalized (every parameter
//!   spelled out, declaration order) before interning, so `nested-spec`
//!   and `nested-spec:depth=3` are the same instance.
//!
//! # Built-in families
//!
//! | family         | mechanism            | sketch |
//! |----------------|----------------------|--------|
//! | `zenbleed`     | branch mispredict    | move-elimination / register-file stale-data leak: move-elim candidate + zeroing idiom + stale readback in one dispatch window |
//! | `double-fetch` | memory disambiguation| TOCTOU double fetch: two loads of the same secret address separated by a parameterized gap, then a compare of the two copies |
//! | `nested-spec`  | branch mispredict    | nested-speculation depth stress: a chain of `depth` data-dependent branches inside the outer window |
//! | `sibling-leak` | indirect mispredict  | sibling-unit contention sweep: secret-dependent bursts on a shared long-latency unit (div / mul / fpu) |
//!
//! Register contract for generated blocks (fixed by the engine's
//! completion step): on entry `t0` holds the secret address, `t2` the leak
//! buffer base; the access block should leave the secret (or a derived
//! value) in `s0` for the encode block to transmit.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

use dejavuzz_isa::{AluOp, BranchOp, FpOp, Instr, LoadOp, Reg};
use rand::rngs::StdRng;
use rand::Rng;

/// The underlying transient-window mechanism a scenario rides on.
///
/// Variants mirror the engine's base window types **in the same order as
/// `WindowType::ALL`** (the engine maps `Mechanism` to a base window by
/// position); the mechanism decides trigger construction, training
/// derivation and squash-cause checking for the family's windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Mechanism {
    /// Load access fault (PMP-style) squash.
    MemAccessFault = 0,
    /// Load page fault squash.
    MemPageFault = 1,
    /// Misaligned access squash.
    MemMisalign = 2,
    /// Illegal-instruction squash.
    IllegalInstr = 3,
    /// Memory disambiguation (load ordering) squash.
    MemDisambiguation = 4,
    /// Conditional branch misprediction.
    BranchMispredict = 5,
    /// Indirect jump target misprediction.
    IndirectMispredict = 6,
    /// Return address misprediction.
    ReturnMispredict = 7,
}

/// One declared parameter of a scenario family: name, default, and the
/// inclusive range of legal values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamSpec {
    /// Parameter name as it appears in `family:name=value` specs.
    pub name: &'static str,
    /// Value used when the spec omits the parameter.
    pub default: u64,
    /// Smallest legal value (inclusive).
    pub min: u64,
    /// Largest legal value (inclusive).
    pub max: u64,
}

/// A fully resolved parameterization: every declared parameter bound to a
/// value, in declaration order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Params {
    values: Vec<(&'static str, u64)>,
}

impl Params {
    /// The resolved value of `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not a declared parameter of the family —
    /// templates only ever query their own declarations, so this is a
    /// template bug, not an input error.
    pub fn get(&self, name: &str) -> u64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("scenario template queried undeclared parameter {name:?}"))
    }

    /// All `(name, value)` pairs in declaration order.
    pub fn entries(&self) -> &[(&'static str, u64)] {
        &self.values
    }
}

/// A scenario family: a named, parameterized attack-experiment template.
///
/// Implementations must be deterministic — every method a pure function
/// of `(params, rng draws)` — because generated programs feed the
/// engine's per-`(seed, workers)` byte-determinism contract.
pub trait ScenarioTemplate: Send + Sync {
    /// Stable family id (used in `--scenarios` specs, stats keys and
    /// snapshots). Must satisfy the registry id rules: non-empty ASCII
    /// graphic, no `:`, `,` or `=`.
    fn family(&self) -> &'static str;

    /// One-line human description for `--list-extensions`.
    fn describe(&self) -> &'static str;

    /// Declared parameter space (empty when the family takes none).
    fn params(&self) -> &'static [ParamSpec] {
        &[]
    }

    /// The transient-window mechanism this family's windows ride on.
    fn mechanism(&self, params: &Params) -> Mechanism;

    /// Minimum window body length (slots) the family needs; the engine
    /// widens its drawn window geometry to at least this.
    fn min_slots(&self, _params: &Params) -> usize {
        0
    }

    /// The secret-access block placed at the head of the transient
    /// window (the family's *seed generator*). Register contract: `t0` =
    /// secret address, `t2` = leak base; leave the secret in `s0`.
    fn access_block(&self, params: &Params, rng: &mut StdRng) -> Vec<Instr>;

    /// Extra encode-side instructions appended after the engine's
    /// secret-encoding gadgets (the family's *mutation bias*); redrawn
    /// per mutation. Default: none.
    fn encode_bias(&self, _params: &Params, _rng: &mut StdRng) -> Vec<Instr> {
        Vec::new()
    }

    /// Sink-classification hook: given a tainted-sink module name from
    /// leakage analysis (e.g. `"regfile"`, `"rob"`), return a
    /// family-specific channel label to report instead of the generic
    /// module name, or `None` to keep the default classification.
    fn classify_sink(&self, _params: &Params, _module: &str) -> Option<&'static str> {
        None
    }
}

/// Errors from scenario-spec parsing and template registration, with
/// stable `Display` texts (pinned by the CLI tests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The spec string was empty.
    EmptySpec,
    /// No template registered under the family id.
    UnknownFamily {
        /// The family id as written.
        family: String,
    },
    /// A `name=value` item did not parse.
    MalformedParam {
        /// The offending item as written.
        item: String,
        /// The family the spec named.
        family: String,
    },
    /// The parameter name is not declared by the family.
    UnknownParam {
        /// The parameter name as written.
        name: String,
        /// The family the spec named.
        family: String,
    },
    /// The value falls outside the declared `[min, max]` range.
    OutOfRange {
        /// The declared parameter name.
        name: String,
        /// The family the spec named.
        family: String,
        /// Declared minimum (inclusive).
        min: u64,
        /// Declared maximum (inclusive).
        max: u64,
        /// The value as written.
        value: u64,
    },
    /// A template's family id breaks the registry id rules.
    InvalidFamilyId {
        /// The offending id.
        id: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::EmptySpec => write!(f, "empty scenario spec"),
            ScenarioError::UnknownFamily { family } => {
                write!(f, "unknown scenario family {family:?}")
            }
            ScenarioError::MalformedParam { item, family } => write!(
                f,
                "malformed parameter {item:?} for scenario family {family:?} \
                 (expected name=integer)"
            ),
            ScenarioError::UnknownParam { name, family } => {
                write!(
                    f,
                    "unknown parameter {name:?} for scenario family {family:?}"
                )
            }
            ScenarioError::OutOfRange {
                name,
                family,
                min,
                max,
                value,
            } => write!(
                f,
                "parameter {name:?} of scenario family {family:?} must be in \
                 [{min}, {max}], got {value}"
            ),
            ScenarioError::InvalidFamilyId { id } => write!(
                f,
                "invalid scenario family id {id:?}: ids are non-empty ASCII \
                 without ':', ',' or '='"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

// ---------------------------------------------------------------------------
// Template registry
// ---------------------------------------------------------------------------

fn templates() -> &'static RwLock<BTreeMap<String, Arc<dyn ScenarioTemplate>>> {
    static TEMPLATES: OnceLock<RwLock<BTreeMap<String, Arc<dyn ScenarioTemplate>>>> =
        OnceLock::new();
    TEMPLATES.get_or_init(|| {
        // Built-ins are pre-registered so every process that decodes a
        // scenario window (including `dejavuzz-simd` worker processes)
        // can resolve them without explicit setup.
        let mut map: BTreeMap<String, Arc<dyn ScenarioTemplate>> = BTreeMap::new();
        for t in [
            Arc::new(Zenbleed) as Arc<dyn ScenarioTemplate>,
            Arc::new(DoubleFetch),
            Arc::new(NestedSpec),
            Arc::new(SiblingLeak),
        ] {
            map.insert(t.family().to_string(), t);
        }
        RwLock::new(map)
    })
}

fn valid_family_id(id: &str) -> bool {
    !id.is_empty()
        && id
            .chars()
            .all(|c| c.is_ascii_graphic() && c != ':' && c != ',' && c != '=')
}

/// Registers (or replaces) a scenario template under its family id.
///
/// Call before building a campaign that names the family; interned
/// instances keep the template they were interned with, so replacing a
/// family never changes windows already in flight.
pub fn register_template(template: Arc<dyn ScenarioTemplate>) -> Result<(), ScenarioError> {
    let id = template.family();
    if !valid_family_id(id) {
        return Err(ScenarioError::InvalidFamilyId { id: id.to_string() });
    }
    templates()
        .write()
        .expect("scenario template registry poisoned")
        .insert(id.to_string(), template);
    Ok(())
}

/// One row of [`list_templates`]: family id, description and declared
/// parameters.
#[derive(Clone, Debug)]
pub struct TemplateInfo {
    /// Stable family id.
    pub family: String,
    /// One-line description.
    pub describe: String,
    /// Declared parameter space.
    pub params: Vec<ParamSpec>,
}

/// Every registered scenario family (built-ins plus user registrations),
/// sorted by family id.
pub fn list_templates() -> Vec<TemplateInfo> {
    templates()
        .read()
        .expect("scenario template registry poisoned")
        .values()
        .map(|t| TemplateInfo {
            family: t.family().to_string(),
            describe: t.describe().to_string(),
            params: t.params().to_vec(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Instance intern table
// ---------------------------------------------------------------------------

struct Instance {
    template: Arc<dyn ScenarioTemplate>,
    params: Params,
    /// Canonical spec (`family:p=v` with every parameter spelled out).
    spec: &'static str,
    /// `scenario:` + canonical spec — the window-type display name.
    label: &'static str,
    family: &'static str,
}

fn instances() -> &'static RwLock<Vec<Instance>> {
    static INSTANCES: OnceLock<RwLock<Vec<Instance>>> = OnceLock::new();
    INSTANCES.get_or_init(|| RwLock::new(Vec::new()))
}

/// Parses a scenario spec (`family` or `family:name=val:name=val`),
/// resolves defaults, canonicalizes, and interns the instance, returning
/// its dense process-local index. Interning is idempotent per canonical
/// spec: `nested-spec` and `nested-spec:depth=3` share one index.
///
/// Note the index is **process-local** — cross-process identity is always
/// the canonical spec string ([`instance_spec`]), which is what snapshots
/// and the worker-pool protocol carry.
pub fn intern_spec(spec: &str) -> Result<u16, ScenarioError> {
    if spec.is_empty() {
        return Err(ScenarioError::EmptySpec);
    }
    let mut items = spec.split(':');
    let family = items.next().unwrap_or("");
    let template = templates()
        .read()
        .expect("scenario template registry poisoned")
        .get(family)
        .cloned()
        .ok_or_else(|| ScenarioError::UnknownFamily {
            family: family.to_string(),
        })?;
    let decls = template.params();
    let mut values: Vec<(&'static str, u64)> = decls.iter().map(|p| (p.name, p.default)).collect();
    for item in items {
        let (name, value) = item
            .split_once('=')
            .and_then(|(n, v)| Some((n, v.parse::<u64>().ok()?)))
            .ok_or_else(|| ScenarioError::MalformedParam {
                item: item.to_string(),
                family: family.to_string(),
            })?;
        let decl =
            decls
                .iter()
                .find(|p| p.name == name)
                .ok_or_else(|| ScenarioError::UnknownParam {
                    name: name.to_string(),
                    family: family.to_string(),
                })?;
        if value < decl.min || value > decl.max {
            return Err(ScenarioError::OutOfRange {
                name: name.to_string(),
                family: family.to_string(),
                min: decl.min,
                max: decl.max,
                value,
            });
        }
        values
            .iter_mut()
            .find(|(n, _)| *n == name)
            .expect("declared")
            .1 = value;
    }
    let mut canonical = family.to_string();
    for (name, value) in &values {
        canonical.push_str(&format!(":{name}={value}"));
    }
    let mut table = instances().write().expect("scenario intern table poisoned");
    if let Some(i) = table.iter().position(|inst| inst.spec == canonical) {
        return Ok(i as u16);
    }
    assert!(
        table.len() < u16::MAX as usize,
        "scenario instance intern table overflow"
    );
    let idx = table.len() as u16;
    table.push(Instance {
        family: leak(template.family().to_string()),
        label: leak(format!("scenario:{canonical}")),
        spec: leak(canonical),
        params: Params { values },
        template,
    });
    Ok(idx)
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

fn with_instance<T>(index: u16, f: impl FnOnce(&Instance) -> T) -> T {
    let table = instances().read().expect("scenario intern table poisoned");
    let inst = table
        .get(index as usize)
        .unwrap_or_else(|| panic!("scenario instance {index} not interned in this process"));
    f(inst)
}

/// Canonical spec string of an interned instance (stable across
/// processes; what snapshots persist).
pub fn instance_spec(index: u16) -> &'static str {
    with_instance(index, |i| i.spec)
}

/// Display label of an interned instance (`scenario:` + canonical spec).
pub fn instance_label(index: u16) -> &'static str {
    with_instance(index, |i| i.label)
}

/// Family id of an interned instance.
pub fn instance_family(index: u16) -> &'static str {
    with_instance(index, |i| i.family)
}

/// Mechanism of an interned instance.
pub fn instance_mechanism(index: u16) -> Mechanism {
    with_instance(index, |i| i.template.mechanism(&i.params))
}

/// Minimum window slots of an interned instance.
pub fn instance_min_slots(index: u16) -> usize {
    with_instance(index, |i| i.template.min_slots(&i.params))
}

/// Secret-access block of an interned instance.
pub fn instance_access_block(index: u16, rng: &mut StdRng) -> Vec<Instr> {
    with_instance(index, |i| i.template.access_block(&i.params, rng))
}

/// Encode-bias block of an interned instance.
pub fn instance_encode_bias(index: u16, rng: &mut StdRng) -> Vec<Instr> {
    with_instance(index, |i| i.template.encode_bias(&i.params, rng))
}

/// Sink-classification hook of an interned instance.
pub fn instance_classify_sink(index: u16, module: &str) -> Option<&'static str> {
    with_instance(index, |i| i.template.classify_sink(&i.params, module))
}

// ---------------------------------------------------------------------------
// Built-in templates
// ---------------------------------------------------------------------------

/// Move-elimination / register-file stale-data leak (Zenbleed-shaped):
/// a move-elimination candidate, a zeroing idiom and a stale readback
/// race inside one mispredicted dispatch window.
pub struct Zenbleed;

impl ScenarioTemplate for Zenbleed {
    fn family(&self) -> &'static str {
        "zenbleed"
    }

    fn describe(&self) -> &'static str {
        "move-elimination / register-file stale-data leak (Zenbleed-shaped)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        // zero_idiom: 0 = xor rd,rd,rd; 1 = sub rd,rd,rd; 2 = and rd,rd,zero.
        &[ParamSpec {
            name: "zero_idiom",
            default: 0,
            min: 0,
            max: 2,
        }]
    }

    fn mechanism(&self, _params: &Params) -> Mechanism {
        Mechanism::BranchMispredict
    }

    fn min_slots(&self, _params: &Params) -> usize {
        12
    }

    fn access_block(&self, params: &Params, rng: &mut StdRng) -> Vec<Instr> {
        let op = LoadOp::ALL[rng.gen_range(0..LoadOp::ALL.len())];
        let zero = match params.get("zero_idiom") {
            0 => Instr::Op {
                op: AluOp::Xor,
                rd: Reg::S4,
                rs1: Reg::S4,
                rs2: Reg::S4,
            },
            1 => Instr::Op {
                op: AluOp::Sub,
                rd: Reg::S4,
                rs1: Reg::S4,
                rs2: Reg::S4,
            },
            _ => Instr::Op {
                op: AluOp::And,
                rd: Reg::S4,
                rs1: Reg::S4,
                rs2: Reg::ZERO,
            },
        };
        vec![
            // Secret into s0.
            Instr::Load {
                op,
                rd: Reg::S0,
                rs1: Reg::T0,
                offset: 0,
            },
            // Move-elimination candidate: rename-stage copy of s0.
            Instr::Op {
                op: AluOp::Add,
                rd: Reg::S4,
                rs1: Reg::S0,
                rs2: Reg::ZERO,
            },
            // The zeroing idiom the move-elim optimization mishandles.
            zero,
            // Stale readback: s1 observes whatever the register file
            // still holds for the eliminated copy.
            Instr::Op {
                op: AluOp::Add,
                rd: Reg::S1,
                rs1: Reg::S4,
                rs2: Reg::S0,
            },
        ]
    }

    fn encode_bias(&self, _params: &Params, rng: &mut StdRng) -> Vec<Instr> {
        // Register-file pressure: a short rename-heavy copy/mul chain so
        // the physical register file churns while the secret is live.
        let n = rng.gen_range(1..4);
        let mut out = Vec::new();
        for k in 0..n {
            let rd = [Reg::S5, Reg::S6, Reg::S7][k];
            out.push(Instr::Op {
                op: if k % 2 == 0 { AluOp::Add } else { AluOp::Mul },
                rd,
                rs1: Reg::S1,
                rs2: if k == 0 {
                    Reg::ZERO
                } else {
                    [Reg::S5, Reg::S6][k - 1]
                },
            });
        }
        out
    }

    fn classify_sink(&self, _params: &Params, module: &str) -> Option<&'static str> {
        // Stale physical-register-file state is this family's signature
        // channel; keep every other sink on the generic classification.
        (module == "regfile").then_some("regfile-stale")
    }
}

/// Double-fetch TOCTOU window: the secret address is read twice with a
/// parameterized gap, and the two copies are compared — a classic
/// time-of-check/time-of-use shape on the memory-disambiguation window.
pub struct DoubleFetch;

impl ScenarioTemplate for DoubleFetch {
    fn family(&self) -> &'static str {
        "double-fetch"
    }

    fn describe(&self) -> &'static str {
        "double-fetch TOCTOU window over the memory-disambiguation squash"
    }

    fn params(&self) -> &'static [ParamSpec] {
        // gap: nops between the two fetches of the same address.
        &[ParamSpec {
            name: "gap",
            default: 2,
            min: 0,
            max: 8,
        }]
    }

    fn mechanism(&self, _params: &Params) -> Mechanism {
        Mechanism::MemDisambiguation
    }

    fn min_slots(&self, params: &Params) -> usize {
        6 + params.get("gap") as usize
    }

    fn access_block(&self, params: &Params, _rng: &mut StdRng) -> Vec<Instr> {
        let gap = params.get("gap") as usize;
        let mut out = vec![Instr::Load {
            op: LoadOp::Lb,
            rd: Reg::S0,
            rs1: Reg::T0,
            offset: 0,
        }];
        out.extend(std::iter::repeat_n(Instr::NOP, gap));
        out.push(Instr::Load {
            op: LoadOp::Lb,
            rd: Reg::S2,
            rs1: Reg::T0,
            offset: 0,
        });
        // check-vs-use divergence: nonzero iff the two fetches disagree.
        out.push(Instr::Op {
            op: AluOp::Xor,
            rd: Reg::S3,
            rs1: Reg::S0,
            rs2: Reg::S2,
        });
        out
    }
}

/// Nested-speculation depth stress (SpecFuzz-style): a chain of `depth`
/// data-dependent branches inside the outer transient window, each
/// deepening the speculative nesting before the squash resolves.
pub struct NestedSpec;

impl ScenarioTemplate for NestedSpec {
    fn family(&self) -> &'static str {
        "nested-spec"
    }

    fn describe(&self) -> &'static str {
        "nested-speculation depth stress: depth data-dependent branches in-window"
    }

    fn params(&self) -> &'static [ParamSpec] {
        &[ParamSpec {
            name: "depth",
            default: 3,
            min: 1,
            max: 8,
        }]
    }

    fn mechanism(&self, _params: &Params) -> Mechanism {
        Mechanism::BranchMispredict
    }

    fn min_slots(&self, params: &Params) -> usize {
        3 * params.get("depth") as usize + 6
    }

    fn access_block(&self, params: &Params, rng: &mut StdRng) -> Vec<Instr> {
        let depth = params.get("depth") as usize;
        let op = LoadOp::ALL[rng.gen_range(0..LoadOp::ALL.len())];
        let mut out = vec![Instr::Load {
            op,
            rd: Reg::S0,
            rs1: Reg::T0,
            offset: 0,
        }];
        for k in 0..depth {
            // Secret-dependent condition bit for nesting level k...
            out.push(Instr::OpImm {
                op: AluOp::And,
                rd: Reg::S1,
                rs1: Reg::S0,
                imm: 1 << (k & 7),
            });
            // ...a branch on it (one more speculation level)...
            out.push(Instr::Branch {
                op: BranchOp::Bne,
                rs1: Reg::S1,
                rs2: Reg::ZERO,
                offset: 8,
            });
            // ...and an accumulating use under that level.
            out.push(Instr::Op {
                op: AluOp::Add,
                rd: Reg::S2,
                rs1: Reg::S2,
                rs2: Reg::S1,
            });
        }
        out
    }
}

/// Sibling-unit / multi-head leakage sweep: secret-dependent bursts of
/// contention on a shared long-latency unit (integer divide, multiply or
/// the FP divider), the Spectre-Rewind / SMT-contention shape.
pub struct SiblingLeak;

impl ScenarioTemplate for SiblingLeak {
    fn family(&self) -> &'static str {
        "sibling-leak"
    }

    fn describe(&self) -> &'static str {
        "sibling-unit contention sweep (div/mul/fpu) with secret-dependent bursts"
    }

    fn params(&self) -> &'static [ParamSpec] {
        // unit: 0 = integer div, 1 = integer mul, 2 = fp div.
        &[
            ParamSpec {
                name: "unit",
                default: 0,
                min: 0,
                max: 2,
            },
            ParamSpec {
                name: "bursts",
                default: 2,
                min: 1,
                max: 4,
            },
        ]
    }

    fn mechanism(&self, _params: &Params) -> Mechanism {
        Mechanism::IndirectMispredict
    }

    fn min_slots(&self, params: &Params) -> usize {
        3 * params.get("bursts") as usize + 4
    }

    fn access_block(&self, params: &Params, _rng: &mut StdRng) -> Vec<Instr> {
        let mut out = vec![Instr::Load {
            op: LoadOp::Lb,
            rd: Reg::S0,
            rs1: Reg::T0,
            offset: 0,
        }];
        for _ in 0..params.get("bursts") {
            out.extend(contention_burst(params.get("unit"), Reg::S0));
        }
        out
    }

    fn encode_bias(&self, params: &Params, _rng: &mut StdRng) -> Vec<Instr> {
        // One more burst on the encoded value keeps the sibling unit
        // occupied across the encode block too.
        contention_burst(params.get("unit"), Reg::S1)
    }

    fn classify_sink(&self, _params: &Params, module: &str) -> Option<&'static str> {
        // Contention residue parked in in-flight results is the
        // family's signature channel.
        (module == "rob").then_some("sibling-residue")
    }
}

fn contention_burst(unit: u64, src: Reg) -> Vec<Instr> {
    match unit {
        0 => vec![Instr::Op {
            op: AluOp::Div,
            rd: Reg::S1,
            rs1: src,
            rs2: src,
        }],
        1 => vec![Instr::Op {
            op: AluOp::Mul,
            rd: Reg::S1,
            rs1: src,
            rs2: src,
        }],
        _ => vec![
            Instr::FmvDX {
                rd: Reg(1),
                rs1: src,
            },
            Instr::Fp {
                op: FpOp::FdivD,
                rd: Reg(2),
                rs1: Reg(1),
                rs2: Reg(1),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn builtins_are_registered_and_sorted() {
        let fams: Vec<String> = list_templates().into_iter().map(|t| t.family).collect();
        for f in ["double-fetch", "nested-spec", "sibling-leak", "zenbleed"] {
            assert!(fams.contains(&f.to_string()), "missing builtin {f}");
        }
        let mut sorted = fams.clone();
        sorted.sort();
        assert_eq!(fams, sorted);
    }

    #[test]
    fn canonicalization_dedupes_default_spellings() {
        let a = intern_spec("nested-spec").unwrap();
        let b = intern_spec("nested-spec:depth=3").unwrap();
        assert_eq!(a, b);
        assert_eq!(instance_spec(a), "nested-spec:depth=3");
        assert_eq!(instance_label(a), "scenario:nested-spec:depth=3");
        assert_eq!(instance_family(a), "nested-spec");
        let c = intern_spec("nested-spec:depth=5").unwrap();
        assert_ne!(a, c);
        assert_eq!(instance_spec(c), "nested-spec:depth=5");
    }

    #[test]
    fn multi_param_canonical_order_is_declaration_order() {
        let a = intern_spec("sibling-leak:bursts=3:unit=2").unwrap();
        let b = intern_spec("sibling-leak:unit=2:bursts=3").unwrap();
        assert_eq!(a, b);
        assert_eq!(instance_spec(a), "sibling-leak:unit=2:bursts=3");
    }

    #[test]
    fn pinned_error_texts() {
        assert_eq!(
            intern_spec("").unwrap_err().to_string(),
            "empty scenario spec"
        );
        assert_eq!(
            intern_spec("ghost-fam").unwrap_err().to_string(),
            "unknown scenario family \"ghost-fam\""
        );
        assert_eq!(
            intern_spec("nested-spec:depth").unwrap_err().to_string(),
            "malformed parameter \"depth\" for scenario family \"nested-spec\" \
             (expected name=integer)"
        );
        assert_eq!(
            intern_spec("nested-spec:depth=x").unwrap_err().to_string(),
            "malformed parameter \"depth=x\" for scenario family \"nested-spec\" \
             (expected name=integer)"
        );
        assert_eq!(
            intern_spec("nested-spec:width=3").unwrap_err().to_string(),
            "unknown parameter \"width\" for scenario family \"nested-spec\""
        );
        assert_eq!(
            intern_spec("nested-spec:depth=99").unwrap_err().to_string(),
            "parameter \"depth\" of scenario family \"nested-spec\" must be in \
             [1, 8], got 99"
        );
    }

    #[test]
    fn access_blocks_are_deterministic_per_rng_state() {
        for fam in ["zenbleed", "double-fetch", "nested-spec", "sibling-leak"] {
            let i = intern_spec(fam).unwrap();
            let a = instance_access_block(i, &mut StdRng::seed_from_u64(7));
            let b = instance_access_block(i, &mut StdRng::seed_from_u64(7));
            assert_eq!(a, b, "{fam} access block must be rng-deterministic");
            assert!(!a.is_empty(), "{fam} access block must be nonempty");
            assert!(
                a.len() <= instance_min_slots(i),
                "{fam}: min_slots must cover the access block"
            );
        }
    }

    #[test]
    fn parameter_shapes_generated_code() {
        let shallow = intern_spec("nested-spec:depth=1").unwrap();
        let deep = intern_spec("nested-spec:depth=8").unwrap();
        let a = instance_access_block(shallow, &mut StdRng::seed_from_u64(1));
        let b = instance_access_block(deep, &mut StdRng::seed_from_u64(1));
        assert_eq!(b.len() - a.len(), 3 * 7, "each depth level adds 3 instrs");

        let fpu = intern_spec("sibling-leak:unit=2:bursts=1").unwrap();
        let block = instance_access_block(fpu, &mut StdRng::seed_from_u64(1));
        assert!(
            block.iter().any(|i| matches!(i, Instr::Fp { .. })),
            "fpu unit must emit FP contention ops"
        );
    }

    #[test]
    fn classify_sink_hooks() {
        let z = intern_spec("zenbleed").unwrap();
        assert_eq!(instance_classify_sink(z, "regfile"), Some("regfile-stale"));
        assert_eq!(instance_classify_sink(z, "dcache"), None);
        let s = intern_spec("sibling-leak").unwrap();
        assert_eq!(instance_classify_sink(s, "rob"), Some("sibling-residue"));
        let d = intern_spec("double-fetch").unwrap();
        assert_eq!(instance_classify_sink(d, "regfile"), None);
    }

    #[test]
    fn custom_template_registration_and_id_validation() {
        struct Custom;
        impl ScenarioTemplate for Custom {
            fn family(&self) -> &'static str {
                "custom-probe"
            }
            fn describe(&self) -> &'static str {
                "test-only template"
            }
            fn mechanism(&self, _p: &Params) -> Mechanism {
                Mechanism::MemPageFault
            }
            fn access_block(&self, _p: &Params, _rng: &mut StdRng) -> Vec<Instr> {
                vec![Instr::ld(Reg::S0, Reg::T0, 0)]
            }
        }
        register_template(Arc::new(Custom)).unwrap();
        let i = intern_spec("custom-probe").unwrap();
        assert_eq!(instance_spec(i), "custom-probe");
        assert_eq!(instance_mechanism(i), Mechanism::MemPageFault);

        struct Bad(&'static str);
        impl ScenarioTemplate for Bad {
            fn family(&self) -> &'static str {
                self.0
            }
            fn describe(&self) -> &'static str {
                ""
            }
            fn mechanism(&self, _p: &Params) -> Mechanism {
                Mechanism::IllegalInstr
            }
            fn access_block(&self, _p: &Params, _rng: &mut StdRng) -> Vec<Instr> {
                Vec::new()
            }
        }
        for id in ["", "a:b", "a,b", "a=b", "spaced out"] {
            assert!(
                register_template(Arc::new(Bad(id))).is_err(),
                "id {id:?} must be rejected"
            );
        }
    }

    #[test]
    fn mechanism_order_matches_window_type_all() {
        // The engine maps Mechanism -> WindowType by position; this pins
        // the discriminants to the documented ALL order.
        assert_eq!(Mechanism::MemAccessFault as usize, 0);
        assert_eq!(Mechanism::MemPageFault as usize, 1);
        assert_eq!(Mechanism::MemMisalign as usize, 2);
        assert_eq!(Mechanism::IllegalInstr as usize, 3);
        assert_eq!(Mechanism::MemDisambiguation as usize, 4);
        assert_eq!(Mechanism::BranchMispredict as usize, 5);
        assert_eq!(Mechanism::IndirectMispredict as usize, 6);
        assert_eq!(Mechanism::ReturnMispredict as usize, 7);
    }
}
