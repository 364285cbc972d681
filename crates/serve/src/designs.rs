//! The per-design compiled-artifact registry.
//!
//! Building a [`ScpgAnalysis`] is the expensive part of every request:
//! it runs the SCPG netlist transform, two leakage rollups and an STA
//! pass. The registry builds each distinct design **once** and shares the
//! artifact across all subsequent requests and worker threads — the
//! serving-layer continuation of PR 1's "compile once, simulate many"
//! split.
//!
//! Three design families are served: the paper's parameterised
//! multiplier (full analysis surface), a bare inverter chain (cheap
//! target for the Monte-Carlo variation study; it has no flops, so
//! gating queries against it fail admission with a clear error rather
//! than a panic), and user-uploaded netlists referenced by the
//! content-addressed id `POST /v1/netlists` returned.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use scpg::service::QueryLimits;
use scpg::ScpgAnalysis;
use scpg_circuits::generate_multiplier;
use scpg_jobs::{LibraryRegistry, NetlistRegistry, UploadedLibrary, UploadedNetlist};
use scpg_liberty::{CellKind, EvalBackend, Library, PvtCorner};
use scpg_netlist::Netlist;
use scpg_sim::CompiledNetlist;
use scpg_technique::{PrepareContext, ResolvedParams, Technique, TechniqueError, TechniqueModel};
use scpg_trace::{Bounded, Introspect, StoreCounters, StoreStats};
use scpg_units::{Energy, Voltage};

/// Which circuit a request targets.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignKind {
    /// The paper's n×n array multiplier.
    Multiplier {
        /// Operand width in bits.
        bits: usize,
    },
    /// An inverter chain (variation-study demo target).
    Chain {
        /// Number of inverters.
        length: usize,
    },
    /// A user-uploaded netlist, referenced by its content-addressed id.
    Netlist {
        /// The id `POST /v1/netlists` returned.
        id: String,
    },
}

/// A fully specified design request: circuit, workload energy, supply,
/// and the cell library + evaluation backend it is analysed under.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpec {
    /// The circuit.
    pub kind: DesignKind,
    /// Workload dynamic energy per cycle at the characterisation supply.
    pub e_dyn: Energy,
    /// Operating supply voltage.
    pub vdd: Voltage,
    /// Uploaded-library id from `POST /v1/libraries`, or `None` for the
    /// built-in 90 nm kit.
    pub library: Option<String>,
    /// Which physics backend cells evaluate through (`analytical` is the
    /// closed-form kit; `table` is NLDM lookup with analytical fallback).
    pub backend: EvalBackend,
}

impl DesignSpec {
    /// The default served design: the paper's 16×16 multiplier with its
    /// calibrated 2.3 pJ/cycle workload at the 0.6 V corner.
    pub fn default_multiplier() -> Self {
        Self {
            kind: DesignKind::Multiplier { bits: 16 },
            e_dyn: Energy::from_pj(2.3),
            vdd: PvtCorner::default().voltage,
            library: None,
            backend: EvalBackend::Analytical,
        }
    }

    /// A chain spec with the default demo workload energy (12 fJ, the
    /// figure the variation unit tests calibrate against).
    pub fn chain(length: usize) -> Self {
        Self {
            kind: DesignKind::Chain { length },
            e_dyn: Energy::from_fj(12.0),
            ..Self::default_multiplier()
        }
    }

    /// A netlist-backed spec with the default workload energy and supply
    /// (override via the request's `e_dyn_pj` / `vdd_mv`).
    pub fn netlist(id: impl Into<String>) -> Self {
        Self {
            kind: DesignKind::Netlist { id: id.into() },
            ..Self::default_multiplier()
        }
    }

    /// The registry/cache key. Uses shortest-round-trip float formatting,
    /// so specs equal as values collide as keys.
    pub fn key(&self) -> String {
        let ident = match &self.kind {
            DesignKind::Multiplier { bits } => format!("multiplier:{bits}"),
            DesignKind::Chain { length } => format!("chain:{length}"),
            DesignKind::Netlist { id } => format!("netlist:{id}"),
        };
        let lib = match &self.library {
            Some(id) => format!("upl:{id}"),
            None => "builtin".to_string(),
        };
        format!(
            "{ident}:e={}:v={}:lib={lib}:be={}",
            self.e_dyn.value(),
            self.vdd.value(),
            self.backend.as_str()
        )
    }

    /// Admission check against the service limits.
    ///
    /// # Errors
    ///
    /// A human-readable refusal (maps to `422`).
    pub fn validate(&self, limits: &QueryLimits) -> Result<(), String> {
        match &self.kind {
            DesignKind::Multiplier { bits } => {
                if *bits == 0 || *bits > limits.max_multiplier_bits {
                    return Err(format!(
                        "multiplier bits {bits} outside 1..={}",
                        limits.max_multiplier_bits
                    ));
                }
            }
            DesignKind::Chain { length } => {
                if *length == 0 || *length > limits.max_chain_length {
                    return Err(format!(
                        "chain length {length} outside 1..={}",
                        limits.max_chain_length
                    ));
                }
            }
            DesignKind::Netlist { id } => {
                // Ids are 40 hex chars; a ceiling plus a charset check
                // keeps hostile ids out of registry keys and log lines.
                if id.is_empty() || id.len() > 64 || !id.bytes().all(|b| b.is_ascii_alphanumeric())
                {
                    return Err("design.id must be a netlist id from POST /v1/netlists".to_string());
                }
            }
        }
        if let Some(id) = &self.library {
            // Same hygiene rule as netlist ids: 40 hex chars in practice,
            // bounded + charset-checked so hostile ids stay out of
            // registry keys and log lines.
            if id.is_empty() || id.len() > 64 || !id.bytes().all(|b| b.is_ascii_alphanumeric()) {
                return Err(
                    "design.library.id must be a library id from POST /v1/libraries".to_string(),
                );
            }
        }
        if !self.e_dyn.value().is_finite() || self.e_dyn.value() <= 0.0 {
            return Err(format!(
                "workload energy {} J must be finite and positive",
                self.e_dyn.value()
            ));
        }
        if !(0.1..=2.0).contains(&self.vdd.as_v()) {
            return Err(format!(
                "supply {} V outside the modelled 0.1..=2.0 V band",
                self.vdd.as_v()
            ));
        }
        Ok(())
    }
}

/// A built design: netlist now, analysis lazily on first gating query.
pub struct DesignArtifact {
    /// The spec this artifact was built from.
    pub spec: DesignSpec,
    /// The technology library (per-artifact so threshold-shifted studies
    /// cannot alias).
    pub lib: Library,
    /// The baseline (pre-SCPG) netlist.
    pub baseline: Netlist,
    /// The clock net the SCPG transform gates on (`"clk"` for the
    /// built-in designs; whatever the upload declared for netlists).
    pub clock: String,
    analysis: OnceLock<Result<Arc<ScpgAnalysis>, String>>,
    compiled: OnceLock<Result<Arc<CompiledNetlist>, String>>,
    /// Prepared technique models, each built once per (technique,
    /// params) outside the store lock, counted into the registry-wide
    /// set so `/v1/status` reports one aggregated row.
    techniques: Bounded<Arc<OnceLock<Prepared>>>,
}

/// A technique's prepared model for one design, or why it has none.
type Prepared = Result<Arc<dyn TechniqueModel>, TechniqueError>;

impl DesignArtifact {
    fn build(
        spec: &DesignSpec,
        uploaded: Option<Arc<UploadedNetlist>>,
        library: Option<Arc<UploadedLibrary>>,
        technique_counters: Arc<StoreCounters>,
    ) -> Self {
        let mut lib = match &library {
            Some(up) => up.library.clone(),
            None => Library::ninety_nm(),
        };
        if spec.backend != EvalBackend::Analytical {
            lib = lib.with_backend(spec.backend);
        }
        let (baseline, clock) = match &spec.kind {
            DesignKind::Multiplier { bits } => {
                (generate_multiplier(&lib, *bits).0, "clk".to_string())
            }
            DesignKind::Chain { length } => (build_chain(*length), "clk".to_string()),
            DesignKind::Netlist { .. } => {
                let up = uploaded.expect("netlist specs are resolved before build");
                (up.netlist.clone(), up.clock.clone())
            }
        };
        Self {
            spec: spec.clone(),
            lib,
            baseline,
            clock,
            analysis: OnceLock::new(),
            compiled: OnceLock::new(),
            techniques: Bounded::new(1, Self::MAX_TECHNIQUE_MODELS).sharing(technique_counters),
        }
    }

    /// Cap on prepared technique models resident per artifact. Each model
    /// owns a transformed netlist plus its analysis rollups, and the
    /// param space (clusters × headers × stages × shifts) is large enough
    /// that an unbounded map would let a client iterating params grow
    /// memory without limit.
    pub const MAX_TECHNIQUE_MODELS: usize = 8;

    /// The prepared model for `(technique, params)` on this design,
    /// keyed by the technique name plus the canonical parameter string so
    /// repeated compares **never re-run the transform/analysis pipeline**.
    /// At capacity the least-recently-used model is evicted (in-flight
    /// holders keep their `Arc`; an evicted model re-prepares on next
    /// use). Prepare failures are cached like successes — retrying an
    /// `Unsupported` design cannot get cheaper by repetition.
    ///
    /// # Errors
    ///
    /// The (cached) [`TechniqueError`] from `prepare`.
    pub fn technique_model(
        &self,
        technique: &dyn Technique,
        params: &ResolvedParams,
    ) -> Result<Arc<dyn TechniqueModel>, TechniqueError> {
        let key = format!("{}:{}", technique.name(), params.canonical());
        self.techniques.get_or_build(&key, || {
            let ctx = PrepareContext {
                lib: &self.lib,
                baseline: &self.baseline,
                clock: &self.clock,
                e_dyn: self.spec.e_dyn,
                corner: PvtCorner::at_voltage(self.spec.vdd),
            };
            technique.prepare(&ctx, params)
        })
    }

    /// Distinct technique models resident on this artifact right now.
    pub fn technique_models_len(&self) -> usize {
        self.techniques.len()
    }

    /// The shared analysis engine, built exactly once per artifact.
    ///
    /// # Errors
    ///
    /// The (cached) build failure — e.g. a chain has nothing to gate.
    pub fn analysis(&self) -> Result<Arc<ScpgAnalysis>, String> {
        self.analysis
            .get_or_init(|| {
                scpg::service::netlist_analysis(
                    &self.lib,
                    &self.baseline,
                    &self.clock,
                    self.spec.e_dyn,
                    PvtCorner::at_voltage(self.spec.vdd),
                )
                .map(Arc::new)
            })
            .clone()
    }

    /// The simulation-ready compilation of the **baseline** netlist at the
    /// spec's supply, built exactly once per artifact and shared by every
    /// activity-extraction request (which in turn shares the levelization
    /// the bit-parallel engine caches inside it).
    ///
    /// # Errors
    ///
    /// The (cached) compile failure, e.g. an upload that no longer
    /// resolves against the library.
    pub fn compiled(&self) -> Result<Arc<CompiledNetlist>, String> {
        self.compiled
            .get_or_init(|| {
                CompiledNetlist::compile(
                    &self.baseline,
                    &self.lib,
                    PvtCorner::at_voltage(self.spec.vdd),
                )
                .map(Arc::new)
                .map_err(|e| format!("compile failed: {e}"))
            })
            .clone()
    }
}

/// Refuses an uploaded library that cannot host the requested design.
///
/// The multiplier generator picks cells by *kind* and panics on a gap;
/// the chain and uploaded netlists reference cells by *name*. Checking
/// here (before a registry slot exists) turns both failure shapes into a
/// clean 422 instead of a worker panic or a poisoned cache entry.
fn check_library_coverage(
    lib: &Library,
    kind: &DesignKind,
    uploaded: Option<&UploadedNetlist>,
) -> Result<(), String> {
    match kind {
        DesignKind::Multiplier { .. } => {
            const NEEDED: [CellKind; 12] = [
                CellKind::TieHi,
                CellKind::TieLo,
                CellKind::Buf,
                CellKind::Inv,
                CellKind::And2,
                CellKind::Or2,
                CellKind::Xor2,
                CellKind::Mux2,
                CellKind::HalfAdder,
                CellKind::FullAdder,
                CellKind::Dff,
                CellKind::DffR,
            ];
            for needed in NEEDED {
                if lib.cell_of_kind(needed).is_none() {
                    return Err(format!(
                        "library `{}` lacks a {needed:?} cell; the multiplier generator needs one",
                        lib.name()
                    ));
                }
            }
        }
        DesignKind::Chain { .. } => {
            if lib.cell("INV_X1").is_none() {
                return Err(format!(
                    "library `{}` lacks the `INV_X1` cell the chain design instantiates",
                    lib.name()
                ));
            }
        }
        DesignKind::Netlist { .. } => {
            let up = uploaded.expect("netlist specs are resolved before the library check");
            if let Some(inst) = up
                .netlist
                .instances()
                .iter()
                .find(|inst| lib.cell(inst.cell()).is_none())
            {
                return Err(format!(
                    "library `{}` lacks cell `{}` used by instance `{}` of netlist {}",
                    lib.name(),
                    inst.cell(),
                    inst.name(),
                    up.id
                ));
            }
        }
    }
    Ok(())
}

fn build_chain(length: usize) -> Netlist {
    let mut nl = Netlist::new(format!("chain{length}"));
    let mut cur = nl.add_input("a");
    for i in 0..length {
        let next = if i + 1 == length {
            nl.add_output("y")
        } else {
            nl.add_fresh_net()
        };
        nl.add_instance(format!("u{i}"), "INV_X1", &[cur, next])
            .expect("inverter chain builds");
        cur = next;
    }
    nl
}

/// The shared registry: design key → built artifact, LRU-bounded.
///
/// Every `e_dyn`/`vdd` float that passes validation is a distinct key, so
/// an unbounded map would let a client iterating arbitrary values grow
/// memory without limit. At capacity the least-recently-used design is
/// evicted; in-flight requests keep their `Arc` and an evicted design
/// simply rebuilds on next use.
pub struct DesignRegistry {
    designs: Bounded<Arc<OnceLock<Arc<DesignArtifact>>>>,
    technique_counters: Arc<StoreCounters>,
}

/// Nominal resident bytes per netlist instance: an artifact (and each of
/// its technique models) is dominated by a netlist plus analysis rollups
/// of the same order, so gate count is the honest scale factor.
const BYTES_PER_INSTANCE: usize = 256;

impl Default for DesignRegistry {
    fn default() -> Self {
        Self::with_capacity(Self::MAX_DESIGNS)
    }
}

impl DesignRegistry {
    /// Default cap on distinct resident designs. Sized so a full registry
    /// of the largest admissible multipliers stays tens of megabytes.
    pub const MAX_DESIGNS: usize = 32;

    /// A fresh, empty registry with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry holding at most `max_designs` built designs (clamped
    /// to 1).
    pub fn with_capacity(max_designs: usize) -> Self {
        Self {
            // One shard: the victim is the registry-wide LRU design. The
            // byte estimate is gate-count based, which tracks residency
            // closely enough to tell a registry full of 64-bit
            // multipliers from one of inverter chains.
            designs: Bounded::new(1, max_designs).named("design_registry", |key, slot| {
                key.len()
                    + slot
                        .get()
                        .map_or(0, |a| a.baseline.instances().len() * BYTES_PER_INSTANCE)
            }),
            technique_counters: Arc::new(StoreCounters::new()),
        }
    }

    /// The artifact for a spec, building it on first use. The registry
    /// lock is only held to find/insert the slot; the expensive build
    /// runs outside it behind the slot's own `OnceLock`, so only
    /// concurrent requests for the *same* design wait on each other.
    ///
    /// Netlist-backed specs resolve their upload through `netlists`, and
    /// library-backed specs through `libraries`, *before* a slot is
    /// created, so an unknown id is a clean error and never poisons the
    /// registry. An uploaded library is also coverage-checked here — the
    /// circuit generators panic on a missing cell kind, so a library
    /// that cannot build the requested design must be refused up front.
    ///
    /// # Errors
    ///
    /// Netlist/library spec with no registry configured, an unknown id,
    /// or a library lacking cells the design needs (maps to `422`).
    pub fn get(
        &self,
        spec: &DesignSpec,
        netlists: Option<&NetlistRegistry>,
        libraries: Option<&LibraryRegistry>,
    ) -> Result<Arc<DesignArtifact>, String> {
        let uploaded = match &spec.kind {
            DesignKind::Netlist { id } => {
                let registry = netlists.ok_or("netlist designs are not enabled on this server")?;
                Some(registry.get(id).ok_or_else(|| {
                    format!("unknown netlist id {id:?}; upload it via POST /v1/netlists first")
                })?)
            }
            _ => None,
        };
        let library = match &spec.library {
            Some(id) => {
                let registry =
                    libraries.ok_or("uploaded libraries are not enabled on this server")?;
                let up = registry.get(id).ok_or_else(|| {
                    format!("unknown library id {id:?}; upload it via POST /v1/libraries first")
                })?;
                check_library_coverage(&up.library, &spec.kind, uploaded.as_deref())?;
                Some(up)
            }
            None => None,
        };
        Ok(self.designs.get_or_build(&spec.key(), || {
            Arc::new(DesignArtifact::build(
                spec,
                uploaded,
                library,
                Arc::clone(&self.technique_counters),
            ))
        }))
    }

    /// Distinct designs resident right now.
    pub fn len(&self) -> usize {
        self.designs.len()
    }

    /// `true` when nothing has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every built artifact currently resident (slots still building —
    /// their `OnceLock` unset — are skipped).
    fn built_artifacts(&self) -> Vec<Arc<DesignArtifact>> {
        self.designs
            .values()
            .iter()
            .filter_map(|slot| slot.get().cloned())
            .collect()
    }
}

impl Introspect for DesignRegistry {
    fn stats(&self) -> StoreStats {
        self.designs.stats()
    }
}

/// [`Introspect`] view over the per-artifact technique-model LRUs,
/// aggregated across every resident design — the bake-off's prepared
/// models (scpg/ddcg/ctsg × params) as one row.
pub struct TechniqueModelStores(pub Arc<DesignRegistry>);

impl Introspect for TechniqueModelStores {
    fn stats(&self) -> StoreStats {
        let artifacts = self.0.built_artifacts();
        let counters = &self.0.technique_counters;
        StoreStats {
            name: "technique_models",
            entries: artifacts.iter().map(|a| a.technique_models_len()).sum(),
            // Per-artifact cap × the design ceiling: the most models that
            // can ever be resident at once.
            capacity: self.0.designs.capacity() * DesignArtifact::MAX_TECHNIQUE_MODELS,
            bytes_estimate: artifacts
                .iter()
                .map(|a| {
                    a.technique_models_len() * a.baseline.instances().len() * BYTES_PER_INSTANCE
                })
                .sum(),
            hits: counters.hits.load(Ordering::Relaxed),
            misses: counters.misses.load(Ordering::Relaxed),
            evictions: counters.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_shares_one_artifact_per_spec() {
        let reg = DesignRegistry::new();
        let spec = DesignSpec {
            kind: DesignKind::Multiplier { bits: 4 },
            ..DesignSpec::default_multiplier()
        };
        let a = reg.get(&spec, None, None).unwrap();
        let b = reg.get(&spec, None, None).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same spec, same artifact");
        assert_eq!(reg.len(), 1);
        let c = reg.get(&DesignSpec::chain(8), None, None).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn multiplier_analysis_builds_once_and_is_shared() {
        let reg = DesignRegistry::new();
        let art = reg
            .get(
                &DesignSpec {
                    kind: DesignKind::Multiplier { bits: 4 },
                    ..DesignSpec::default_multiplier()
                },
                None,
                None,
            )
            .unwrap();
        let a = art.analysis().expect("multiplier gates");
        let b = art.analysis().expect("cached");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn chain_analysis_fails_gracefully() {
        let reg = DesignRegistry::new();
        let art = reg.get(&DesignSpec::chain(8), None, None).unwrap();
        let err = art.analysis().expect_err("no flops to gate");
        assert!(err.contains("transform failed"), "{err}");
        // And the failure is cached, not re-attempted forever.
        assert_eq!(art.analysis().expect_err("still cached"), err);
    }

    #[test]
    fn registry_evicts_least_recently_used_at_capacity() {
        let reg = DesignRegistry::with_capacity(2);
        let one = reg.get(&DesignSpec::chain(1), None, None).unwrap();
        let two = reg.get(&DesignSpec::chain(2), None, None).unwrap();
        assert_eq!(reg.len(), 2);
        // Touch 1 so 2 becomes the LRU victim.
        let _ = reg.get(&DesignSpec::chain(1), None, None).unwrap();
        let _three = reg.get(&DesignSpec::chain(3), None, None).unwrap();
        assert_eq!(reg.len(), 2, "capacity holds under churn");
        let one_again = reg.get(&DesignSpec::chain(1), None, None).unwrap();
        assert!(
            Arc::ptr_eq(&one, &one_again),
            "recently used design survived"
        );
        let two_again = reg.get(&DesignSpec::chain(2), None, None).unwrap();
        assert!(
            !Arc::ptr_eq(&two, &two_again),
            "evicted design rebuilds fresh"
        );
        // The evicted artifact stayed usable for its in-flight holders.
        assert_eq!(two.spec.kind, DesignKind::Chain { length: 2 });
    }

    #[test]
    fn technique_models_cache_by_params_and_evict_lru() {
        let reg = DesignRegistry::new();
        let art = reg
            .get(
                &DesignSpec {
                    kind: DesignKind::Multiplier { bits: 4 },
                    ..DesignSpec::default_multiplier()
                },
                None,
                None,
            )
            .unwrap();
        let tech = scpg_technique::LectorTechnique;
        let params_for = |mv: i64| {
            let body = scpg_json::Json::parse(&format!(r#"{{"vt_shift_mv": {mv}}}"#)).unwrap();
            scpg_technique::resolve_params(scpg_technique::Technique::params(&tech), Some(&body))
                .unwrap()
        };
        let first = art.technique_model(&tech, &params_for(10)).unwrap();
        let again = art.technique_model(&tech, &params_for(10)).unwrap();
        assert!(
            Arc::ptr_eq(&first, &again),
            "repeated compares reuse the prepared model, no recompile"
        );
        assert_eq!(art.technique_models_len(), 1);

        // Fill to capacity with distinct params (distinct cache keys).
        let mut filled = Vec::new();
        for i in 1..DesignArtifact::MAX_TECHNIQUE_MODELS {
            filled.push(
                art.technique_model(&tech, &params_for(10 + i as i64))
                    .unwrap(),
            );
        }
        assert_eq!(
            art.technique_models_len(),
            DesignArtifact::MAX_TECHNIQUE_MODELS
        );
        // Touch the first entry so the second becomes the LRU victim,
        // then overflow by one.
        let _ = art.technique_model(&tech, &params_for(10)).unwrap();
        let _ = art.technique_model(&tech, &params_for(99)).unwrap();
        assert_eq!(
            art.technique_models_len(),
            DesignArtifact::MAX_TECHNIQUE_MODELS,
            "capacity holds under churn"
        );
        let first_again = art.technique_model(&tech, &params_for(10)).unwrap();
        assert!(
            Arc::ptr_eq(&first, &first_again),
            "recently used model survived the eviction"
        );
        let victim_again = art.technique_model(&tech, &params_for(11)).unwrap();
        assert!(
            !Arc::ptr_eq(&filled[0], &victim_again),
            "evicted model re-prepares fresh"
        );
    }

    #[test]
    fn netlist_specs_resolve_through_the_upload_registry() {
        let source = "\
module toy (clk, a, y);
  input clk;
  input a;
  output y;
  wire q;
  DFF_X1 r0 (.D(a), .CK(clk), .Q(q));
  INV_X1 g0 (.A(q), .Y(y));
endmodule
";
        let uploads = NetlistRegistry::open(
            Arc::new(scpg_jobs::Store::memory()),
            Library::ninety_nm(),
            scpg_jobs::NetlistLimits::default(),
        );
        let (entry, _) = uploads.upload(source, "clk").unwrap();
        let reg = DesignRegistry::new();

        // No registry configured / unknown id: clean errors, no slot.
        let spec = DesignSpec::netlist(entry.id.clone());
        assert!(reg.get(&spec, None, None).is_err());
        let unknown = DesignSpec::netlist("deadbeef");
        let err = reg
            .get(&unknown, Some(&uploads), None)
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("unknown netlist id"), "{err}");
        assert_eq!(reg.len(), 0, "failed resolutions must not be cached");

        let art = reg.get(&spec, Some(&uploads), None).unwrap();
        assert_eq!(art.clock, "clk");
        assert_eq!(art.baseline.instances().len(), 2);
        art.analysis().expect("uploaded design gates");
        let again = reg.get(&spec, Some(&uploads), None).unwrap();
        assert!(Arc::ptr_eq(&art, &again), "artifact is shared");
    }

    #[test]
    fn library_specs_resolve_through_the_upload_registry() {
        let libraries = LibraryRegistry::open(
            Arc::new(scpg_jobs::Store::memory()),
            scpg_jobs::LibraryLimits::default(),
        );
        let source = scpg_liberty::write_liberty(&Library::ninety_nm());
        let (entry, _) = libraries.upload(&source).unwrap();
        let reg = DesignRegistry::new();
        let spec = DesignSpec {
            kind: DesignKind::Multiplier { bits: 4 },
            library: Some(entry.id.clone()),
            backend: EvalBackend::Table,
            ..DesignSpec::default_multiplier()
        };

        // No registry configured / unknown id: clean errors, no slot.
        assert!(reg.get(&spec, None, None).is_err());
        let unknown = DesignSpec {
            library: Some("deadbeef".to_string()),
            ..spec.clone()
        };
        let err = reg
            .get(&unknown, None, Some(&libraries))
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("unknown library id"), "{err}");
        assert_eq!(reg.len(), 0, "failed resolutions must not be cached");

        let art = reg.get(&spec, None, Some(&libraries)).unwrap();
        assert_eq!(art.lib.name(), entry.name);
        art.analysis().expect("uploaded library hosts the design");
        // Same circuit under the builtin kit is a distinct artifact.
        let builtin = reg
            .get(
                &DesignSpec {
                    kind: DesignKind::Multiplier { bits: 4 },
                    ..DesignSpec::default_multiplier()
                },
                None,
                None,
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&art, &builtin));
    }

    #[test]
    fn incomplete_libraries_are_refused_before_the_generator_runs() {
        let libraries = LibraryRegistry::open(
            Arc::new(scpg_jobs::Store::memory()),
            scpg_jobs::LibraryLimits::default(),
        );
        // A syntactically fine library with a single inverter: enough for
        // nothing the multiplier generator needs.
        let source = "\
library (tiny) {
  cell (INV_X9) {
    area : 1;
    pin (A) { direction : input; capacitance : 0.001; }
    pin (Y) { direction : output; }
  }
}
";
        let (entry, _) = libraries.upload(source).unwrap();
        let reg = DesignRegistry::new();
        let spec = DesignSpec {
            kind: DesignKind::Multiplier { bits: 4 },
            library: Some(entry.id.clone()),
            ..DesignSpec::default_multiplier()
        };
        let err = reg
            .get(&spec, None, Some(&libraries))
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("lacks a"), "{err}");
        // The chain wants INV_X1 by name, which this library also lacks.
        let chain = DesignSpec {
            library: Some(entry.id.clone()),
            ..DesignSpec::chain(4)
        };
        let err = reg
            .get(&chain, None, Some(&libraries))
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("INV_X1"), "{err}");
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn spec_validation_enforces_limits() {
        let limits = QueryLimits::default();
        assert!(DesignSpec::default_multiplier().validate(&limits).is_ok());
        let huge = DesignSpec {
            kind: DesignKind::Multiplier { bits: 99 },
            ..DesignSpec::default_multiplier()
        };
        assert!(huge.validate(&limits).is_err());
        let zero = DesignSpec {
            kind: DesignKind::Chain { length: 0 },
            ..DesignSpec::chain(1)
        };
        assert!(zero.validate(&limits).is_err());
        let bad_e = DesignSpec {
            e_dyn: Energy::new(-1.0),
            ..DesignSpec::default_multiplier()
        };
        assert!(bad_e.validate(&limits).is_err());
        let bad_v = DesignSpec {
            vdd: Voltage::from_v(5.0),
            ..DesignSpec::default_multiplier()
        };
        assert!(bad_v.validate(&limits).is_err());
    }

    #[test]
    fn keys_distinguish_every_spec_dimension() {
        let base = DesignSpec::default_multiplier();
        let other_e = DesignSpec {
            e_dyn: Energy::from_pj(1.0),
            ..base.clone()
        };
        let other_v = DesignSpec {
            vdd: Voltage::from_mv(500.0),
            ..base.clone()
        };
        let keys = [base.key(), other_e.key(), other_v.key()];
        assert_eq!(
            keys.iter().collect::<std::collections::HashSet<_>>().len(),
            3,
            "{keys:?}"
        );
    }
}
