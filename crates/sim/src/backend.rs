//! Backend registry for heterogeneous devices.
//!
//! The paper's evaluation is pinned to one device (RTX 3090, §7.1),
//! but its motivation — on-device inference and memory-constrained
//! training (§1) — spans heterogeneous hardware. A [`Backend`] bundles
//! everything the analytic cost model needs to target one device:
//!
//! * a validated [`DeviceSpec`] (peak FLOP/s, bandwidths, capacity,
//!   launch overhead, utilization knee),
//! * an [`EfficiencyTable`]: per-[`OpClass`] achievable fraction of
//!   peak (the cuBLAS/cuDNN-style numbers that used to be hard-coded
//!   in `cost.rs`),
//! * optionally, calibration from measured traces (see
//!   [`crate::calibrate`]), which refits the table and the launch
//!   overhead against `(op signature, measured latency)` pairs.
//!
//! Backends are registered by name in a [`BackendRegistry`] and
//! selected end-to-end via the CLI's `--backend <name>`. The default
//! backend ([`DEFAULT_BACKEND`], `rtx3090`) is bit-identical to the
//! historical hard-coded model: same spec, same efficiency constants,
//! so every latency it produces has the same `f64` bit pattern.
//!
//! Determinism contract: a backend is pure data. Two [`Backend`]
//! values that compare equal produce bit-identical cost models, and a
//! search under any fixed backend stays bit-identical across
//! `--threads` (the optimizer's thread-count contract does not depend
//! on which device the costs came from).

use crate::device::DeviceSpec;
use magis_graph::op::OpKind;
use std::collections::BTreeMap;
use std::fmt;

/// Name of the default backend (the paper's evaluation platform).
pub const DEFAULT_BACKEND: &str = "rtx3090";

/// Coarse operator classes with distinct achievable-efficiency
/// envelopes. Every [`OpKind`] maps onto exactly one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Dense matrix multiplication (cuBLAS-class).
    MatMul,
    /// Batched matrix multiplication (attention scores/values).
    BatchMatMul,
    /// Convolutions and their gradients (cuDNN-class).
    Conv,
    /// Softmax / layer-norm style multi-pass reductions.
    Normalization,
    /// Everything else (elementwise, reductions, data movement).
    Other,
}

impl OpClass {
    /// The class of an operator.
    pub fn of(op: &OpKind) -> OpClass {
        match op {
            OpKind::MatMul { .. } => OpClass::MatMul,
            OpKind::BatchMatMul { .. } => OpClass::BatchMatMul,
            OpKind::Conv2d(_) | OpKind::Conv2dGradInput(_) | OpKind::Conv2dGradWeight(_) => {
                OpClass::Conv
            }
            OpKind::Softmax { .. }
            | OpKind::SoftmaxGrad { .. }
            | OpKind::LayerNorm { .. }
            | OpKind::LayerNormGrad { .. } => OpClass::Normalization,
            _ => OpClass::Other,
        }
    }

    /// All classes, in table order.
    pub fn all() -> [OpClass; 5] {
        [
            OpClass::MatMul,
            OpClass::BatchMatMul,
            OpClass::Conv,
            OpClass::Normalization,
            OpClass::Other,
        ]
    }

    /// Stable lowercase label (used by the calibration trace format).
    pub fn label(&self) -> &'static str {
        match self {
            OpClass::MatMul => "matmul",
            OpClass::BatchMatMul => "batch_matmul",
            OpClass::Conv => "conv",
            OpClass::Normalization => "normalization",
            OpClass::Other => "other",
        }
    }

    /// Inverse of [`Self::label`].
    pub fn parse(s: &str) -> Option<OpClass> {
        OpClass::all().into_iter().find(|c| c.label() == s)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-op-class efficiency relative to peak: the fraction of
/// [`DeviceSpec::peak_flops`] a well-tuned kernel of that class
/// achieves once the utilization knee is saturated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyTable {
    /// [`OpClass::MatMul`] efficiency.
    pub matmul: f64,
    /// [`OpClass::BatchMatMul`] efficiency.
    pub batch_matmul: f64,
    /// [`OpClass::Conv`] efficiency.
    pub conv: f64,
    /// [`OpClass::Normalization`] efficiency.
    pub normalization: f64,
    /// [`OpClass::Other`] efficiency.
    pub other: f64,
}

impl Default for EfficiencyTable {
    /// The historical hard-coded constants (RTX-3090-class library
    /// efficiencies). The default backend must keep these values
    /// bit-for-bit for the reproduction to stay stable.
    fn default() -> Self {
        EfficiencyTable {
            matmul: 0.90,
            batch_matmul: 0.85,
            conv: 0.80,
            normalization: 0.70,
            other: 0.75,
        }
    }
}

impl EfficiencyTable {
    /// Efficiency of a class.
    pub fn get(&self, class: OpClass) -> f64 {
        match class {
            OpClass::MatMul => self.matmul,
            OpClass::BatchMatMul => self.batch_matmul,
            OpClass::Conv => self.conv,
            OpClass::Normalization => self.normalization,
            OpClass::Other => self.other,
        }
    }

    /// Sets the efficiency of a class.
    pub fn set(&mut self, class: OpClass, value: f64) {
        match class {
            OpClass::MatMul => self.matmul = value,
            OpClass::BatchMatMul => self.batch_matmul = value,
            OpClass::Conv => self.conv = value,
            OpClass::Normalization => self.normalization = value,
            OpClass::Other => self.other = value,
        }
    }

    /// Validates every entry: finite and in `(0, 1]`.
    pub fn validate(&self) -> Result<(), SpecError> {
        for class in OpClass::all() {
            let v = self.get(class);
            if !v.is_finite() || v <= 0.0 || v > 1.0 {
                return Err(SpecError::Efficiency { class, value: v });
            }
        }
        Ok(())
    }
}

/// A defective device or backend specification: the typed alternative
/// to letting a zero bandwidth or NaN peak poison every downstream
/// latency. Produced by [`DeviceSpec::validate`] and [`Backend::new`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A numeric field is NaN or infinite.
    NonFinite {
        /// Field name.
        field: &'static str,
        /// The bad value.
        value: f64,
    },
    /// A field that must be strictly positive is zero or negative
    /// (rates, capacities, the utilization knee).
    NonPositive {
        /// Field name.
        field: &'static str,
        /// The bad value.
        value: f64,
    },
    /// The launch overhead is negative (zero is allowed: an idealized
    /// zero-overhead device is meaningful, a negative one is not).
    NegativeOverhead {
        /// The bad value.
        value: f64,
    },
    /// An efficiency entry is outside `(0, 1]` or non-finite.
    Efficiency {
        /// Offending op class.
        class: OpClass,
        /// The bad value.
        value: f64,
    },
    /// The backend name is empty.
    EmptyName,
    /// A backend with this name is already registered.
    DuplicateName {
        /// The colliding name.
        name: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NonFinite { field, value } => {
                write!(f, "device spec field '{field}' is non-finite ({value})")
            }
            SpecError::NonPositive { field, value } => {
                write!(f, "device spec field '{field}' must be > 0, got {value}")
            }
            SpecError::NegativeOverhead { value } => {
                write!(f, "launch overhead must be >= 0, got {value}")
            }
            SpecError::Efficiency { class, value } => {
                write!(f, "efficiency for class '{class}' must be in (0, 1], got {value}")
            }
            SpecError::EmptyName => write!(f, "backend name must be non-empty"),
            SpecError::DuplicateName { name } => {
                write!(f, "a backend named '{name}' is already registered")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A named device target: validated spec + per-op-class efficiencies.
///
/// Construct with [`Backend::new`] (validates) or pick a built-in from
/// [`BackendRegistry::builtin`]. Feed to
/// [`CostModel::for_backend`](crate::CostModel::for_backend) or
/// directly to `EvalContext::for_backend` in `magis-core`.
#[derive(Debug, Clone, PartialEq)]
pub struct Backend {
    name: String,
    device: DeviceSpec,
    eff: EfficiencyTable,
}

impl Default for Backend {
    fn default() -> Self {
        Backend {
            name: DEFAULT_BACKEND.to_string(),
            device: DeviceSpec::rtx3090(),
            eff: EfficiencyTable::default(),
        }
    }
}

impl Backend {
    /// A validated backend. Rejects defective specs, efficiencies, and
    /// empty names with a typed [`SpecError`].
    pub fn new(
        name: impl Into<String>,
        device: DeviceSpec,
        eff: EfficiencyTable,
    ) -> Result<Backend, SpecError> {
        let name = name.into();
        if name.is_empty() {
            return Err(SpecError::EmptyName);
        }
        device.validate()?;
        eff.validate()?;
        Ok(Backend { name, device, eff })
    }

    /// The backend's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The validated device spec.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The per-op-class efficiency table.
    pub fn efficiency(&self) -> &EfficiencyTable {
        &self.eff
    }

    /// Efficiency of the class `op` belongs to (the factor the cost
    /// model multiplies into its utilization term).
    pub fn class_efficiency(&self, op: &OpKind) -> f64 {
        self.eff.get(OpClass::of(op))
    }

    /// A copy refit against a measured trace: per-class efficiencies
    /// and the launch overhead are re-estimated by least squares (see
    /// [`crate::calibrate::fit`]); everything else is inherited.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::calibrate::CalibrationError`] when the trace
    /// is empty or fits a defective spec.
    pub fn calibrated(
        &self,
        name: impl Into<String>,
        samples: &[crate::calibrate::TraceSample],
    ) -> Result<Backend, crate::calibrate::CalibrationError> {
        let fitted = crate::calibrate::fit(self, samples)?;
        let mut device = self.device.clone();
        device.launch_overhead = fitted.launch_overhead;
        Backend::new(name, device, fitted.efficiency)
            .map_err(crate::calibrate::CalibrationError::BadFit)
    }
}

/// Built-in + user-registered backends, keyed by name.
///
/// Iteration order is the `BTreeMap`'s name order — deterministic, so
/// `--backend-list` output and golden tests never depend on insertion
/// order.
#[derive(Debug, Clone, Default)]
pub struct BackendRegistry {
    map: BTreeMap<String, Backend>,
}

impl BackendRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        BackendRegistry::default()
    }

    /// The registry of built-in profiles:
    ///
    /// * `rtx3090` — the paper's platform; bit-identical to the
    ///   historical hard-coded model,
    /// * `a100` — server-class (A100-80GB-like),
    /// * `mobile` — Snapdragon-class edge envelope,
    /// * `tpu` — TPU-like: high on-chip bandwidth, very low launch
    ///   overhead, but a late utilization knee (big systolic array
    ///   wants big kernels).
    pub fn builtin() -> Self {
        let mut r = BackendRegistry::new();
        for (device, eff) in [
            (DeviceSpec::rtx3090(), EfficiencyTable::default()),
            (
                DeviceSpec::a100(),
                EfficiencyTable {
                    matmul: 0.92,
                    batch_matmul: 0.88,
                    conv: 0.82,
                    normalization: 0.72,
                    other: 0.78,
                },
            ),
            (
                DeviceSpec::mobile(),
                EfficiencyTable {
                    matmul: 0.70,
                    batch_matmul: 0.65,
                    conv: 0.60,
                    normalization: 0.55,
                    other: 0.60,
                },
            ),
            (
                DeviceSpec::tpu(),
                EfficiencyTable {
                    matmul: 0.95,
                    batch_matmul: 0.93,
                    conv: 0.85,
                    normalization: 0.60,
                    other: 0.65,
                },
            ),
        ] {
            let b = Backend::new(device.name, device, eff)
                .expect("built-in profiles validate");
            r.register(b).expect("built-in names are unique");
        }
        r
    }

    /// Registers a backend under its name.
    ///
    /// # Errors
    ///
    /// [`SpecError::DuplicateName`] when the name is taken (backends
    /// are immutable once registered; register a recalibrated copy
    /// under a new name instead).
    pub fn register(&mut self, backend: Backend) -> Result<(), SpecError> {
        if self.map.contains_key(backend.name()) {
            return Err(SpecError::DuplicateName { name: backend.name().to_string() });
        }
        self.map.insert(backend.name().to_string(), backend);
        Ok(())
    }

    /// Looks up a backend by name.
    pub fn get(&self, name: &str) -> Option<&Backend> {
        self.map.get(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.map.keys().map(String::as_str).collect()
    }

    /// Registered backends, in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Backend> {
        self.map.values()
    }

    /// Number of registered backends.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no backends are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backend_matches_historical_constants() {
        let b = Backend::default();
        assert_eq!(b.name(), "rtx3090");
        let m = OpKind::MatMul { transpose_a: false, transpose_b: false };
        assert_eq!(b.class_efficiency(&m).to_bits(), 0.90f64.to_bits());
        assert_eq!(b.class_efficiency(&OpKind::Store).to_bits(), 0.75f64.to_bits());
    }

    #[test]
    fn builtin_registry_has_four_validated_profiles() {
        let r = BackendRegistry::builtin();
        assert!(r.len() >= 4);
        for name in ["rtx3090", "a100", "mobile", "tpu"] {
            let b = r.get(name).unwrap_or_else(|| panic!("{name} registered"));
            assert!(b.device().validate().is_ok());
            assert!(b.efficiency().validate().is_ok());
        }
        assert!(r.get(DEFAULT_BACKEND).is_some());
    }

    #[test]
    fn register_rejects_duplicates_and_bad_specs() {
        let mut r = BackendRegistry::builtin();
        let dup = r.get("mobile").unwrap().clone();
        assert!(matches!(r.register(dup), Err(SpecError::DuplicateName { .. })));
        let mut bad = DeviceSpec::rtx3090();
        bad.peak_flops = f64::NAN;
        assert!(matches!(
            Backend::new("x", bad, EfficiencyTable::default()),
            Err(SpecError::NonFinite { field: "peak_flops", .. })
        ));
        assert!(matches!(
            Backend::new("", DeviceSpec::rtx3090(), EfficiencyTable::default()),
            Err(SpecError::EmptyName)
        ));
        let mut eff = EfficiencyTable::default();
        eff.set(OpClass::Conv, 1.5);
        assert!(matches!(
            Backend::new("x", DeviceSpec::rtx3090(), eff),
            Err(SpecError::Efficiency { class: OpClass::Conv, .. })
        ));
    }

    #[test]
    fn op_class_labels_round_trip() {
        for c in OpClass::all() {
            assert_eq!(OpClass::parse(c.label()), Some(c));
        }
        assert_eq!(OpClass::parse("warp_drive"), None);
    }
}
