//! The four runtime configurations (paper Section IV) and the run
//! environment that selects between them.

use crate::modes::{ModeParseError, Tokens};
use apu_mem::XnackMode;
use std::fmt;

/// How the OpenMP runtime implements data environments. All four are
/// semantically equivalent under the OpenMP data model; they differ in
/// storage operations and page-table population policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeConfig {
    /// "Legacy" Copy: `map` performs device-pool allocations and
    /// HBM-to-HBM copies, exactly as on a discrete GPU. Globals have a
    /// per-device copy. Runs with XNACK disabled.
    LegacyCopy,
    /// `#pragma omp requires unified_shared_memory`: no storage operations;
    /// kernels receive host pointers; globals are accessed through double
    /// indirection into host memory. Requires XNACK.
    UnifiedSharedMemory,
    /// Implicit Zero-Copy: the runtime detects APU + XNACK and toggles the
    /// zero-copy behaviour for applications *not* built with the
    /// `unified_shared_memory` requirement. Globals are handled as in Copy
    /// (system-to-system transfers keep per-device copies consistent).
    ImplicitZeroCopy,
    /// Eager Maps: zero-copy data handling, but every `map` triggers a
    /// host-side GPU page-table prefault syscall, so kernels never fault —
    /// XNACK support is not required.
    EagerMaps,
}

impl RuntimeConfig {
    /// Machine tokens of the CLI, the `PROTO v1` wire format and the
    /// canonical sweep-request encoding, in the paper's table order; not
    /// the human-facing [`label`](Self::label).
    pub const TOKENS: Tokens<RuntimeConfig, 4> = Tokens {
        what: "config",
        table: [
            (RuntimeConfig::LegacyCopy, "copy"),
            (RuntimeConfig::UnifiedSharedMemory, "usm"),
            (RuntimeConfig::ImplicitZeroCopy, "izc"),
            (RuntimeConfig::EagerMaps, "eager"),
        ],
    };

    /// CLI aliases that parse but never print.
    const ALIASES: [(RuntimeConfig, &'static str); 2] = [
        (RuntimeConfig::ImplicitZeroCopy, "implicit"),
        (RuntimeConfig::EagerMaps, "em"),
    ];

    /// All configurations, in the order the paper's tables list them.
    pub const ALL: [RuntimeConfig; 4] = Self::TOKENS.values();

    /// The three zero-copy configurations compared against Copy.
    pub const ZERO_COPY: [RuntimeConfig; 3] = [
        RuntimeConfig::ImplicitZeroCopy,
        RuntimeConfig::UnifiedSharedMemory,
        RuntimeConfig::EagerMaps,
    ];

    /// Does `map` fold storage operations (no device alloc, no copies)?
    pub fn is_zero_copy(self) -> bool {
        !matches!(self, RuntimeConfig::LegacyCopy)
    }

    /// XNACK state the configuration runs with. Implicit Zero-Copy and USM
    /// rely on demand faulting; Copy and Eager Maps run with XNACK disabled
    /// (pool allocations / prefaults populate the GPU page table eagerly).
    pub fn xnack(self) -> XnackMode {
        match self {
            RuntimeConfig::UnifiedSharedMemory | RuntimeConfig::ImplicitZeroCopy => {
                XnackMode::Enabled
            }
            RuntimeConfig::LegacyCopy | RuntimeConfig::EagerMaps => XnackMode::Disabled,
        }
    }

    /// Does every map trigger a host-side GPU page-table prefault?
    pub fn prefaults_on_map(self) -> bool {
        matches!(self, RuntimeConfig::EagerMaps)
    }

    /// Are declare-target globals kept as per-device copies synchronized by
    /// transfers (Copy semantics)? USM instead uses double indirection into
    /// the host global.
    pub fn globals_as_copy(self) -> bool {
        !matches!(self, RuntimeConfig::UnifiedSharedMemory)
    }

    /// Short label used in tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeConfig::LegacyCopy => "Copy",
            RuntimeConfig::UnifiedSharedMemory => "USM",
            RuntimeConfig::ImplicitZeroCopy => "Implicit Z-C",
            RuntimeConfig::EagerMaps => "Eager Maps",
        }
    }

    /// Stable machine token; round-trips through
    /// [`FromStr`](std::str::FromStr).
    pub fn token(self) -> &'static str {
        Self::TOKENS.token(self)
    }
}

impl std::str::FromStr for RuntimeConfig {
    type Err = ModeParseError;

    /// Parse a config token, case-insensitively, accepting the CLI aliases
    /// `implicit` (for `izc`) and `em` (for `eager`). Canonical printing is
    /// always [`token`](RuntimeConfig::token).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.to_lowercase();
        match Self::ALIASES.iter().find(|(_, a)| *a == s) {
            Some(&(config, _)) => Ok(config),
            None => Self::TOKENS.parse(&s),
        }
    }
}

impl fmt::Display for RuntimeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The deployment environment, mirroring the knobs the real stack reads:
/// whether the device is an APU, `HSA_XNACK`, `OMPX_APU_MAPS`,
/// `OMPX_EAGER_ZERO_COPY_MAPS`, and whether the application was compiled
/// with `#pragma omp requires unified_shared_memory`.
#[derive(Debug, Clone, Copy)]
pub struct RunEnv {
    /// Device is an APU (MI300A): CPU and GPU share physical storage.
    pub is_apu: bool,
    /// `HSA_XNACK=1` — Unified Memory support enabled.
    pub hsa_xnack: bool,
    /// `OMPX_APU_MAPS=1` — opt into implicit zero-copy even on discrete
    /// GPUs (with XNACK enabled).
    pub ompx_apu_maps: bool,
    /// `OMPX_EAGER_ZERO_COPY_MAPS=1` — select the Eager Maps configuration.
    pub eager_maps: bool,
    /// Application compiled with `requires unified_shared_memory`.
    pub requires_usm: bool,
}

impl RunEnv {
    /// An MI300A node with XNACK enabled and no overrides.
    pub fn mi300a() -> Self {
        RunEnv {
            is_apu: true,
            hsa_xnack: true,
            ompx_apu_maps: false,
            eager_maps: false,
            requires_usm: false,
        }
    }

    /// Resolve the runtime configuration the stack would pick, following
    /// the paper's Section IV:
    ///
    /// 1. `requires unified_shared_memory` (needs XNACK) → USM.
    /// 2. Eager Maps opt-in → Eager Maps (works without XNACK).
    /// 3. APU with XNACK, or `OMPX_APU_MAPS` with XNACK → Implicit Z-C.
    /// 4. Otherwise → Legacy Copy.
    ///
    /// Returns `None` for an impossible deployment (USM binary without
    /// Unified Memory support): such applications "can only be deployed on
    /// GPUs that support Unified Memory".
    pub fn resolve(self) -> Option<RuntimeConfig> {
        if self.requires_usm {
            return if self.hsa_xnack {
                Some(RuntimeConfig::UnifiedSharedMemory)
            } else {
                None
            };
        }
        if self.eager_maps && self.is_apu {
            return Some(RuntimeConfig::EagerMaps);
        }
        if self.hsa_xnack && (self.is_apu || self.ompx_apu_maps) {
            return Some(RuntimeConfig::ImplicitZeroCopy);
        }
        Some(RuntimeConfig::LegacyCopy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mi300a_resolves_to_implicit_zero_copy() {
        assert_eq!(
            RunEnv::mi300a().resolve(),
            Some(RuntimeConfig::ImplicitZeroCopy)
        );
    }

    #[test]
    fn usm_requires_xnack() {
        let mut env = RunEnv::mi300a();
        env.requires_usm = true;
        assert_eq!(env.resolve(), Some(RuntimeConfig::UnifiedSharedMemory));
        env.hsa_xnack = false;
        assert_eq!(env.resolve(), None);
    }

    #[test]
    fn xnack_off_apu_falls_back_to_copy_unless_eager() {
        let mut env = RunEnv::mi300a();
        env.hsa_xnack = false;
        assert_eq!(env.resolve(), Some(RuntimeConfig::LegacyCopy));
        env.eager_maps = true;
        assert_eq!(env.resolve(), Some(RuntimeConfig::EagerMaps));
    }

    #[test]
    fn discrete_gpu_needs_opt_in_for_zero_copy() {
        let env = RunEnv {
            is_apu: false,
            hsa_xnack: true,
            ompx_apu_maps: false,
            eager_maps: false,
            requires_usm: false,
        };
        assert_eq!(env.resolve(), Some(RuntimeConfig::LegacyCopy));
        let opted = RunEnv {
            ompx_apu_maps: true,
            ..env
        };
        assert_eq!(opted.resolve(), Some(RuntimeConfig::ImplicitZeroCopy));
    }

    #[test]
    fn config_properties_match_paper() {
        use RuntimeConfig::*;
        assert!(!LegacyCopy.is_zero_copy());
        for c in RuntimeConfig::ZERO_COPY {
            assert!(c.is_zero_copy());
        }
        assert_eq!(UnifiedSharedMemory.xnack(), XnackMode::Enabled);
        assert_eq!(ImplicitZeroCopy.xnack(), XnackMode::Enabled);
        assert_eq!(EagerMaps.xnack(), XnackMode::Disabled);
        assert_eq!(LegacyCopy.xnack(), XnackMode::Disabled);
        assert!(EagerMaps.prefaults_on_map());
        assert!(!ImplicitZeroCopy.prefaults_on_map());
        assert!(!UnifiedSharedMemory.globals_as_copy());
        assert!(ImplicitZeroCopy.globals_as_copy());
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = RuntimeConfig::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }
}
