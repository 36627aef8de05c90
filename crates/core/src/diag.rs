//! Structured map-clause diagnostics with stable codes.
//!
//! These types are shared by the two independent checking engines:
//!
//! * the **static checker** in the `omp-mapcheck` crate, which abstractly
//!   interprets a captured [`MapIr`](crate::MapIr) stream, and
//! * the **runtime sanitizer** ([`SanitizerReport`](crate::SanitizerReport)),
//!   which validates the same invariants dynamically against the live
//!   mapping table while a program executes.
//!
//! Both engines construct [`Diagnostic`] values through the canonical
//! message builders in [`msg`], so a hazard detected by either side renders
//! to byte-identical text — the cross-validation contract (DESIGN.md §10)
//! compares the two verdicts directly.

use crate::config::RuntimeConfig;
use apu_mem::AddrRange;
use std::fmt;

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The program is well-formed but leaves performance on the table.
    Warning,
    /// The program violates the OpenMP data-environment model under the
    /// diagnosed configuration (wrong results, leaks, or a fatal fault).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes emitted by the static checker and the runtime
/// sanitizer. The numbering is part of the tool's interface: scripts and CI
/// match on `MC00x`, never on message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// Refcount imbalance: a mapping is still live at program end.
    Mc001,
    /// Release (or `target update`) of a never-mapped or partially
    /// overlapping extent.
    Mc002,
    /// Stale-read hazard in Copy mode: the host wrote a mapped range after
    /// the last to-transfer and a kernel reads the device copy without
    /// `always` or an intervening `target update to`.
    Mc003,
    /// Stale host read in Copy mode: the host reads a range whose device
    /// copy holds newer kernel writes, with no `from` transfer in between.
    Mc004,
    /// Raw (unmapped) host-pointer access reachable under a configuration
    /// with XNACK disabled — the GPU has no translation and the access
    /// faults fatally (paper §IV-B).
    Mc005,
    /// Overlapping double-map with mismatched extents.
    Mc006,
    /// Redundant re-map of an already-present extent: no transfer happens,
    /// only bookkeeping — the paper's zero-copy promotion candidate.
    Mc007,
}

impl DiagCode {
    /// All codes, in numeric order.
    pub const ALL: [DiagCode; 7] = [
        DiagCode::Mc001,
        DiagCode::Mc002,
        DiagCode::Mc003,
        DiagCode::Mc004,
        DiagCode::Mc005,
        DiagCode::Mc006,
        DiagCode::Mc007,
    ];

    /// The stable textual code (`"MC003"`).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::Mc001 => "MC001",
            DiagCode::Mc002 => "MC002",
            DiagCode::Mc003 => "MC003",
            DiagCode::Mc004 => "MC004",
            DiagCode::Mc005 => "MC005",
            DiagCode::Mc006 => "MC006",
            DiagCode::Mc007 => "MC007",
        }
    }

    /// Severity class of the code.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::Mc007 => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line description of what the code means.
    pub fn summary(self) -> &'static str {
        match self {
            DiagCode::Mc001 => "refcount imbalance: mapping leaked at program end",
            DiagCode::Mc002 => "release of never-mapped or partially-overlapping extent",
            DiagCode::Mc003 => "stale-read hazard: kernel reads an outdated device copy",
            DiagCode::Mc004 => "stale host read of device-written data without `from`",
            DiagCode::Mc005 => "raw USM access under a non-XNACK configuration",
            DiagCode::Mc006 => "overlapping double-map with mismatched extents",
            DiagCode::Mc007 => "redundant re-map of an already-present extent",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, tied to the configuration it applies under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Configuration the finding applies under (a program can be clean
    /// under Implicit Zero-Copy and broken under Copy).
    pub config: RuntimeConfig,
    /// Host thread that issued the offending operation (0 for end-of-program
    /// checks).
    pub thread: u32,
    /// Host extent involved.
    pub extent: AddrRange,
    /// Site-specific explanation, built by [`msg`] so the static checker
    /// and the sanitizer render identically.
    pub detail: String,
}

impl Diagnostic {
    /// Construct a diagnostic.
    pub fn new(
        code: DiagCode,
        config: RuntimeConfig,
        thread: u32,
        extent: AddrRange,
        detail: String,
    ) -> Self {
        Diagnostic {
            code,
            config,
            thread,
            extent,
            detail,
        }
    }

    /// Severity class (delegates to the code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}] thread {} extent {}: {}",
            self.code,
            self.severity(),
            self.config.label(),
            self.thread,
            self.extent,
            self.detail
        )
    }
}

/// Canonical detail-message builders.
///
/// Both checking engines go through these functions, never through ad-hoc
/// `format!` calls: identical hazards must render to identical text so the
/// cross-validation tests can compare verdicts literally.
pub mod msg {
    use crate::mapping::MapDir;

    /// MC001: a mapping survived to program end.
    pub fn leaked(refcount: u32) -> String {
        format!("mapping never released: refcount still {refcount} at program end")
    }

    /// MC002: exit map of an extent that was never mapped.
    pub fn release_never_mapped() -> String {
        "release of an extent that was never mapped".to_string()
    }

    /// MC002: exit map range partially overlaps a live extent.
    pub fn release_partial() -> String {
        "release range partially overlaps a live extent".to_string()
    }

    /// MC002: `target update` of data that is not present.
    pub fn update_not_mapped() -> String {
        "target update of an extent that is not mapped".to_string()
    }

    /// MC003: kernel reads a stale device copy.
    pub fn stale_device_read() -> String {
        "kernel reads the device copy, but the host wrote the range after the last \
         to-transfer; add `always` or a `target update to`"
            .to_string()
    }

    /// MC004: host reads stale data the device has since overwritten.
    pub fn stale_host_read() -> String {
        "host reads the range, but the device copy holds newer kernel writes; add a \
         `from` transfer or a `target update from`"
            .to_string()
    }

    /// MC005: raw host-pointer dereference with XNACK off.
    pub fn raw_access_without_xnack() -> String {
        "raw host-pointer access needs XNACK demand paging; under this configuration \
         the GPU has no translation and the access faults fatally"
            .to_string()
    }

    /// MC006: overlapping double-map.
    pub fn double_map_mismatch() -> String {
        "map range partially overlaps an already-mapped extent with mismatched bounds".to_string()
    }

    /// MC007: redundant re-map.
    pub fn redundant_remap(dir: MapDir) -> String {
        format!(
            "`{}` re-map of an already-present extent transfers nothing (refcount bump \
             only) — zero-copy promotion candidate",
            dir.token()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_mem::VirtAddr;

    #[test]
    fn codes_are_stable_and_ordered() {
        let strs: Vec<_> = DiagCode::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(
            strs,
            ["MC001", "MC002", "MC003", "MC004", "MC005", "MC006", "MC007"]
        );
    }

    #[test]
    fn only_redundant_remap_is_a_warning() {
        for code in DiagCode::ALL {
            let expected = if code == DiagCode::Mc007 {
                Severity::Warning
            } else {
                Severity::Error
            };
            assert_eq!(code.severity(), expected, "{code}");
        }
    }

    #[test]
    fn display_is_grep_friendly() {
        let d = Diagnostic::new(
            DiagCode::Mc001,
            RuntimeConfig::LegacyCopy,
            0,
            AddrRange::new(VirtAddr(4096), 64),
            msg::leaked(2),
        );
        let s = d.to_string();
        assert!(s.starts_with("MC001 error [Copy] thread 0 extent "), "{s}");
        assert!(s.contains("refcount still 2"), "{s}");
    }
}
