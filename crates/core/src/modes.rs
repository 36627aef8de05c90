//! The one parsing surface for runtime modes.
//!
//! Four independent surfaces speak the same mode tokens: the `repro` FLAGS
//! table, the `apusim` CLI, the `PROTO v1` wire format of `apusim serve`,
//! and the canonical `sweepreq` encoding the content-addressed result cache
//! keys on. Before this module each of them hand-rolled its own
//! `"off" | "online" | "plan"` matching, which is exactly how token sets
//! drift apart. Now every surface goes through the [`FromStr`]/[`Display`](std::fmt::Display)
//! impls here; the canonical token of a mode is defined once, and the
//! anti-drift test at the bottom round-trips every variant through
//! parse→display so a new variant cannot ship without a token.
//!
//! Two of the parseable enums are *kinds* — [`ElideKind`] and
//! [`TelemetryKind`] — rather than the runtime's own [`ElideMode`] and
//! [`TelemetryMode`]: a parsed `plan` names the *strategy* (derive the plan
//! from the capture), not a concrete [`ElisionPlan`] value, and a parsed
//! `ring` does not pick a capacity. The kind resolves to the mode at the
//! execution edge ([`ElideKind::mode_with`], [`TelemetryKind::mode`]).
//! [`CacheMode`] is the third shared surface: where (and whether) batch
//! results are memoized on disk.

use crate::elide::{ElideMode, ElisionPlan};
use crate::telemetry::TelemetryMode;
use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// A mode token failed to parse. Carries what was being parsed, the
/// offending token, and the accepted token set, so every surface reports
/// the same diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeParseError {
    /// What was being parsed (`"elide mode"`, `"config"`, ...).
    pub what: &'static str,
    /// The rejected input.
    pub got: String,
    /// Human-readable accepted tokens (`"off | online | plan"`).
    pub expected: &'static str,
}

impl fmt::Display for ModeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} '{}' (expected {})",
            self.what, self.got, self.expected
        )
    }
}

impl std::error::Error for ModeParseError {}

/// Elision strategy, as named on every parsing surface. Resolves to a
/// concrete [`ElideMode`] at the execution edge: `Plan` derives the plan
/// from the capture being replayed (see [`ElideKind::mode_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ElideKind {
    /// No elision.
    #[default]
    Off,
    /// Probe the live mapping table per map.
    Online,
    /// Profile-guided: apply a plan derived from the capture.
    Plan,
    /// Static: rewrite the capture with the whole-program optimizer before
    /// replay; the rewritten program needs no runtime elision mode.
    Opt,
}

impl ElideKind {
    /// Every variant, in canonical order (for exhaustive round-trip tests).
    pub const ALL: [ElideKind; 4] = [
        ElideKind::Off,
        ElideKind::Online,
        ElideKind::Plan,
        ElideKind::Opt,
    ];

    /// The accepted token set, for usage strings.
    pub const EXPECTED: &'static str = "off | online | plan | opt";

    /// Stable canonical token. This is the *only* spelling: the CLI, the
    /// wire format, and the cache key all print and parse exactly this.
    pub fn token(self) -> &'static str {
        match self {
            ElideKind::Off => "off",
            ElideKind::Online => "online",
            ElideKind::Plan => "plan",
            ElideKind::Opt => "opt",
        }
    }

    /// Resolve to a concrete [`ElideMode`], synthesizing the plan through
    /// `plan` only when this kind actually is [`ElideKind::Plan`].
    /// [`ElideKind::Opt`] resolves to [`ElideMode::Off`]: the batch layer's
    /// cell recipe (`omp_batch::sweep::cell_recipe`) rewrites the program
    /// before replay, so the runtime elides nothing itself.
    pub fn mode_with(self, plan: impl FnOnce() -> ElisionPlan) -> ElideMode {
        match self {
            ElideKind::Off | ElideKind::Opt => ElideMode::Off,
            ElideKind::Online => ElideMode::Online,
            ElideKind::Plan => ElideMode::Plan(plan()),
        }
    }
}

impl fmt::Display for ElideKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for ElideKind {
    type Err = ModeParseError;

    fn from_str(s: &str) -> Result<Self, ModeParseError> {
        match s {
            "off" => Ok(ElideKind::Off),
            "online" => Ok(ElideKind::Online),
            "plan" => Ok(ElideKind::Plan),
            "opt" => Ok(ElideKind::Opt),
            other => Err(ModeParseError {
                what: "elide mode",
                got: other.to_string(),
                expected: Self::EXPECTED,
            }),
        }
    }
}

/// Telemetry strategy, as named on every parsing surface. `Ring` resolves
/// to the default-capacity ring ([`TelemetryMode::ring`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TelemetryKind {
    /// No collection.
    #[default]
    Off,
    /// Bounded drop-oldest ring at the default capacity.
    Ring,
}

impl TelemetryKind {
    /// Every variant, in canonical order.
    pub const ALL: [TelemetryKind; 2] = [TelemetryKind::Off, TelemetryKind::Ring];

    /// The accepted token set, for usage strings.
    pub const EXPECTED: &'static str = "off | ring";

    /// Stable canonical token.
    pub fn token(self) -> &'static str {
        match self {
            TelemetryKind::Off => "off",
            TelemetryKind::Ring => "ring",
        }
    }

    /// Resolve to a concrete [`TelemetryMode`].
    pub fn mode(self) -> TelemetryMode {
        match self {
            TelemetryKind::Off => TelemetryMode::Off,
            TelemetryKind::Ring => TelemetryMode::ring(),
        }
    }
}

impl fmt::Display for TelemetryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for TelemetryKind {
    type Err = ModeParseError;

    fn from_str(s: &str) -> Result<Self, ModeParseError> {
        match s {
            "off" => Ok(TelemetryKind::Off),
            "ring" => Ok(TelemetryKind::Ring),
            other => Err(ModeParseError {
                what: "telemetry mode",
                got: other.to_string(),
                expected: Self::EXPECTED,
            }),
        }
    }
}

/// Where (and whether) batch results are memoized on disk. Parsed from the
/// `--cache DIR|off` operand every client accepts: the literal token `off`
/// disables memoization, anything else is a directory path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// No memoization: every request simulates.
    #[default]
    Off,
    /// Memoize under this directory (created on first store).
    Dir(PathBuf),
}

impl CacheMode {
    /// The accepted operand shape, for usage strings.
    pub const EXPECTED: &'static str = "DIR | off";

    /// The conventional on-disk location, `.apusim-cache/` in `base`.
    pub fn default_dir(base: &Path) -> CacheMode {
        CacheMode::Dir(base.join(".apusim-cache"))
    }
}

impl fmt::Display for CacheMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheMode::Off => f.write_str("off"),
            CacheMode::Dir(d) => f.write_str(&d.to_string_lossy()),
        }
    }
}

impl FromStr for CacheMode {
    // A path operand never fails to parse; the error type exists so every
    // mode on the surface shares the same FromStr shape.
    type Err = ModeParseError;

    fn from_str(s: &str) -> Result<Self, ModeParseError> {
        if s == "off" {
            Ok(CacheMode::Off)
        } else {
            Ok(CacheMode::Dir(PathBuf::from(s)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;

    /// The anti-drift contract: every variant of every shared mode enum
    /// survives parse→display→parse, and the runtime-mode `Display`s agree
    /// with their kind's token.
    #[test]
    fn every_variant_round_trips_through_parse_and_display() {
        for e in ElideKind::ALL {
            assert_eq!(e.to_string().parse::<ElideKind>(), Ok(e));
            assert_eq!(e.token().parse::<ElideKind>(), Ok(e));
        }
        for t in TelemetryKind::ALL {
            assert_eq!(t.to_string().parse::<TelemetryKind>(), Ok(t));
            assert_eq!(t.token().parse::<TelemetryKind>(), Ok(t));
        }
        for c in RuntimeConfig::ALL {
            assert_eq!(c.token().parse::<RuntimeConfig>(), Ok(c));
        }
        for m in [CacheMode::Off, CacheMode::Dir(PathBuf::from("/tmp/c"))] {
            assert_eq!(m.to_string().parse::<CacheMode>(), Ok(m.clone()));
        }
    }

    #[test]
    fn runtime_modes_display_their_kind_token() {
        assert_eq!(ElideMode::Off.to_string(), "off");
        assert_eq!(ElideMode::Online.to_string(), "online");
        assert_eq!(ElideMode::Plan(ElisionPlan::new()).to_string(), "plan");
        assert_eq!(TelemetryMode::Off.to_string(), "off");
        assert_eq!(TelemetryMode::ring().to_string(), "ring");
    }

    #[test]
    fn kind_resolution() {
        assert_eq!(ElideKind::Off.mode_with(|| unreachable!()), ElideMode::Off);
        // Opt rewrites the program, not the runtime: no runtime mode.
        assert_eq!(ElideKind::Opt.mode_with(|| unreachable!()), ElideMode::Off);
        assert_eq!(
            ElideKind::Online.mode_with(|| unreachable!()),
            ElideMode::Online
        );
        let mut p = ElisionPlan::new();
        p.insert(1, 0);
        assert_eq!(
            ElideKind::Plan.mode_with(|| p.clone()),
            ElideMode::Plan(p.clone())
        );
        assert_eq!(TelemetryKind::Off.mode(), TelemetryMode::Off);
        assert_eq!(TelemetryKind::Ring.mode(), TelemetryMode::ring());
    }

    #[test]
    fn rejects_report_the_token_set() {
        let e = "bogus".parse::<ElideKind>().unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown elide mode 'bogus' (expected off | online | plan | opt)"
        );
        assert!("ringg".parse::<TelemetryKind>().is_err());
        assert!("".parse::<ElideKind>().is_err());
        let c = "OFF".parse::<CacheMode>().unwrap();
        // Cache operands are paths: only the exact literal `off` disables.
        assert_eq!(c, CacheMode::Dir(PathBuf::from("OFF")));
    }

    #[test]
    fn config_tokens_and_aliases() {
        assert_eq!(RuntimeConfig::LegacyCopy.token(), "copy");
        assert_eq!(RuntimeConfig::UnifiedSharedMemory.token(), "usm");
        assert_eq!(RuntimeConfig::ImplicitZeroCopy.token(), "izc");
        assert_eq!(RuntimeConfig::EagerMaps.token(), "eager");
        // CLI-friendly aliases keep parsing, but never print.
        assert_eq!(
            "implicit".parse::<RuntimeConfig>(),
            Ok(RuntimeConfig::ImplicitZeroCopy)
        );
        assert_eq!("em".parse::<RuntimeConfig>(), Ok(RuntimeConfig::EagerMaps));
        assert_eq!(
            "COPY".parse::<RuntimeConfig>(),
            Ok(RuntimeConfig::LegacyCopy)
        );
        assert!("frob".parse::<RuntimeConfig>().is_err());
    }

    #[test]
    fn default_cache_dir_is_conventional() {
        assert_eq!(
            CacheMode::default_dir(Path::new("/w")),
            CacheMode::Dir(PathBuf::from("/w/.apusim-cache"))
        );
    }
}
