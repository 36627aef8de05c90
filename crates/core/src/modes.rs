//! The one parsing surface for runtime modes.
//!
//! Four independent surfaces speak the same mode tokens: the `repro` FLAGS
//! table, the `apusim` CLI, the `PROTO v1` wire format of `apusim serve`,
//! and the canonical `sweepreq` encoding the content-addressed result cache
//! keys on. Before this module each of them hand-rolled its own
//! `"off" | "online" | "plan"` matching, which is exactly how token sets
//! drift apart. Now every surface goes through the [`FromStr`]/[`Display`](std::fmt::Display)
//! impls here, and each set's tokens are one [`Tokens`] table that prints,
//! parses, lists and rejects; the anti-drift test at the bottom round-trips
//! every variant through parse→display.
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
    /// The accepted tokens (`"off | online | plan | opt"`), from the table.
    pub expected: String,
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

/// One closed token set: every value beside its one spelling, in canonical
/// order. The set's writer, reader, `ALL` list and accepted-set message all
/// read this table, so no token is spelled twice.
#[derive(Debug)]
pub struct Tokens<T: 'static, const N: usize> {
    /// What a token names, as [`ModeParseError::what`] reports it.
    pub what: &'static str,
    /// Every value with its token, in canonical order.
    pub table: [(T, &'static str); N],
}

impl<T: Copy + PartialEq, const N: usize> Tokens<T, N> {
    /// Every value, in canonical order.
    pub const fn values(&self) -> [T; N] {
        let mut out = [self.table[0].0; N];
        let mut i = 1;
        while i < N {
            out[i] = self.table[i].0;
            i += 1;
        }
        out
    }

    /// The token of `value`.
    pub fn token(&self, value: T) -> &'static str {
        let row = self.table.iter().find(|(v, _)| *v == value);
        row.expect("every value has a row in its token table").1
    }

    /// The value spelled `token`, if any.
    pub fn get(&self, token: &str) -> Option<T> {
        self.table.iter().find(|(_, t)| *t == token).map(|r| r.0)
    }

    /// [`get`](Self::get), or the error naming every accepted token.
    pub fn parse(&self, token: &str) -> Result<T, ModeParseError> {
        self.get(token).ok_or_else(|| ModeParseError {
            what: self.what,
            got: token.to_string(),
            expected: self.expected(),
        })
    }

    /// The accepted set, `a | b | c`.
    pub fn expected(&self) -> String {
        self.table.map(|(_, t)| t).join(" | ")
    }
}

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
    /// The only spelling of each kind: the CLI, the wire format, and the
    /// cache key all print and parse exactly these tokens.
    pub const TOKENS: Tokens<ElideKind, 4> = Tokens {
        what: "elide mode",
        table: [
            (ElideKind::Off, "off"),
            (ElideKind::Online, "online"),
            (ElideKind::Plan, "plan"),
            (ElideKind::Opt, "opt"),
        ],
    };

    /// Every variant, in canonical order (for exhaustive round-trip tests).
    pub const ALL: [ElideKind; 4] = Self::TOKENS.values();

    /// Stable canonical token.
    pub fn token(self) -> &'static str {
        Self::TOKENS.token(self)
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
        Self::TOKENS.parse(s)
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
    /// The only spelling of each kind.
    pub const TOKENS: Tokens<TelemetryKind, 2> = Tokens {
        what: "telemetry mode",
        table: [(TelemetryKind::Off, "off"), (TelemetryKind::Ring, "ring")],
    };

    /// Every variant, in canonical order.
    pub const ALL: [TelemetryKind; 2] = Self::TOKENS.values();

    /// Stable canonical token.
    pub fn token(self) -> &'static str {
        Self::TOKENS.token(self)
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
        Self::TOKENS.parse(s)
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
        // Configs parse case-insensitively, so the rejection names the
        // lower-cased token.
        let c = "BOGUS".parse::<RuntimeConfig>().unwrap_err();
        assert_eq!(
            c.to_string(),
            "unknown config 'bogus' (expected copy | usm | izc | eager)"
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
