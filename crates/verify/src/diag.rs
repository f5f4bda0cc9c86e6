//! Structured diagnostics: code, severity, location, message.

use std::fmt;

/// All stable diagnostic codes, grouped by pass.
pub mod codes {
    /// Dangling label reference: an FTN/NHLFE names a non-existent
    /// interface or an out-of-range label.
    pub const LBL_DANGLING: &str = "V-LBL-001";
    /// Label-space collision: one incoming label is claimed by both the
    /// LFIB and the VPN dispatch table of the same router.
    pub const LBL_COLLISION: &str = "V-LBL-002";
    /// Black hole: a pushed/swapped label has no ILM entry at the next
    /// hop, or an LSP delivers at the wrong node.
    pub const LBL_BLACKHOLE: &str = "V-LBL-003";
    /// Label loop: the cross-router swap graph contains a cycle.
    pub const LBL_LOOP: &str = "V-LBL-004";
    /// PHP inconsistency: a reserved label would appear on the wire.
    pub const LBL_PHP: &str = "V-LBL-005";
    /// Fast reroute in force: a stack reaches its egress only over the
    /// bypass of a link its point of local repair has marked down.
    pub const LBL_BYPASS: &str = "V-LBL-006";

    /// Cross-VPN route leak: a VRF imports a route target exported by a
    /// different VPN without a declared extranet.
    pub const VRF_LEAK: &str = "V-VRF-001";
    /// Declared extranet reachability (informational refutation of strict
    /// separation).
    pub const VRF_EXTRANET: &str = "V-VRF-002";
    /// Partitioned VPN: two VRFs of the same VPN cannot reach each other.
    pub const VRF_PARTITION: &str = "V-VRF-003";
    /// Useless import: an imported route target no VRF exports.
    pub const VRF_USELESS_IMPORT: &str = "V-VRF-004";

    /// CBQ link-share over-subscription: children outweigh their parent.
    pub const QOS_CBQ_OVERSUB: &str = "V-QOS-001";
    /// DSCP↔EXP map incomplete or non-injective across PHBs.
    pub const QOS_EXP_MAP: &str = "V-QOS-002";
    /// RED thresholds out of order (`min < max ≤ cap` violated).
    pub const QOS_WRED_ORDER: &str = "V-QOS-003";
    /// EF aggregate admission exceeds the engineered share of a link.
    pub const QOS_EF_ADMISSION: &str = "V-QOS-004";

    /// Reservations on a link exceed its reservable bandwidth.
    pub const TE_OVERSUB: &str = "V-TE-001";
    /// A trunk's LSP does not ride the path the trunk reserved.
    pub const TE_PATH: &str = "V-TE-004";

    /// The severity of every diagnostic with `code`: a declared extranet
    /// and a bypass in force are information, an import no VRF exports is
    /// a warning, and every other finding is an error.
    pub fn severity(code: &str) -> super::Severity {
        match code {
            VRF_EXTRANET | LBL_BYPASS => super::Severity::Info,
            VRF_USELESS_IMPORT => super::Severity::Warning,
            _ => super::Severity::Error,
        }
    }
}

/// How bad a finding is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Background fact worth surfacing (e.g. a declared extranet).
    Info,
    /// Suspicious but not provably broken.
    Warning,
    /// A provable misconfiguration.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of the static analyzer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable code, e.g. `V-LBL-001` (see [`codes`]); it fixes the
    /// severity ([`codes::severity`]).
    pub code: &'static str,
    /// Where the problem is, e.g. `PE0/vrf acme` or `P3 label 17`.
    pub location: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let severity = codes::severity(self.code);
        write!(f, "{severity} [{}] {}: {}", self.code, self.location, self.message)
    }
}

/// The outcome of a verification run: every diagnostic from every pass.
#[derive(Default, Debug)]
pub struct VerifyReport {
    diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a diagnostic (exact duplicates are collapsed, so the same
    /// broken entry found along several LSP walks reports once).
    pub fn push(
        &mut self,
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) {
        let d = Diagnostic { code, location: location.into(), message: message.into() };
        if !self.diagnostics.iter().any(|e| e.code == d.code && e.location == d.location) {
            self.diagnostics.push(d);
        }
    }

    /// All diagnostics, in discovery order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Diagnostics carrying exactly this code.
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// True when a diagnostic with this code was recorded.
    #[must_use]
    pub fn has_code(&self, code: &str) -> bool {
        self.with_code(code).next().is_some()
    }

    /// True when no *errors* were found (warnings and infos allowed).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.iter().all(|d| codes::severity(d.code) != Severity::Error)
    }

    /// Panics with a readable listing if the report contains errors.
    /// The pre-flight check every experiment runs after provisioning.
    pub fn assert_clean(&self, context: &str) {
        assert!(self.is_clean(), "verification failed for {context}:\n{self}");
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "verify: clean (0 diagnostics)");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_severity_filtering() {
        let mut r = VerifyReport::new();
        r.push(codes::LBL_DANGLING, "PE0", "x");
        r.push(codes::LBL_DANGLING, "PE0", "x again");
        r.push(codes::VRF_EXTRANET, "acme~beta", "declared");
        assert_eq!(r.diagnostics().len(), 2);
        assert_eq!(
            r.diagnostics().iter().filter(|d| codes::severity(d.code) == Severity::Error).count(),
            1
        );
        assert!(!r.is_clean());
        assert!(r.has_code(codes::LBL_DANGLING));
        assert!(!r.has_code(codes::TE_OVERSUB));
        let shown = r.to_string();
        assert!(shown.contains("V-LBL-001"));
    }

    #[test]
    fn clean_report_asserts() {
        let mut r = VerifyReport::new();
        r.push(codes::VRF_EXTRANET, "a", "b");
        assert!(r.is_clean());
        r.assert_clean("test");
    }
}
