//! The [`Verified`] witness: a program that passed static verification,
//! carried together with its report.
//!
//! Holding a `Verified<P>` is proof that program-level verification ran
//! and produced zero diagnostics; downstream consumers (the serving
//! stack, the `irlint` tool) can rely on the report's inferred
//! signature and stack bounds without re-running the analysis.

use std::fmt;

use crate::error::IrError;
use crate::{lsab, pcab};

use super::verify_lsab::{analyze_lsab, LsabReport};
use super::verify_pcab::{analyze_pcab, PcabReport};

/// A program form that the static verifier knows how to analyze.
pub trait Verifiable: Sized {
    /// The report produced by program-level verification.
    type Report;
    /// Run program-level verification.
    fn analyze(&self) -> Self::Report;
    /// The diagnostics of a report (empty means accepted).
    fn diagnostics(report: &Self::Report) -> &[IrError];
}

impl Verifiable for lsab::Program {
    type Report = LsabReport;
    fn analyze(&self) -> LsabReport {
        analyze_lsab(self)
    }
    fn diagnostics(report: &LsabReport) -> &[IrError] {
        &report.diagnostics
    }
}

impl Verifiable for pcab::Program {
    type Report = PcabReport;
    fn analyze(&self) -> PcabReport {
        analyze_pcab(self)
    }
    fn diagnostics(report: &PcabReport) -> &[IrError] {
        &report.diagnostics
    }
}

/// A statically-verified program plus the verification report.
pub struct Verified<P: Verifiable> {
    program: P,
    report: P::Report,
}

impl<P: Verifiable> Verified<P> {
    /// Verify `program`, returning the witness on success.
    ///
    /// # Errors
    ///
    /// Returns the first diagnostic when verification fails.
    pub fn new(program: P) -> Result<Verified<P>, IrError> {
        let report = program.analyze();
        if let Some(e) = P::diagnostics(&report).first() {
            return Err(e.clone());
        }
        Ok(Verified { program, report })
    }

    /// The verified program.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// The verification report.
    pub fn report(&self) -> &P::Report {
        &self.report
    }
}

impl<P: Verifiable + fmt::Debug> fmt::Debug for Verified<P>
where
    P::Report: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Verified")
            .field("program", &self.program)
            .field("report", &self.report)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::fibonacci_program;

    #[test]
    fn fibonacci_earns_a_witness() {
        let v = Verified::new(fibonacci_program()).unwrap();
        assert!(v.report().diagnostics.is_empty());
        assert_eq!(v.program().funcs.len(), fibonacci_program().funcs.len());
    }

    #[test]
    fn invalid_programs_are_refused() {
        let mut p = fibonacci_program();
        p.funcs[0].blocks.clear();
        assert!(Verified::new(p).is_err());
    }
}
