//! A program whose reference run fails (an out-of-bounds write) must come
//! out of every consumer of the record as a diagnostic, never a panic:
//! `S100` from the verifier, `T300` from the trace check, and a nonzero
//! `phpfc` exit that prints the diagnostic.

use hpf_compile::{compile_source, Options, Version};
use hpf_spmd::Recorded;
use std::path::PathBuf;
use std::process::Command;

const OOB_WRITE: &str = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B, K
REAL A(8), B(8)
INTEGER K(8)
INTEGER i, j
j = 0
DO i = 1, 8
  A(i+1) = 1.0
END DO
"#;

fn scratch(name: &str, contents: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn failed_reference_run_reaches_the_record_as_an_error() {
    let c = compile_source(OOB_WRITE, Options::new(Version::SelectedAlignment)).unwrap();
    let err = Recorded::run(&c.spmd, |_| {}, true).unwrap_err();
    assert!(
        matches!(err, hpf_ir::interp::InterpError::OutOfBounds { .. }),
        "{err:?}"
    );
}

#[test]
fn verify_reports_s100_when_the_reference_run_fails() {
    let c = compile_source(OOB_WRITE, Options::new(Version::SelectedAlignment)).unwrap();
    let report = c.verify(|_| {});
    assert!(!report.is_clean());
    let d = report.errors().find(|d| d.code == "S100");
    let d = d.unwrap_or_else(|| panic!("no S100 in {:#?}", report.diags));
    assert!(d.message.contains("OutOfBounds"), "{}", d.message);
}

#[test]
fn trace_check_reports_t300_when_the_reference_run_fails() {
    let c = compile_source(OOB_WRITE, Options::new(Version::SelectedAlignment)).unwrap();
    let rec = Recorded::run(&c.spmd, |_| {}, true);
    let recorded = hpf_obs::Trace::default();
    let report = hpf_verify::verify_recorded_trace(&c.spmd, &recorded, rec.as_ref());
    assert!(report.has("T300"), "got: {:#?}", report.diags);
    assert_eq!(report.error_count(), 1, "got: {:#?}", report.diags);
}

#[test]
fn phpfc_verify_exits_nonzero_with_the_diagnostic() {
    let src = scratch("reference_failure_oob.hpf", OOB_WRITE);
    let out = Command::new(env!("CARGO_BIN_EXE_phpfc"))
        .arg(&src)
        .arg("--verify")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("error[S100]"), "stdout:\n{stdout}");
    assert!(stderr.contains("verification FAILED"), "stderr:\n{stderr}");
}

#[test]
fn phpfc_verify_trace_exits_nonzero_with_the_diagnostic() {
    let src = scratch("reference_failure_oob_vt.hpf", OOB_WRITE);
    let trace = scratch(
        "reference_failure_empty_trace.json",
        &hpf_obs::Trace::default().to_chrome_json(),
    );
    let out = Command::new(env!("CARGO_BIN_EXE_phpfc"))
        .arg(&src)
        .arg("--verify-trace")
        .arg(&trace)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("error[T300]"), "stdout:\n{stdout}");
    assert!(stderr.contains("trace verification FAILED"), "stderr:\n{stderr}");
}
