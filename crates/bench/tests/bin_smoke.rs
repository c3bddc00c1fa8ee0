//! Smoke tests for the sweeping experiment bins: graceful one-line skips for
//! oversized topologies, honest `indeterminate` rows under an expired
//! deadline, and a healthy default row — never a panic or a hang.

use std::process::{Command, Output};

fn run_bin(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"))
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "bin exited with {:?}; stderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn thm14_15_produces_a_defeated_row_by_default() {
    let exe = env!("CARGO_BIN_EXE_thm14_15_few_failures");
    let text = stdout_of(&run_bin(exe, &["--count", "1"]));
    assert!(text.contains("=== Theorem 14"), "missing header:\n{text}");
    // K8's paper budget is 6*8 - 33 = 15; at least one pattern row must show
    // a constructed (defeated) failure set.
    assert!(text.contains("15"), "missing K8 paper budget:\n{text}");
    assert!(!text.contains("worker panicked"), "panic leaked:\n{text}");
}

#[test]
fn thm14_15_skips_oversized_topologies_with_one_line() {
    let exe = env!("CARGO_BIN_EXE_thm14_15_few_failures");
    let text = stdout_of(&run_bin(exe, &["--count", "1", "--links-limit", "10"]));
    // K8 has 28 links and K4,4 has 16 — both must be skipped gracefully.
    assert!(
        text.contains("skipped: bounded exhaustive check limited to 10 links, graph has 28"),
        "missing K8 skip line:\n{text}"
    );
    assert!(
        text.contains("graph has 16"),
        "missing K4,4 skip line:\n{text}"
    );
}

#[test]
fn thm14_15_reports_indeterminate_on_an_expired_deadline() {
    let exe = env!("CARGO_BIN_EXE_thm14_15_few_failures");
    let text = stdout_of(&run_bin(exe, &["--count", "1", "--deadline-secs", "0"]));
    // The Indeterminate verdict now carries a Progress payload, printed via
    // its Display: "indeterminate: deadline expired after 0 masks (...)".
    assert!(
        text.contains("indeterminate: deadline expired"),
        "expired deadline must yield honest indeterminate rows with progress:\n{text}"
    );
    assert!(!text.contains("worker panicked"), "panic leaked:\n{text}");
}

#[test]
fn table1_skips_oversized_cells_and_falls_back_to_sampling() {
    let exe = env!("CARGO_BIN_EXE_table1_landscape");
    let text = stdout_of(&run_bin(exe, &["--count", "1", "--links-limit", "2"]));
    // K3 (3 links) and K8 rows still complete: the oversized positive cells
    // print the skip notice and sample instead of panicking.
    assert!(
        text.contains("[skip] exhaustive cell:"),
        "missing skip line:\n{text}"
    );
    assert!(
        text.contains("sampling instead"),
        "missing sampling fallback notice:\n{text}"
    );
    // K3 (3 links) is sampled: its label names the one pair checked and the
    // draw count, and never claims "verified".  K1,1 (1 link) stays within
    // the limit and keeps the exhaustive label.
    let row = text
        .lines()
        .find(|l| l.starts_with("1 "))
        .unwrap_or_else(|| panic!("missing r = 1 row:\n{text}"));
    let sampled_cell =
        &row[row.find("K3 ").expect("K3 cell")..row.find("K1,1").expect("K1,1 cell")];
    assert!(
        sampled_cell.contains("sampled v0->v1 only, 1950 draws"),
        "sampled cell must name its pair and draw count:\n{text}"
    );
    assert!(
        !sampled_cell.contains("verified"),
        "a sampled cell must not claim verification:\n{text}"
    );
    assert!(
        row.contains("K1,1 verified r-tolerant"),
        "the in-limit cell keeps the exhaustive label:\n{text}"
    );
}

#[test]
fn table1_reports_inconclusive_on_an_expired_deadline() {
    let exe = env!("CARGO_BIN_EXE_table1_landscape");
    let text = stdout_of(&run_bin(exe, &["--count", "1", "--deadline-secs", "0"]));
    assert!(
        text.contains("inconclusive: deadline expired"),
        "expired deadline must yield inconclusive cells with progress:\n{text}"
    );
    // The progress is the stopped sweep's own: it counts masks, not pairs,
    // and names the fallback samples drawn after the stop.
    assert!(
        text.contains("fallback samples"),
        "the inconclusive cell must report the sweep's fallback sampling:\n{text}"
    );
}

#[test]
fn unknown_flag_is_a_one_line_usage_error_with_exit_2() {
    let exe = env!("CARGO_BIN_EXE_table1_landscape");
    // A removed flag (`--table-cache`) is rejected like any unknown one, so
    // scripts still passing it stop with an error instead of running
    // without it.
    for args in [&["--no-such-flag"][..], &["--table-cache", "x"]] {
        let out = run_bin(exe, args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.trim().lines().count(),
            1,
            "usage error must be one line:\n{stderr}"
        );
        assert!(stderr.contains("usage:"), "missing usage string:\n{stderr}");
        assert!(
            stderr.contains(args[0]),
            "must name the offending flag:\n{stderr}"
        );
    }
}

#[test]
fn malformed_flag_value_is_a_one_line_usage_error_with_exit_2() {
    let exe = env!("CARGO_BIN_EXE_thm14_15_few_failures");
    let out = run_bin(exe, &["--threads", "many"]);
    assert_eq!(out.status.code(), Some(2), "malformed value must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.trim().lines().count(),
        1,
        "usage error must be one line:\n{stderr}"
    );
    assert!(stderr.contains("usage:"), "missing usage string:\n{stderr}");
}

#[test]
fn table1_default_row_is_verified() {
    let exe = env!("CARGO_BIN_EXE_table1_landscape");
    let text = stdout_of(&run_bin(exe, &["--count", "1"]));
    assert!(
        text.contains("verified r-tolerant"),
        "r = 1 cells must verify:\n{text}"
    );
    assert!(
        text.contains("adversary defeats portfolio"),
        "Thm 1 adversary must defeat shortest-path on K8:\n{text}"
    );
}
