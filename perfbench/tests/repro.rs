//! Reproducibility: the same seed, run in two separate processes, must
//! make the program send the same wire bytes. Runs one short round of
//! `broadcast` and of `hosted` twice each and compares the per-session
//! wire digests in the reproducibility record.

use std::process::Command;

/// The record line's digest list, e.g. `["0a1b...", ...]`.
fn digests(workload: &str, seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", "0", "--rounds", "1"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let record = stdout
        .lines()
        .find(|l| l.starts_with("{\"record\""))
        .expect("a reproducibility record line");
    let start = record
        .find("\"digests\": [")
        .expect("digests in the record");
    let rest = &record[start..];
    let list = &rest[..rest.find(']').expect("closed digest list") + 1];
    assert!(list.len() > "\"digests\": []".len(), "no digests: {record}");
    list.to_string()
}

#[test]
fn broadcast_repeats_across_processes() {
    assert_eq!(digests("broadcast", 5), digests("broadcast", 5));
}

#[test]
fn hosted_repeats_across_processes() {
    assert_eq!(digests("hosted", 5), digests("hosted", 5));
}

#[test]
fn different_seeds_make_different_inputs() {
    assert_ne!(digests("broadcast", 5), digests("broadcast", 6));
}
