//! A budgeted command's temporary spool directory is its own and is
//! removed on every exit path; a `--spool DIR` the user names is kept.
//! Each case runs the `cenn` binary with `TMPDIR` pointed at a fresh
//! directory, so whatever the command leaves in its temp dir shows up.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty stand-in for the temp dir.
fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cenn_cli_spool_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cenn(tmp: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cenn"))
        .args(args)
        .env("TMPDIR", tmp)
        .output()
        .expect("running cenn")
}

fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

const RUN: [&str; 9] = [
    "run",
    "--system",
    "fisher",
    "--grid",
    "64",
    "--steps",
    "2",
    "--memory-budget",
    "32K",
];

#[test]
fn failed_budgeted_run_leaves_no_spool_behind() {
    let tmp = temp_root("failed");
    let metrics = tmp.join("missing-dir").join("m.jsonl");
    let out = cenn(
        &tmp,
        &[&RUN[..], &["--metrics-out", metrics.to_str().unwrap()]].concat(),
    );
    let left = entries(&tmp);
    std::fs::remove_dir_all(&tmp).unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(left.is_empty(), "left behind: {left:?}");
}

#[test]
fn budgeted_commands_remove_their_spools_and_keep_a_named_one() {
    let tmp = temp_root("ok");
    for args in [
        &RUN[..],
        &[
            "profile",
            "fisher",
            "--grid",
            "32",
            "--steps",
            "2",
            "--memory-budget",
            "16K",
        ],
    ] {
        let out = cenn(&tmp, args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        assert!(
            entries(&tmp).is_empty(),
            "{args:?} left {:?}",
            entries(&tmp)
        );
    }
    let kept = tmp.join("kept");
    let out = cenn(
        &tmp,
        &[&RUN[..], &["--spool", kept.to_str().unwrap()]].concat(),
    );
    assert!(out.status.success(), "{out:?}");
    assert!(entries(&kept).contains(&"journal.txt".to_string()));
    std::fs::remove_dir_all(&tmp).unwrap();
}
