//! CLI contract of `repro`'s parser: `--help` lists every command and
//! flag and exits 0, an unknown command or a repeated flag exits 2 naming
//! the offending word, and `all` is documented as exactly the commands it
//! runs. Only paths that finish before any model work run here.

use std::process::{Command, Output};

const COMMANDS: [&str; 20] = [
    "all",
    "table1",
    "table2",
    "table4",
    "train",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "bert",
    "recovery",
    "serve",
    "spectra",
    "decode",
    "baselines",
    "optimize",
    "journal-merge",
];

const FLAGS: [&str; 14] = [
    "--fast",
    "--samples",
    "--steps",
    "--workers",
    "--no-cache",
    "--sessions",
    "--max-batch",
    "--metrics",
    "--journal",
    "--resume",
    "--faults",
    "--retries",
    "--deadline-s",
    "--shard",
];

/// Runs `repro` in a fresh temporary directory, so a run that gets past
/// parsing writes nothing into the checkout.
fn repro(tag: &str, args: &[&str]) -> Output {
    let cwd = std::env::temp_dir().join(format!("lrd-repro-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&cwd);
    out
}

#[test]
fn help_exits_0_and_lists_every_command_and_flag() {
    for word in ["--help", "-h"] {
        let out = repro("help", &["fig9", word]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        let words: Vec<&str> = text.split_whitespace().collect();
        for name in COMMANDS.iter().chain(&FLAGS) {
            assert!(words.contains(name), "--help omits {name}:\n{text}");
        }
        // `all` says exactly what it runs, in the order it runs them.
        assert!(
            words.join(" ").contains(
                "in order: table1 table2 table4 train fig3 fig5 fig6 fig7 fig8 fig9 fig10 \
                 bert recovery serve table1"
            ),
            "{text}"
        );
    }
}

#[test]
fn unknown_command_exits_2_naming_it() {
    let out = repro("nosuch", &["nosuch"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("nosuch"));
}

#[test]
fn repeated_flag_exits_2_naming_it() {
    for args in [
        ["table2", "--samples", "5", "--samples", "6"],
        ["table2", "--journal", "a.jsonl", "--journal", "b.jsonl"],
        ["table2", "--shard", "0/3", "--shard", "1/3"],
    ] {
        let out = repro("repeat", &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(args[1]) && stderr.contains("more than once"),
            "{args:?}: {stderr}"
        );
    }
}
