//! The built `digs-cli`, driven as a user would: what it refuses, and
//! what it says about an environment variable nothing reads.

use std::process::{Command, Output};

/// Runs the binary with exactly the variables in `env` set.
fn cli(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_digs-cli"))
        .args(args)
        .env_clear()
        .envs(env.iter().copied())
        .output()
        .expect("spawn digs-cli")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn a_typo_or_another_commands_flag_fails_naming_flag_and_command() {
    for (args, flag) in [(["run", "--sec", "1"], "--sec"), (["run", "--jam", "10:20"], "--jam")] {
        let output = cli(&args, &[]);
        assert!(!output.status.success(), "{args:?} must fail");
        assert!(output.stdout.is_empty(), "{args:?} must not run anything");
        let said = stderr(&output);
        assert!(said.contains(flag) && said.contains("`digs-cli run`"), "{args:?}: {said}");
        assert!(said.contains("[--secs N]"), "{args:?} must list what `run` takes: {said}");
    }
}

#[test]
fn a_value_that_does_not_parse_fails_the_same_way_from_flag_and_variable() {
    let from_flag = cli(&["fleet", "run", "--networks", "1", "--jobs", "abc"], &[]);
    let from_env = cli(&["fleet", "run", "--networks", "1"], &[("DIGS_FLEET_JOBS", "abc")]);
    assert!(!from_flag.status.success() && !from_env.status.success());
    assert_eq!(stderr(&from_flag), "bad --jobs: invalid digit found in string\n");
    assert_eq!(stderr(&from_env), "bad DIGS_FLEET_JOBS: invalid digit found in string\n");
    // The flag wins over the variable, so a bad variable behind a good flag
    // is never parsed.
    let both = cli(&["digsd", "list", "--addr", "127.0.0.1:9"], &[("DIGS_DIGSD_ADDR", "nowhere")]);
    assert!(stderr(&both).contains("127.0.0.1:9"), "{}", stderr(&both));
}

#[test]
fn a_variable_nothing_reads_is_warned_about_once_and_changes_nothing() {
    let plain = cli(&["topology"], &[]);
    let stale = cli(
        &["topology"],
        &[("DIGS_DIGSD_QUEUE", "abc"), ("DIGS_SECS", "5"), ("DIGS_FLEET_JOBS", "2")],
    );
    assert!(plain.status.success() && stale.status.success());
    assert!(plain.stderr.is_empty(), "{}", stderr(&plain));
    assert_eq!(stale.stdout, plain.stdout);
    assert_eq!(
        stderr(&stale),
        "digs-cli: DIGS_DIGSD_QUEUE is set but nothing reads it — use digsd serve --queue\n"
    );
}

#[test]
fn help_and_a_missing_subcommand_print_the_generated_usage() {
    let help = cli(&["help"], &[]);
    assert!(help.status.success());
    let text = String::from_utf8_lossy(&help.stdout).into_owned();
    for needle in
        ["digs-cli digsd serve", "--resume-grace-ms N: harness", "[else $DIGS_DIGSD_ADDR]"]
    {
        assert!(text.contains(needle), "help lacks `{needle}`");
    }
    for args in [&[][..], &["digsd"][..]] {
        let output = cli(args, &[]);
        assert!(!output.status.success());
        assert!(stderr(&output).contains("digs-cli digsd shutdown [--addr A]"), "{args:?}");
    }
    let zero = cli(&["digsd", "serve", "--queue", "0"], &[]);
    assert_eq!(stderr(&zero), "--queue must be > 0\n");
}
