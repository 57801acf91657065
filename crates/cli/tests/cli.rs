//! The built `digs-cli`, driven as a user would: what it refuses, what it
//! says about an environment variable nothing reads, and what it prints
//! for a saved fleet report.

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
        "digs-cli: DIGS_DIGSD_QUEUE is set but nothing reads it — use digsd serve --queue\n\
         digs-cli: DIGS_SECS is set but nothing reads it — use figures --secs\n"
    );
}

/// The census counts links under the radio model the topology's runs
/// use: open area for the 150-node Cooja layout (under the indoor model it
/// read 170 links and a disconnected network), indoor with 18 dB per
/// floor for Testbed B (630 links without the floors).
#[test]
fn the_topology_census_uses_the_radio_model_of_the_runs() {
    for (topology, links) in [
        ("cooja", "usable links  : 2027 of 11476 pairs"),
        ("testbed-b", "usable links  : 334 of 946 pairs"),
    ] {
        let output = cli(&["topology", "--topology", topology], &[]);
        assert!(output.status.success(), "{}", stderr(&output));
        let census = String::from_utf8_lossy(&output.stdout).into_owned();
        assert!(census.contains(links), "{topology}:\n{census}");
        assert!(census.contains("connected     : yes"), "{topology}:\n{census}");
    }
}

#[test]
fn figure_3_is_the_cost_model_and_an_unknown_figure_lists_the_choices() {
    let fig3 = cli(&["figures", "--fig", "3"], &[]);
    assert!(fig3.status.success(), "{}", stderr(&fig3));
    let table = String::from_utf8_lossy(&fig3.stdout).into_owned();
    assert!(table.contains("| metric | paper | measured | 95 % interval | n |"), "{table}");
    for secs in ["| 201.640 |", "| 503.280 |", "| 191.804 |", "| 521.312 |"] {
        assert!(table.contains(secs), "Fig. 3 lacks {secs}:\n{table}");
    }
    let fig7 = cli(&["figures", "--fig", "7"], &[]);
    assert!(!fig7.status.success() && fig7.stdout.is_empty());
    assert_eq!(
        stderr(&fig7),
        "unknown figure `7` (3|4|5|9|10|11|12|13|threeway|soak|backup|etx|slotframe)\n"
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

#[test]
fn fleet_report_prints_every_breach_of_a_saved_report_and_fails() {
    let lossy = digs_fleet::NetworkSummary {
        label: "lossy".into(),
        nodes: 10,
        flows: 2,
        generated: 100,
        delivered: 40,
        pdr: 0.4,
        worst_flow_pdr: 0.3,
        fraction_joined: 1.0,
        alerts: 0,
        alert_kinds: [0; 4],
        violations: 0,
        latency: digs_metrics::LogHistogram::new(),
    };
    let quarantined = digs_fleet::DegradedRun {
        label: "stuck".into(),
        reason: "timeout at asn 100".into(),
        attempts: 2,
        quarantined: true,
    };
    let report = digs_fleet::aggregate_partial(&[lossy], 60, vec![quarantined], 1);
    let breaches = &report.slo.breaches;
    assert_eq!(breaches.len(), 4, "{breaches:?}");
    let json = digs_json::message::Rows::to_value(&report);
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleet_breached.json");
    std::fs::write(&path, json.to_pretty() + "\n").unwrap();

    let output = cli(&["fleet", "report", "--input", path.to_str().unwrap()], &[]);
    assert!(!output.status.success());
    assert_eq!(stderr(&output), "saved report records an SLO breach\n");
    let text = String::from_utf8_lossy(&output.stdout).into_owned();
    assert_eq!(text, digs_fleet::render(&report));
    for breach in breaches {
        assert!(text.contains(&format!("    breach: {breach}\n")), "{text}");
    }
}
