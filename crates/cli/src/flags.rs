//! Every command `digs-cli` has and every flag each one takes, as one
//! table. The parser, the usage text, the `DIGS_*` fallbacks and the
//! README knob-table test are all read off [`COMMANDS`]: adding a knob is
//! adding a [`Flag`] row to the groups of the commands that take it.

use crate::{digsd, figures, fleet, gate, run, telemetry, trace};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;

/// One `--name VALUE` flag, or a `--name` switch when `value` is empty.
pub struct Flag {
    pub name: &'static str,
    /// How the usage text spells the value; `""` for a switch.
    pub value: &'static str,
    /// The variable that supplies the value when the flag is absent.
    pub env: Option<&'static str>,
    pub help: &'static str,
}

/// One command: the words that select it, what it does, and the flag
/// groups it accepts. A flag outside these groups is an error.
pub struct Command {
    pub path: &'static [&'static str],
    pub about: &'static str,
    pub run: fn(&Args) -> Result<(), String>,
    pub flags: &'static [&'static [Flag]],
}

const fn flag(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag { name, value, env: None, help }
}

const TOPOLOGY: &[Flag] = &[flag(
    "topology",
    "T",
    "testbed-{a,b}[-half] | cooja | random:<devices>:<side-m> (testbed-a)",
)];

/// What describes one network run (with [`TOPOLOGY`]): the fields of a
/// `digs_digsd::SingleSpec`, so a local run and a `digsd launch` of the
/// same flags are the same network.
const RUN: &[Flag] = &[
    flag("protocol", "P", "digs (default) | orchestra | wirelesshart"),
    flag("secs", "N", "simulated seconds"),
    flag("flows", "N", "random monitor flows (default 4)"),
    flag("period-ms", "N", "flow period (default 5000)"),
    flag("jammers", "N", "fixed WiFi jammers switching on at 60 s (default 0)"),
    flag(
        "adaptive-jam",
        "START",
        "a schedule-learning jammer at every access point, on at START s",
    ),
    flag("randomize", "SECRET", "DiGS schedule randomization under this shared secret (0 = off)"),
    flag("seed", "N", "master RNG seed (default 1)"),
];

const TRACE: &[Flag] = &[flag("trace-cap", "N", "flight-recorder events per node (default 65536)")];

const TELEMETRY: &[Flag] = &[
    flag("epoch-slots", "N", "slots per telemetry epoch (default 1000 = 10 s)"),
    flag("cap", "N", "epochs kept (default 4096)"),
    flag("jam", "START:END", "full-band WiFi jammer cluster at every access point, seconds"),
];

/// What describes a fleet: the fields of a `digs_fleet::FleetParams`.
const FLEET: &[Flag] = &[
    flag("template", "NAME", "oil | factory | mixed (default: alternates the two)"),
    flag("networks", "N", "independent networks to stamp out (fleet run 32, digsd launch 4)"),
    flag("seed-base", "N", "seed of the first network (default 1)"),
    flag("sharded-devices", "N", "devices of one extra, spatially sharded network (default 0)"),
    flag("shard-size", "N", "devices per shard (default 100)"),
    flag("sharded-seed", "N", "seed of the sharded network (default: the seed base)"),
    Flag {
        name: "jobs",
        value: "N",
        env: Some("DIGS_FLEET_JOBS"),
        help: "worker threads (default: one per core); never changes the report",
    },
];

const FILTER: &[Flag] = &[
    flag("kinds", "CSV", "only these frame kinds: trace,epoch,alert,meta,fleet (default: all)"),
    flag("nodes", "CSV", "only frames of these node ids (default: all)"),
];

const ADDR: &[Flag] = &[Flag {
    name: "addr",
    value: "A",
    env: Some("DIGS_DIGSD_ADDR"),
    help: "the daemon's address (default 127.0.0.1:4901)",
}];

const JSON: &[Flag] = &[flag("json", "", "machine-readable output")];

/// Which seeds and how long, for the two commands that run catalogue
/// scenarios.
const SWEEP: &[Flag] = &[
    flag("seeds", "SPEC", "N (seeds 1-N), LO-HI or a,b,c (default: gate 8, figures 6)"),
    flag("secs", "N", "override every scenario's length"),
];

/// `--run` and `--from-seq`, for the two commands that follow a stream.
const FOLLOW: &[Flag] = &[
    flag("run", "RUN", "the run to follow (required)"),
    flag("from-seq", "N", "resume a previous session's stream position without duplicates"),
];

/// Every command, in the order the usage text lists them.
pub const COMMANDS: &[Command] = &[
    Command {
        path: &["run"],
        about: "run one network for --secs (default 300) and print its results",
        run: run::run,
        flags: &[TOPOLOGY, RUN, JSON],
    },
    Command {
        path: &["topology"],
        about: "describe a topology: nodes, access points, usable links",
        run: run::topology,
        flags: &[TOPOLOGY],
    },
    Command {
        path: &["graph"],
        about: "run for --secs (default 150) and print the routing graph",
        run: run::graph,
        flags: &[TOPOLOGY, RUN],
    },
    Command {
        path: &["manager"],
        about: "one centralized WirelessHART update cycle (Fig. 3)",
        run: run::manager,
        flags: &[TOPOLOGY, &[flag("flows", "N", "flow sources to schedule (default 8)")]],
    },
    Command {
        path: &["trace", "journeys"],
        about: "run traced for --secs (default 120); hop-by-hop journeys and latency breakdown",
        run: trace::journeys,
        flags: &[
            TOPOLOGY,
            RUN,
            TRACE,
            &[flag("min-complete", "N", "fail below N complete journeys (default 0)")],
        ],
    },
    Command {
        path: &["trace", "churn"],
        about: "run traced; the parent-churn and repair timeline",
        run: trace::churn,
        flags: &[TOPOLOGY, RUN, TRACE],
    },
    Command {
        path: &["trace", "dump"],
        about: "run traced; the raw events as JSONL on stdout",
        run: trace::dump,
        flags: &[TOPOLOGY, RUN, TRACE],
    },
    Command {
        path: &["telemetry", "export"],
        about: "run sampled for --secs (default 300); the per-epoch series on stdout",
        run: telemetry::export,
        flags: &[TOPOLOGY, RUN, TELEMETRY, &[flag("format", "F", "jsonl (default) | csv")]],
    },
    Command {
        path: &["telemetry", "report"],
        about: "run sampled; per-epoch table, PDR sparkline and the alert log",
        run: telemetry::report,
        flags: &[TOPOLOGY, RUN, TELEMETRY],
    },
    Command {
        path: &["telemetry", "top"],
        about: "report's view redrawn per epoch (last 12), of a local run or a daemon's (--attach)",
        run: telemetry::top,
        flags: &[
            TOPOLOGY,
            RUN,
            TELEMETRY,
            &[flag("attach", "RUN", "render this digsd run's stream and simulate nothing")],
            ADDR,
        ],
    },
    Command {
        path: &["gate"],
        about: "run the conformance matrix against goldens/<matrix>.json; exit 1 on a breach",
        run: gate::gate,
        flags: &[
            &[flag("matrix", "M", "small | full (default)")],
            SWEEP,
            &[
                flag("jobs", "N", "worker threads (default: one per core)"),
                flag("goldens", "DIR", "where the baselines live (default goldens)"),
                flag("bless", "", "regenerate the baseline and pass"),
                flag("summary", "FILE", "append the markdown diff table to FILE"),
                flag("inject-loss", "SUBSTR", "halve delivery of matching scenarios (test hook)"),
                flag("attach", "ADDR", "collect the records from a running digsd at ADDR"),
            ],
            JSON,
        ],
    },
    Command {
        path: &["figures"],
        about: "the paper's figures as markdown tables over the scenario catalogue's runs",
        run: figures::figures,
        flags: &[
            &[flag("fig", "ID", "one figure (default: all; an unknown ID lists them)")],
            SWEEP,
        ],
    },
    Command {
        path: &["fleet", "run"],
        about: "run a fleet of template networks into one SLO report; exit 1 on a breach",
        run: fleet::run,
        flags: &[
            FLEET,
            &[
                flag("secs", "N", "simulated seconds per network (default 600)"),
                flag("report", "FILE", "write the canonical JSON report (deterministic bytes)"),
                flag("inject-loss", "SUBSTR", "halve delivery of matching networks (test hook)"),
                flag("run-timeout", "SECS", "wall-clock budget per network, one retry (0 = none)"),
                flag("retries", "N", "extra attempts for a network that timed out or panicked"),
                flag("inject-timeout", "SUBSTR", "time matching networks out at once (test hook)"),
            ],
            JSON,
        ],
    },
    Command {
        path: &["fleet", "report"],
        about: "print a saved fleet report as fleet run did; exit 1 if it records a breach",
        run: fleet::report,
        flags: &[
            &[flag("input", "FILE", "a report written by fleet run --report (required)")],
            JSON,
        ],
    },
    Command {
        path: &["digsd", "serve"],
        about: "the simulation daemon (DESIGN §4.12), runners single, fleet and scenario",
        run: digsd::serve,
        flags: &[
            ADDR,
            &[
                flag("queue", "N", "per-subscriber queue, frames; a full one drops (default 4096)"),
                flag("journal", "FILE", "durable run journal: incomplete runs replay on restart"),
                flag("max-restarts", "N", "supervised restarts before quarantine (default 3)"),
                flag(
                    "resume-grace-ms",
                    "N",
                    "harness: how long a recovered run waits for its subscribers (default 1500)",
                ),
                flag("chaos-slow-ms", "N", "harness: sleep at every flush boundary of a run"),
            ],
        ],
    },
    Command {
        path: &["digsd", "launch"],
        about: "start a named run on the daemon; single runs stream trace and telemetry",
        run: digsd::launch,
        flags: &[
            &[
                flag("name", "RUN", "the run's name, [a-z0-9_-]{1,64} (required)"),
                flag("kind", "K", "single (default) | fleet | scenario"),
                flag("tail", "", "follow the stream: payload on stdout, control on stderr"),
                flag("matrix", "M", "scenario runs: small | full (default)"),
                flag("scenario", "NAME", "scenario runs: which scenario of the matrix (required)"),
            ],
            TOPOLOGY,
            RUN,
            TRACE,
            TELEMETRY,
            FLEET,
            FILTER,
            ADDR,
        ],
    },
    Command {
        path: &["digsd", "attach"],
        about: "follow a run's stream as raw wire frames",
        run: digsd::attach,
        flags: &[FOLLOW, FILTER, ADDR],
    },
    Command {
        path: &["digsd", "tail"],
        about: "follow a run's stream: payload JSONL on stdout, footer with delivered/dropped",
        run: digsd::tail,
        flags: &[FOLLOW, FILTER, ADDR],
    },
    Command {
        path: &["digsd", "list"],
        about: "the daemon's runs",
        run: digsd::list,
        flags: &[ADDR, JSON],
    },
    Command {
        path: &["digsd", "kill"],
        about: "stop a run at its next flush boundary",
        run: digsd::kill,
        flags: &[&[flag("run", "RUN", "the run to stop (required)")], ADDR],
    },
    Command {
        path: &["digsd", "shutdown"],
        about: "suspend the live runs (resumable from the journal) and stop the daemon",
        run: digsd::shutdown,
        flags: &[ADDR],
    },
];

/// Variables that used to be read, and the flag that does their job.
const RETIRED_ENV: &[(&str, &str)] = &[
    ("DIGS_SETS", "figures --seeds"),
    ("DIGS_SECS", "figures --secs"),
    ("DIGS_TRACE_CAP", "trace journeys --trace-cap"),
    ("DIGS_DIGSD_QUEUE", "digsd serve --queue"),
    ("DIGS_DIGSD_JOURNAL", "digsd serve --journal"),
    ("DIGS_DIGSD_MAX_RESTARTS", "digsd serve --max-restarts"),
    ("DIGS_DIGSD_RESUME_GRACE_MS", "digsd serve --resume-grace-ms"),
    ("DIGS_DIGSD_CHAOS_SLOW_MS", "digsd serve --chaos-slow-ms"),
    ("DIGS_FLEET_RUN_TIMEOUT", "fleet run --run-timeout"),
];

impl Flag {
    /// `--secs N`, or `--json` for a switch.
    fn spelling(&self) -> String {
        let space = if self.value.is_empty() { "" } else { " " };
        format!("--{}{space}{}", self.name, self.value)
    }
}

impl Command {
    /// `digsd launch`.
    pub fn name(&self) -> String {
        self.path.join(" ")
    }

    fn all_flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.all_flags().find(|f| f.name == name)
    }

    /// `digs-cli run [--topology T] … [--json]` and what the command does;
    /// with `detail`, one line per flag below it.
    fn usage(&self, detail: bool) -> String {
        let mut text = format!("digs-cli {}", self.name());
        for f in self.all_flags() {
            text.push_str(&format!(" [{}]", f.spelling()));
        }
        text.push_str(&format!("\n    {}\n", self.about));
        if detail {
            for f in self.all_flags() {
                let env = f.env.map_or(String::new(), |var| format!(" [else ${var}]"));
                text.push_str(&format!("      {}: {}{env}\n", f.spelling(), f.help));
            }
        }
        text
    }
}

/// The whole table as text; `detail` adds every flag's meaning.
pub fn usage(detail: bool) -> String {
    let commands: String = COMMANDS.iter().map(|c| c.usage(detail)).collect();
    format!(
        "usage: digs-cli <command> [flags]    (`digs-cli help` explains every flag)\n\n{commands}"
    )
}

/// A command line, checked against its command's row of [`COMMANDS`].
pub struct Args {
    pub command: &'static Command,
    /// Flag name → its text and, when a variable supplied it, which.
    given: BTreeMap<&'static str, (String, Option<&'static str>)>,
}

/// Picks the command and checks every flag against its groups; a
/// declared variable fills in for its absent flag.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let matches = |c: &Command| {
        argv.len() >= c.path.len() && c.path.iter().zip(argv).all(|(word, arg)| word == arg)
    };
    let Some(command) = COMMANDS.iter().find(|c| matches(c)) else {
        let word = argv.first().ok_or_else(|| usage(false))?;
        let family: Vec<&str> =
            COMMANDS.iter().filter(|c| c.path[0] == word).map(|c| c.path[1]).collect();
        let choices = family.join("|");
        return Err(match argv.get(1).filter(|next| !next.starts_with("--")) {
            _ if family.is_empty() => format!("unknown command `{word}`\n{}", usage(false)),
            Some(other) => format!("unknown {word} subcommand `{other}` ({choices})"),
            None => format!("{word} needs a subcommand ({choices})\n{}", usage(false)),
        });
    };
    let mut given = BTreeMap::new();
    let mut rest = argv[command.path.len()..].iter();
    while let Some(arg) = rest.next() {
        let Some(flag) = arg.strip_prefix("--").and_then(|name| command.flag(name)) else {
            return Err(format!(
                "`digs-cli {}` takes no `{arg}`; it takes\n{}",
                command.name(),
                command.usage(true)
            ));
        };
        let text = match flag.value {
            "" => String::new(),
            _ => rest.next().ok_or_else(|| format!("flag --{} needs a value", flag.name))?.clone(),
        };
        given.insert(flag.name, (text, None));
    }
    let from_env = command.all_flags().filter_map(|f| Some((f, std::env::var(f.env?).ok()?)));
    for (flag, text) in from_env {
        given.entry(flag.name).or_insert((text, flag.env));
    }
    Ok(Args { command, given })
}

impl Args {
    /// The row's flag `name`; asking for one it does not declare is a bug
    /// in the handler, found by the first smoke that reaches it.
    fn declared(&self, name: &str) -> &'static Flag {
        self.command.flag(name).unwrap_or_else(|| {
            panic!("`{}` asks for --{name}, which its row declares not", self.command.name())
        })
    }

    /// The one shape of a value that does not parse: `bad --name: …`, or
    /// `bad DIGS_X: …` when the variable supplied it.
    fn bad(&self, name: &str, error: impl Display) -> String {
        match self.given.get(name) {
            Some((_, Some(var))) => format!("bad {var}: {error}"),
            _ => format!("bad --{name}: {error}"),
        }
    }

    /// The flag's value; `None` when neither the flag nor its variable is
    /// set.
    ///
    /// # Panics
    ///
    /// Panics when the command's row does not declare `name`.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.declared(name);
        let Some((text, _)) = self.given.get(name) else {
            return Ok(None);
        };
        text.parse().map(Some).map_err(|e| self.bad(name, e))
    }

    /// A flag the command cannot do without.
    pub fn require<T: FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.get(name)?.ok_or_else(|| {
            format!("{} needs --{name} {}", self.command.name(), self.declared(name).value)
        })
    }

    /// Whether a switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.declared(name);
        self.given.contains_key(name)
    }

    /// A `START:END` window of seconds.
    pub fn window(&self, name: &str) -> Result<Option<(u64, u64)>, String> {
        let Some(text) = self.get::<String>(name)? else {
            return Ok(None);
        };
        match text.split_once(':').map(|(start, end)| (start.parse(), end.parse())) {
            Some((Ok(start), Ok(end))) => Ok(Some((start, end))),
            _ => Err(self.bad(name, format!("`{text}` is not START:END seconds"))),
        }
    }

    /// A comma-separated list.
    pub fn csv<T: FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, String>
    where
        T::Err: Display,
    {
        let Some(text) = self.get::<String>(name)? else {
            return Ok(None);
        };
        let items = text.split(',').map(|item| item.trim().parse().map_err(|e| self.bad(name, e)));
        items.collect::<Result<_, _>>().map(Some)
    }
}

/// One line for every `DIGS_*` variable that is set and that nothing
/// reads — a retired spelling must not pass for a setting.
pub fn unread_env() -> Vec<String> {
    let read =
        |name: &str| COMMANDS.iter().flat_map(Command::all_flags).any(|f| f.env == Some(name));
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("DIGS_") && !read(name))
        .collect();
    names.sort();
    names
        .iter()
        .map(|name| match RETIRED_ENV.iter().find(|(old, _)| old == name) {
            Some((_, now)) => format!("{name} is set but nothing reads it — use {now}"),
            None => format!("{name} is set but nothing reads it"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn no_command_declares_a_flag_twice_or_shadows_another_command() {
        for (i, command) in COMMANDS.iter().enumerate() {
            let names: Vec<&str> = command.all_flags().map(|f| f.name).collect();
            let distinct: BTreeSet<&str> = names.iter().copied().collect();
            assert_eq!(names.len(), distinct.len(), "`{}` repeats a flag", command.name());
            // `parse` takes the first row whose path is a prefix of argv.
            for later in &COMMANDS[i + 1..] {
                assert!(!later.path.starts_with(command.path), "`{}` is shadowed", later.name());
            }
        }
    }

    #[test]
    fn a_flag_the_command_does_not_list_is_refused_by_name() {
        for line in ["run --sec 1", "run --jam 10:20", "topology --flows 2", "run stray"] {
            let error = parse(&argv(line)).err().expect(line);
            let culprit = line.split(' ').nth(1).expect("two words");
            assert!(error.contains(culprit) && error.contains("`digs-cli "), "{line}: {error}");
        }
        let error = parse(&argv("digsd serve --queue")).err().expect("no value");
        assert_eq!(error, "flag --queue needs a value");
        assert!(parse(&argv("trace")).err().expect("family").contains("journeys|churn|dump"));
        assert!(parse(&argv("fleet rnu")).err().expect("typo").contains("`rnu` (run|report)"));
        assert!(parse(&argv("frobnicate")).err().expect("unknown").contains("usage: digs-cli"));
    }

    #[test]
    fn values_parse_in_one_place_with_one_message_shape() {
        let args = parse(&argv("telemetry top --secs 7 --jam 3:x --attach demo")).expect("ok");
        assert_eq!(args.get::<u64>("secs"), Ok(Some(7)));
        assert_eq!(args.get::<u64>("flows"), Ok(None));
        assert_eq!(args.require::<String>("attach").as_deref(), Ok("demo"));
        assert_eq!(args.window("jam"), Err("bad --jam: `3:x` is not START:END seconds".into()));
        let args = parse(&argv("digsd tail --run r --nodes 3,x --kinds a,b")).expect("ok");
        assert_eq!(args.csv::<String>("kinds"), Ok(Some(vec!["a".to_string(), "b".to_string()])));
        assert!(args.csv::<u16>("nodes").expect_err("x").starts_with("bad --nodes: "));
        let args = parse(&argv("digsd kill")).expect("ok");
        assert_eq!(args.require::<String>("run"), Err("digsd kill needs --run RUN".into()));
        let args = parse(&argv("gate --bless")).expect("ok");
        assert!(args.switch("bless") && !args.switch("json"));
    }

    #[test]
    #[should_panic(expected = "declares not")]
    fn asking_for_an_undeclared_flag_is_a_bug() {
        let args = parse(&argv("topology")).expect("ok");
        let _ = args.get::<u64>("secs");
    }

    /// README's knob table lists exactly the variables something reads,
    /// every command line it shows parses, and the usage text spells each
    /// flag of each command once.
    #[test]
    fn readme_and_usage_agree_with_the_table() {
        let readme = include_str!("../../../README.md");
        let documented: BTreeSet<&str> = readme
            .lines()
            .filter_map(|line| line.strip_prefix("| `DIGS_"))
            .map(|rest| &rest[..rest.find('`').expect("closing backtick")])
            .collect();
        let read: BTreeSet<&str> = COMMANDS
            .iter()
            .flat_map(Command::all_flags)
            .filter_map(|f| f.env)
            .map(|var| var.strip_prefix("DIGS_").expect("every knob is DIGS_*"))
            .collect();
        assert_eq!(documented, read, "README knob table vs the `env` column");

        let shown = readme.replace("\\\n", " ");
        let lines: Vec<&str> = shown
            .lines()
            .filter_map(|line| line.split_once("-p digs-cli -- "))
            .map(|l| l.1)
            .collect();
        assert!(lines.len() >= 30, "README shows {} digs-cli command lines", lines.len());
        for line in lines {
            let words: Vec<&str> = line.split_whitespace().collect();
            let end = words.iter().position(|w| ["#", ">", "&"].contains(w)).unwrap_or(words.len());
            let line: Vec<String> = words[..end].iter().map(|w| w.to_string()).collect();
            if let Err(e) = parse(&line) {
                panic!("README shows `digs-cli {}`: {e}", line.join(" "));
            }
        }

        for command in COMMANDS {
            let text = command.usage(false);
            for f in command.all_flags() {
                let spelled = format!("[{}]", f.spelling());
                assert_eq!(text.matches(&spelled).count(), 1, "{spelled} in\n{text}");
            }
            assert!(usage(false).contains(&text), "usage lacks `{}`", command.name());
        }
    }
}
