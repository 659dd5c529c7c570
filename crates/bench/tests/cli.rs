//! The `repro` command line: a bad argument is refused with exit status
//! 2, never answered by running the default sweep.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn a_flag_value_that_does_not_parse_exits_2_instead_of_running_everything() {
    for args in [
        ["fig6", "--contention", "x"],
        ["fig6", "--contention", "101"],
        ["fig7", "--move", "bogus"],
        ["explore", "--seeds", "x"],
        ["saturate", "--rates", "abc"],
    ] {
        let out = repro(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{}: {} wants", args[0], args[1])),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn an_unknown_command_lists_exactly_the_commands_that_exist() {
    let out = repro(&["ablation-mv"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("usage: repro [fig5|fig6|fig7|explore|saturate|trace|all] "),
        "{stderr}"
    );
}
