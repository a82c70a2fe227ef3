//! The `eval` binary's command line: unknown ids and malformed options are
//! refused with exit 1, and `--help` lists the registry's ids.

use std::process::{Command, Output};

fn eval(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eval"))
        .args(args)
        .output()
        .expect("the eval binary starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_id_exits_1() {
    let out = eval(&["table99"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("unknown experiment id"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn scale_outside_unit_interval_or_not_a_number_exits_1() {
    for scale in ["0", "xyz"] {
        let out = eval(&["--scale", scale, "table2"]);
        assert_eq!(out.status.code(), Some(1), "--scale {scale}");
        assert!(stderr(&out).contains("--scale"), "--scale {scale}");
    }
}

#[test]
fn render_with_a_third_dimension_exits_1() {
    let out = eval(&["--scale", "0.05", "--render", "128x96x7", "table2"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--render"), "{}", stderr(&out));
}

/// `--help` lists exactly the registry's ids (`table11` among them), so an
/// id taken out of the registry is gone from the CLI too.
#[test]
fn help_lists_exactly_the_registry() {
    let out = eval(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = text
        .lines()
        .find_map(|line| line.strip_prefix("ids: "))
        .and_then(|ids| ids.strip_suffix(" or 'all'"))
        .expect("an ids line")
        .split(", ")
        .collect();
    let registry: Vec<&str> = eval::EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    assert_eq!(listed, registry);
    assert!(listed.contains(&"table11"));
}
