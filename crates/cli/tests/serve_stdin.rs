//! The stdin interview must reject malformed answers with a re-prompt
//! (sharing the wire protocol's answer parser) instead of treating
//! garbage as a choice, and still finish the session. Every command that
//! loads a checkpoint must refuse one trained on another dimension.

use std::io::Write;
use std::process::{Command, Stdio};

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("isrl_serve_stdin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

#[test]
fn interview_reprompts_on_malformed_answers() {
    let ckpt = tmp("stdin.ckpt");
    let out = Command::new(env!("CARGO_BIN_EXE_isrl"))
        .args([
            "train",
            "--builtin",
            "anti:40x2",
            "--algo",
            "ea",
            "--episodes",
            "1",
            "--seed",
            "3",
            "--eps",
            "0.2",
            "--out",
            &ckpt,
        ])
        .output()
        .expect("failed to spawn isrl train");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_isrl"))
        .args([
            "serve",
            "--builtin",
            "anti:40x2",
            "--model",
            &ckpt,
            "--eps",
            "0.2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn isrl serve");

    // Three invalid answers, one valid one, then EOF (which defaults the
    // remaining questions to option 1 so the run completes).
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"yes\n3\n0\n 1 \n")
        .unwrap();
    let out = child.wait_with_output().expect("wait failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "serve failed ({:?}): {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        stdout.matches("please answer 1 or 2").count(),
        3,
        "each malformed answer must re-prompt exactly once:\n{stdout}"
    );
    assert!(
        stdout.contains("your tuple"),
        "interview must still finish:\n{stdout}"
    );
}

#[test]
fn checkpoint_dimension_mismatch_exits_one_without_panicking() {
    let ckpt = tmp("dim2.ckpt");
    let out = Command::new(env!("CARGO_BIN_EXE_isrl"))
        .args([
            "train",
            "--builtin",
            "anti:80x2",
            "--algo",
            "ea",
            "--episodes",
            "2",
            "--out",
            &ckpt,
        ])
        .output()
        .expect("failed to spawn isrl train");
    assert!(out.status.success(), "train failed");

    let port_file = tmp("dim.port");
    let data = ["--builtin", "anti:80x3", "--model", &ckpt];
    let commands: [Vec<&str>; 3] = [
        [&["eval"][..], &data, &["--users", "2"]].concat(),
        [&["serve"][..], &data].concat(),
        [
            &["serve"][..],
            &data,
            &["--listen", "127.0.0.1:0", "--port-file", &port_file],
        ]
        .concat(),
    ];
    for args in &commands {
        let out = Command::new(env!("CARGO_BIN_EXE_isrl"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("failed to spawn isrl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("2-dimensional") && stderr.contains("3-dimensional"),
            "{args:?} must name both dimensions: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
    assert!(
        !std::path::Path::new(&port_file).exists(),
        "a refused server must not write its port file"
    );
}
