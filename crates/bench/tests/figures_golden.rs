//! Every deterministic paper figure, byte for byte.
//!
//! `golden/figures_scale40.txt` is the stdout of `figures --scale 40
//! --reps 1 <target>` for each target below, each preceded by a `== `
//! header line naming the invocation. A change to the crowd substrate, the
//! round loop or any method must leave every series unchanged, or
//! regenerate the file on purpose and say why. `table5` is not here: it
//! prints wall-clock milliseconds. To regenerate, run the loop in
//! [`TARGETS`]' order and append each header and output.

use std::process::Command;

/// fig19, fig24 and table3 name the same series as fig18, fig23 and
/// table2; they are run anyway, so every accepted name stays covered.
const TARGETS: [&str; 20] = [
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "fig24",
    "table2",
    "table3",
    "table4",
    "example",
    "ablations",
];

#[test]
#[cfg_attr(debug_assertions, ignore = "a minute unoptimized; run `cargo test --release`")]
fn every_figure_at_scale_40_matches_the_golden() {
    let mut got = String::new();
    for t in TARGETS {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--scale", "40", "--reps", "1", t])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{t}: {}", String::from_utf8_lossy(&out.stderr));
        got.push_str(&format!("== figures --scale 40 --reps 1 {t}\n"));
        got.push_str(&String::from_utf8(out.stdout).expect("figures prints UTF-8"));
    }
    let want = include_str!("golden/figures_scale40.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "first difference at line {} of the golden", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line counts differ");
}
