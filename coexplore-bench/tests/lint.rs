//! The benchmark's sources pass the repository's determinism and
//! soundness lint under the rules for measurement code (`wsc-lint`'s
//! `Bench` class: clocks are allowed, every other rule applies).

use std::path::Path;
use wsc_lint::{analyze_source, Config, FileClass};

#[test]
fn sources_pass_wsc_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cfg = Config::for_tree(&root.join("..")).expect("the repository manifest is readable");
    let mut scanned = 0;
    let mut findings = Vec::new();
    for dir in ["src", "tests"] {
        let mut files: Vec<_> = std::fs::read_dir(root.join(dir))
            .expect("source directory is readable")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        files.sort();
        for path in files {
            let text = std::fs::read_to_string(&path).expect("source is readable");
            let name = path.file_name().expect("a file").to_string_lossy();
            let rel = format!("coexplore-bench/{dir}/{name}");
            findings.extend(analyze_source(&rel, &text, FileClass::Bench, &cfg).findings);
            scanned += 1;
        }
    }
    assert!(scanned >= 8, "only {scanned} files scanned");
    assert!(
        findings.is_empty(),
        "wsc-lint findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
