//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and the metrics this package prints, with the same units.

use pdftsp_perfbench::run::{END_TO_END, PER_LAYER};
use pdftsp_perfbench::workloads::Workload;

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let compact: String = text.split_whitespace().collect();
    for w in Workload::ALL {
        let listed = compact.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name()));
        assert!(listed, "workload {} missing", w.name());
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            compact.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",")),
            "metric {name} ({unit}) missing"
        );
    }
    let names = compact.matches("{\"name\":").count();
    assert_eq!(
        names,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
