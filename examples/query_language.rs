//! The Call Path Query Language on a CUDA call tree (paper §4.1.3,
//! Figure 8): find the paths whose leaf names end in `block_128` and
//! show the call tree before and after.
//!
//! ```sh
//! cargo run --example query_language
//! ```

use thicket::prelude::*;

fn main() {
    // A Lassen CUDA run: the tree is Base_CUDA → group → kernel →
    // kernel.block_<N>.
    let mut b128 = GpuRunConfig::lassen_default();
    b128.block_size = 128;
    let mut b256 = GpuRunConfig::lassen_default();
    b256.block_size = 256;
    let profiles = vec![simulate_gpu_run(&b128), simulate_gpu_run(&b256)];
    let tk = Thicket::loader(&profiles)
        .profile_ids(&[Value::Int(128), Value::Int(256)])
        .load()
        .expect("compose")
        .0;

    println!("call tree before the query (time (gpu), block-128 profile):");
    print!("{}", tk.tree(&ColKey::new("time (gpu)"), &Value::Int(128)));

    // QueryMatcher().match(".", name == "Base_CUDA")
    //               .rel("*")
    //               .rel(".", name ends with "block_128")
    let query = Query::builder()
        .node(".", pred::name_eq("Base_CUDA"))
        .any("*")
        .node(".", pred::name_ends_with("block_128"))
        .build();

    let filtered = tk.query(&query);
    println!("\ncall tree after querying for *.block_128 leaves:");
    print!("{}", filtered.tree(&ColKey::new("time (gpu)"), &Value::Int(128)));

    println!(
        "\nnodes: {} -> {}; perf rows: {} -> {}",
        tk.graph().len(),
        filtered.graph().len(),
        tk.perf_data().len(),
        filtered.perf_data().len(),
    );

    // Every kept leaf really ends in block_128.
    let leaves: Vec<String> = filtered
        .graph()
        .ids()
        .filter(|&id| filtered.graph().node(id).children().is_empty())
        .map(|id| filtered.graph().node(id).name().to_string())
        .collect();
    println!("kept leaves: {leaves:?}");
    assert!(leaves.iter().all(|l| l.ends_with("block_128")));
}
