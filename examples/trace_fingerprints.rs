//! Prints trace fingerprints of the canonical experiment configurations.
//!
//! Used to prove refactors of the protocol core leave the observable
//! behaviour of the simulation bit-identical: capture the hashes before a
//! change, capture them after, diff. Covers the fig1/fig2 delay
//! experiments (plain, verifiable, and verifiable with trainer-side
//! verification, printed as `fig2-batched`) and the 2k-trainer swarm
//! ([`dfl_bench::canonical_fingerprints`]). `tests/determinism_scale.rs`
//! pins the same five values as literals.

fn main() {
    for (label, fingerprint) in dfl_bench::canonical_fingerprints() {
        println!("{label:<15} {fingerprint:016x}");
    }
}
