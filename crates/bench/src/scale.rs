//! The web-scale tier study: streams a sharded synthetic web (10⁵–10⁶
//! domains) through the CSR graph builder, runs the tiled TrustRank
//! kernel over the frozen graph, and renders the deterministic facts as a
//! report section.
//!
//! The section is a **pure suffix** of the report (like the robustness
//! and serving studies): a `--scale web` run prints everything a plain
//! small run prints, then this table. Its contents are counts and
//! bit-stable score facts only — throughput (domains/sec generated,
//! edges/sec per power iteration) is timing-dependent, so the `repro`
//! binary reports it on stderr, never here. The xtask determinism audit
//! byte-compares this section between 1- and 4-worker runs.
//!
//! The API is phased (build → rank → render) so the binary can put a
//! wall clock around each phase without the library touching one.

use crate::context::REPRO_SEED;
use pharmaverify_core::report::Table;
use pharmaverify_corpus::{ShardedWebGenerator, WebScaleConfig};
use pharmaverify_net::{BlockDispatch, CsrGraph, GraphBuilder, NodeId, TrustRankConfig};
use pharmaverify_obs::Registry;

/// The frozen web-tier graph plus everything the rank phase and the
/// report need to know about how it was built.
#[derive(Debug)]
pub struct WebTierBuild {
    /// The streaming generator's configuration.
    pub config: WebScaleConfig,
    /// The frozen CSR graph.
    pub graph: CsrGraph,
    /// Node ids of the trusted seed pharmacies.
    pub seeds: Vec<NodeId>,
    /// Total pharmacy domains (seeds + candidates).
    pub pharmacies: usize,
    /// Raw links produced by the generator, before duplicate merging.
    pub generated_links: usize,
    /// Number of shards the stream produced.
    pub shards: usize,
}

/// Streams the sharded web into a [`GraphBuilder`] and freezes it. Peak
/// resident generator state is one shard ([`WebScaleConfig::shard_size`]
/// domains); the builder itself grows to the full graph, which is the
/// point of the compact representation.
pub fn build_web_tier(domains: usize, obs: &Registry) -> WebTierBuild {
    let _span = obs.span("bench/scale/build");
    let config = WebScaleConfig::new(domains, REPRO_SEED);
    let mut builder = GraphBuilder::new();
    let mut pharmacies = 0usize;
    let mut shards = 0usize;
    for shard in ShardedWebGenerator::new(config) {
        shards += 1;
        for record in &shard {
            let node = if record.is_pharmacy {
                pharmacies += 1;
                builder.add_pharmacy(&record.domain)
            } else {
                builder.add_external(&record.domain)
            };
            for (target, weight) in &record.links {
                builder.add_link(node, target, *weight);
            }
        }
    }
    let generated_links = builder.raw_edge_count();
    let graph = builder.freeze();
    let trusted = ShardedWebGenerator::new(config).trusted_domains();
    let seeds: Vec<NodeId> = trusted.iter().filter_map(|d| graph.node(d)).collect();
    assert_eq!(
        seeds.len(),
        trusted.len(),
        "trusted seeds are generated domains and must all intern"
    );
    obs.set_gauge("bench/scale/nodes", graph.node_count() as i64);
    obs.set_gauge("bench/scale/edges", graph.edge_count() as i64);
    WebTierBuild {
        config,
        graph,
        seeds,
        pharmacies,
        generated_links,
        shards,
    }
}

/// The rank phase's output: the trust vector plus its configuration.
#[derive(Debug)]
pub struct WebTierScores {
    /// TrustRank scores over the web-tier graph, seeded at the trusted
    /// prefix. Bit-identical at any dispatch width.
    pub trust: Vec<f64>,
    /// The power-iteration configuration that produced them.
    pub config: TrustRankConfig,
}

/// Runs the tiled TrustRank kernel over the frozen web-tier graph on the
/// given dispatcher, one block per destination tile.
pub fn rank_web_tier(
    build: &WebTierBuild,
    dispatch: &dyn BlockDispatch,
    obs: &Registry,
) -> WebTierScores {
    let _span = obs.span("bench/scale/rank");
    let config = TrustRankConfig::default();
    let trust = build.graph.trust_rank_with(&build.seeds, &config, dispatch);
    WebTierScores { trust, config }
}

/// Renders the deterministic scale section. Everything here is a pure
/// function of the build seed — no worker count, no wall clock.
pub fn scale_section(build: &WebTierBuild, scores: &WebTierScores) -> Table {
    let mut t = Table::new(
        &format!(
            "Scale: web tier ({} domains, seed {REPRO_SEED})",
            build.config.domains
        ),
        &["Metric", "Value"],
    );
    t.push_row(vec![
        "Domains generated".into(),
        build.config.domains.to_string(),
    ]);
    t.push_row(vec!["Shards streamed".into(), build.shards.to_string()]);
    t.push_row(vec![
        "Graph nodes (peak)".into(),
        build.graph.node_count().to_string(),
    ]);
    t.push_row(vec![
        "Graph edges (peak, merged)".into(),
        build.graph.edge_count().to_string(),
    ]);
    t.push_row(vec![
        "Links generated (raw)".into(),
        build.generated_links.to_string(),
    ]);
    // The generator's link-target map changed in v8 (pure-integer
    // self-excluding skew — see `pharmaverify_corpus::shard`), which
    // breaks byte-identity of this section against pre-v8 runs. The row
    // makes the generation lineage visible in the report itself.
    t.push_row(vec![
        "Link target map".into(),
        "self-excluding integer skew (v2)".into(),
    ]);
    t.push_row(vec![
        "Pharmacy domains".into(),
        build.pharmacies.to_string(),
    ]);
    t.push_row(vec!["Trusted seeds".into(), build.seeds.len().to_string()]);
    t.push_row(vec![
        "TrustRank iterations".into(),
        scores.config.iterations.to_string(),
    ]);
    let reached = scores.trust.iter().filter(|&&s| s > 0.0).count();
    t.push_row(vec!["Nodes with nonzero trust".into(), reached.to_string()]);
    // Web-tier graphs are nonempty by construction (the generator
    // rejects zero domains), so the fallback index is unreachable.
    let top = scores
        .trust
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .map_or(0, |(i, _)| i);
    t.push_row(vec![
        "Top-trust domain".into(),
        build
            .graph
            .name(top as pharmaverify_net::NodeId)
            .to_string(),
    ]);
    let seed_mass: f64 = build.seeds.iter().map(|&s| scores.trust[s as usize]).sum();
    t.push_row(vec![
        "Trust mass held by seeds".into(),
        format!("{seed_mass:.6}"),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pharmaverify_core::pipeline::Executor;
    use pharmaverify_net::SerialDispatch;
    use pharmaverify_obs::VirtualClock;

    fn private_obs() -> Registry {
        Registry::with_clock(Box::new(VirtualClock::new(0)))
    }

    #[test]
    fn scale_section_is_worker_count_independent() {
        let obs = private_obs();
        let build = build_web_tier(3000, &obs);
        let serial = rank_web_tier(&build, &SerialDispatch, &obs);
        let wide = rank_web_tier(&build, &Executor::new(4), &obs);
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&serial.trust), bits(&wide.trust));
        assert_eq!(
            scale_section(&build, &serial).to_string(),
            scale_section(&build, &wide).to_string()
        );
    }

    #[test]
    fn build_is_shard_size_invariant_and_section_renders() {
        let obs = private_obs();
        let build = build_web_tier(2500, &obs);
        // Rebuild with a radically different shard size: same frozen graph.
        let mut config = build.config;
        config.shard_size = 97;
        let mut builder = GraphBuilder::new();
        for shard in ShardedWebGenerator::new(config) {
            for r in &shard {
                let node = if r.is_pharmacy {
                    builder.add_pharmacy(&r.domain)
                } else {
                    builder.add_external(&r.domain)
                };
                for (target, weight) in &r.links {
                    builder.add_link(node, target, *weight);
                }
            }
        }
        assert_eq!(builder.freeze(), build.graph);

        let scores = rank_web_tier(&build, &SerialDispatch, &obs);
        let text = scale_section(&build, &scores).to_string();
        for needle in [
            "Scale: web tier (2500 domains",
            "Domains generated",
            "Graph edges (peak, merged)",
            "Link target map",
            "Trusted seeds",
            "Nodes with nonzero trust",
            "Trust mass held by seeds",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert_eq!(build.graph.node_count(), 2500, "closed world: no new nodes");
        assert!(build.generated_links >= build.graph.edge_count());
        let expected_shards = build.config.domains.div_ceil(build.config.shard_size);
        assert_eq!(build.shards, expected_shards);
    }

    #[test]
    fn trust_reaches_beyond_the_seed_set() {
        let obs = private_obs();
        let build = build_web_tier(2000, &obs);
        let scores = rank_web_tier(&build, &SerialDispatch, &obs);
        let reached = scores.trust.iter().filter(|&&s| s > 0.0).count();
        assert!(
            reached > build.seeds.len(),
            "trust must propagate past the seeds ({reached} reached)"
        );
    }
}
