//! The web-tier workload: build a sharded synthetic web into a frozen
//! CSR graph (generate → intern → freeze), then rank it repeatedly with
//! TrustRank and Anti-TrustRank seeded at the trusted prefix, on a
//! two-wide executor. Only `corpus::shard` and `net::csr` do work here.

use crate::ledger::{Fnv, Ledger};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Size;
use pharmaverify_core::pipeline::Executor;
use pharmaverify_corpus::{ShardedWebGenerator, WebScaleConfig};
use pharmaverify_net::{CsrGraph, GraphBuilder, NodeId, SerialDispatch, TrustRankConfig};
use std::time::{Duration, Instant};

/// Streams the web shard by shard into a builder and freezes it.
/// Returns the graph and the seconds spent generating, interning and
/// freezing.
fn build(config: WebScaleConfig) -> (CsrGraph, [f64; 3]) {
    let mut generate = Duration::ZERO;
    let mut intern = Duration::ZERO;
    let mut builder = GraphBuilder::new();
    let mut shards = ShardedWebGenerator::new(config);
    loop {
        let t = Instant::now();
        let Some(shard) = shards.next() else { break };
        generate += t.elapsed();
        let t = Instant::now();
        for record in &shard {
            let node = if record.is_pharmacy {
                builder.add_pharmacy(&record.domain)
            } else {
                builder.add_external(&record.domain)
            };
            for (target, weight) in &record.links {
                builder.add_link(node, target, *weight);
            }
        }
        intern += t.elapsed();
    }
    let t = Instant::now();
    let graph = builder.freeze();
    let freeze = t.elapsed();
    (graph, [generate, intern, freeze].map(|d| d.as_secs_f64()))
}

/// Edges a seeds-only power iteration relaxes from a source that holds
/// mass. A node first reached at BFS level `L` from the seeds holds
/// mass from iteration `L` on, so it relaxes its `degree` edges in
/// `iterations − L` of them. `reverse` walks in-edges, the direction
/// Anti-TrustRank propagates in. The nominal count, `edges ×
/// iterations`, charges every edge in every iteration.
pub fn useful_edges(graph: &CsrGraph, seeds: &[NodeId], iterations: usize, reverse: bool) -> u64 {
    let mut reached = vec![false; graph.node_count()];
    let mut frontier: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if !std::mem::replace(&mut reached[s as usize], true) {
            frontier.push(s);
        }
    }
    let mut total = 0u64;
    for level in 0..iterations {
        let mut next = Vec::new();
        for &u in &frontier {
            let mut degree = 0u64;
            let mut visit = |v: NodeId| {
                degree += 1;
                if !std::mem::replace(&mut reached[v as usize], true) {
                    next.push(v);
                }
            };
            if reverse {
                graph.in_edges(u).for_each(|(v, _)| visit(v));
            } else {
                graph.out_edges(u).for_each(|(v, _)| visit(v));
            }
            total += degree * (iterations - level) as u64;
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    total
}

/// One timed rank phase.
#[derive(Default)]
struct Phase {
    pass_ms: Vec<f64>,
    trust_s: Vec<f64>,
    anti_s: Vec<f64>,
    elapsed: Duration,
    /// Pass-1 scores, trust then anti.
    first: (Vec<f64>, Vec<f64>),
    /// Passes whose scores differ from pass 1.
    mismatched: u64,
}

fn bits(v: &[f64]) -> impl Iterator<Item = u64> + '_ {
    v.iter().map(|x| x.to_bits())
}

/// Ranks until `budget` is spent (at least one pass).
fn rank(graph: &CsrGraph, seeds: &[NodeId], budget: Duration, tracer: &mut Tracer) -> Phase {
    let exec = Executor::new(2);
    let config = TrustRankConfig::default();
    let mut phase = Phase::default();
    let started = Instant::now();
    for pass in 0u64.. {
        if pass > 0 && started.elapsed() >= budget {
            break;
        }
        let (trust, t_trust) = tracer.time("net.csr.trust_rank", Some(pass), || {
            graph.trust_rank_with(seeds, &config, &exec)
        });
        let (anti, t_anti) = tracer.time("net.csr.anti_trust_rank", Some(pass), || {
            graph.anti_trust_rank_with(seeds, &config, &exec)
        });
        phase.trust_s.push(t_trust.as_secs_f64());
        phase.anti_s.push(t_anti.as_secs_f64());
        phase.pass_ms.push((t_trust + t_anti).as_secs_f64() * 1e3);
        if pass == 0 {
            phase.first = (trust, anti);
        } else if !bits(&trust).eq(bits(&phase.first.0)) || !bits(&anti).eq(bits(&phase.first.1)) {
            phase.mismatched += 1;
        }
    }
    phase.elapsed = started.elapsed();
    phase
}

/// Runs the web-tier workload.
pub fn run(seed: u64, size: &Size, budget: Duration, tracer: &mut Tracer, ledger: &mut Ledger) {
    let config = WebScaleConfig::new(size.web_domains, seed);
    let mut steps: [Vec<f64>; 4] = Default::default();
    let mut kept = None;
    for _ in 0..size.setups {
        drop(kept.take());
        let (graph, split) = build(config);
        for (i, s) in split.iter().enumerate() {
            steps[i].push(*s);
        }
        steps[3].push(split.iter().sum());
        kept = Some(graph);
    }
    let Some(graph) = kept else {
        return ledger.fail("no set-up ran");
    };
    let n = size.setups;
    ledger.put("corpus.shard.generate_s", median(&steps[0]), n);
    ledger.put("net.csr.intern_s", median(&steps[1]), n);
    ledger.put("net.csr.freeze_s", median(&steps[2]), n);
    ledger.put("setup_s", median(&steps[3]), n);

    let trusted = ShardedWebGenerator::new(config).trusted_domains();
    let seeds: Vec<NodeId> = trusted.iter().filter_map(|d| graph.node(d)).collect();
    ledger.check(seeds.len() == trusted.len() && !seeds.is_empty(), || {
        format!(
            "{} of {} trusted domains interned",
            seeds.len(),
            trusted.len()
        )
    });

    let traced = tracer.is_on();
    let plain = rank(
        &graph,
        &seeds,
        if traced { budget / 2 } else { budget },
        &mut Tracer::new(false),
    );
    let mut digest = Fnv::default();
    bits(&plain.first.0)
        .chain(bits(&plain.first.1))
        .for_each(|b| digest.write_u64(b));
    ledger.fact("scores_digest", digest.hex());
    ledger.fact("nodes", graph.node_count());
    ledger.fact("edges", graph.edge_count());
    record_phase(&plain, true, ledger);
    if !traced {
        return;
    }

    let run = rank(&graph, &seeds, budget / 2, tracer);
    record_phase(&run, false, ledger);
    let config = TrustRankConfig::default();
    let serial = (
        graph.trust_rank_with(&seeds, &config, &SerialDispatch),
        graph.anti_trust_rank_with(&seeds, &config, &SerialDispatch),
    );
    ledger.check(
        bits(&serial.0).eq(bits(&plain.first.0)) && bits(&serial.1).eq(bits(&plain.first.1)),
        || "pass-1 scores differ from a SerialDispatch pass".to_string(),
    );
    let per_op = |p: &Phase| p.elapsed.as_secs_f64() / p.pass_ms.len() as f64;
    ledger.put(
        "trace.overhead",
        per_op(&run) / per_op(&plain),
        run.pass_ms.len(),
    );

    let trust_s = median(&run.trust_s);
    let anti_s = median(&run.anti_s);
    let passes = run.pass_ms.len();
    ledger.put("net.csr.trust_s", trust_s, passes);
    ledger.put("net.csr.anti_s", anti_s, passes);
    ledger.put("net.csr.nodes", graph.node_count() as f64, 1);
    ledger.put("net.csr.edges", graph.edge_count() as f64, 1);
    let nominal = (graph.edge_count() * config.iterations) as u64;
    let trust_useful = useful_edges(&graph, &seeds, config.iterations, false);
    let anti_useful = useful_edges(&graph, &seeds, config.iterations, true);
    ledger.put("net.csr.trust_edges_nominal", nominal as f64, 1);
    ledger.put("net.csr.trust_edges_useful", trust_useful as f64, 1);
    ledger.put(
        "net.csr.trust_useful_eps",
        trust_useful as f64 / trust_s,
        passes,
    );
    ledger.put("net.csr.anti_edges_useful", anti_useful as f64, 1);
    ledger.put(
        "net.csr.anti_useful_eps",
        anti_useful as f64 / anti_s,
        passes,
    );
    ledger.fact(
        "edges_useful",
        format!("trust={trust_useful} anti={anti_useful} nominal={nominal}"),
    );
}

/// Checks a rank phase and, for the untraced one (`end_to_end`),
/// records its end-to-end metrics.
fn record_phase(phase: &Phase, end_to_end: bool, ledger: &mut Ledger) {
    let passes = phase.pass_ms.len();
    ledger.attempted += passes as u64;
    ledger.failed += phase.mismatched;
    ledger.check(phase.mismatched == 0, || {
        format!("{} rank passes differ from pass 1", phase.mismatched)
    });
    if end_to_end {
        ledger.put_operations(&phase.pass_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// a→b, a→c, b→c, c→a, c→d, d→e, f→a (f unreachable from a), e
    /// dangling.
    fn six() -> (CsrGraph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(|d| b.add_pharmacy(d))
            .collect();
        for (from, to) in [
            (0, "b"),
            (0, "c"),
            (1, "c"),
            (2, "a"),
            (2, "d"),
            (3, "e"),
            (5, "a"),
        ] {
            b.add_link(ids[from], to, 1.0);
        }
        (b.freeze(), vec![ids[0]])
    }

    /// Counts, iteration by iteration, the edges leaving every node that
    /// holds mass, growing the mass-holding set along those edges.
    fn brute_force(graph: &CsrGraph, seeds: &[NodeId], iterations: usize, reverse: bool) -> u64 {
        let mut holding: BTreeSet<NodeId> = seeds.iter().copied().collect();
        let mut total = 0;
        for _ in 0..iterations {
            let mut next = holding.clone();
            for &u in &holding {
                let edges: Vec<NodeId> = if reverse {
                    graph.in_edges(u).map(|e| e.0).collect()
                } else {
                    graph.out_edges(u).map(|e| e.0).collect()
                };
                total += edges.len() as u64;
                next.extend(edges);
            }
            holding = next;
        }
        total
    }

    #[test]
    fn useful_edges_match_a_brute_force_count() {
        let (graph, seeds) = six();
        for iterations in 1..=6 {
            for reverse in [false, true] {
                assert_eq!(
                    useful_edges(&graph, &seeds, iterations, reverse),
                    brute_force(&graph, &seeds, iterations, reverse),
                    "iterations {iterations}, reverse {reverse}"
                );
            }
        }
        // By hand, forward from a over 3 iterations: a (level 0, 2 edges)
        // ×3, b and c (level 1, 1 + 2 edges) ×2, d (level 2, 1 edge) ×1.
        assert_eq!(useful_edges(&graph, &seeds, 3, false), 6 + 6 + 1);
        assert!(useful_edges(&graph, &seeds, 3, false) < (graph.edge_count() * 3) as u64);
    }

    #[test]
    fn mass_holding_nodes_are_the_bfs_levels() {
        // The counting model against the kernel itself: after k
        // iterations exactly the nodes within k hops hold trust.
        let (graph, seeds) = six();
        for iterations in 1..=4 {
            let config = TrustRankConfig {
                iterations,
                ..TrustRankConfig::default()
            };
            let trust = graph.trust_rank(&seeds, &config);
            let holding = trust.iter().filter(|&&t| t > 0.0).count();
            let within = [1, 3, 4, 5, 5][iterations];
            assert_eq!(holding, within, "after {iterations} iterations");
        }
    }
}
