//! The four workloads: names, scales and the statement streams a seed gives.
//!
//! The engine only ever sees generated XML and statement text; everything
//! here is a pure function of the seed.

use mxq_xmark::gen::GenParams;
use mxq_xmark::queries::query_text;
use rand::{Rng, SeedableRng, StdRng};

/// Seed of the committed golden digests.
pub const DEFAULT_SEED: u64 = 42;

/// Scale of the document the cross-configuration digest check runs on.
pub const DIFFERENTIAL_FACTOR: f64 = 0.01;

/// Distinct statement texts of `adhoc` — 32 times the 256-entry plan cache,
/// so cycling through them never hits it.
pub const ADHOC_STATEMENTS: usize = 8192;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read-only XMark queries, plan cache warm; a pass is the unit of work.
    Passes,
    /// Distinct statement texts; a statement is the unit of work.
    Adhoc,
    /// One writer and one reader on a durable database; a commit is the
    /// unit of work.
    ReadWrite,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// XMark scale factor (divided by ten under `--quick`).
    pub factor: f64,
    /// XMark query numbers the workload reads with (empty for `adhoc`).
    pub queries: &'static [usize],
    /// Passes (`Passes`), statements (`Adhoc`) or commits (`ReadWrite`) of
    /// the fixed-count traced run.
    pub traced_units: usize,
    /// What one sample of `op_p50_ms` spans.
    pub unit: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scan.sf0.1",
        kind: Kind::Passes,
        factor: 0.1,
        queries: &[1, 2, 3, 4, 5, 6, 7, 13, 14, 15, 16, 17, 18, 19, 20],
        traced_units: 10,
        unit: "pass of 15 queries",
    },
    Workload {
        name: "join.sf0.1",
        kind: Kind::Passes,
        factor: 0.1,
        queries: &[8, 9, 10, 11, 12],
        traced_units: 6,
        unit: "pass of 5 queries",
    },
    Workload {
        name: "adhoc.sf0.001",
        kind: Kind::Adhoc,
        factor: 0.001,
        queries: &[],
        traced_units: 5000,
        unit: "statement",
    },
    Workload {
        name: "rw_durable.sf0.05",
        kind: Kind::ReadWrite,
        factor: 0.05,
        queries: &[1, 2, 5, 6, 13, 17],
        traced_units: 1000,
        unit: "durable commit",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn factor(&self, quick: bool) -> f64 {
        if quick {
            self.factor / 10.0
        } else {
            self.factor
        }
    }

    pub fn gen_params(&self, seed: u64, quick: bool) -> GenParams {
        GenParams {
            factor: self.factor(quick),
            seed,
        }
    }

    /// The read statements in issue order.
    pub fn read_statements(&self, seed: u64) -> Vec<Statement> {
        match self.kind {
            Kind::Adhoc => adhoc_statements(seed, ADHOC_STATEMENTS),
            Kind::Passes | Kind::ReadWrite => self
                .queries
                .iter()
                .map(|&id| Statement {
                    label: format!("Q{id}"),
                    text: query_text(id).to_string(),
                })
                .collect(),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    pub label: String,
    pub text: String,
}

/// The `adhoc` stream: six short path/FLWOR templates, each statement with
/// a seeded numeric literal inlined.  The literal's fraction is the
/// statement's index, so all `count` texts are distinct whatever the seed
/// draws.
pub fn adhoc_statements(seed: u64, count: usize) -> Vec<Statement> {
    assert!(
        count <= 100_000,
        "the index must fit the five-digit fraction"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xad0c_ad0c_ad0c_ad0c);
    (0..count)
        .map(|i| {
            let template = rng.gen_range(0..6u32);
            let lit = |whole: i32| format!("{whole}.{i:05}");
            let text = match template {
                0 => format!(
                    "count(doc(\"auction.xml\")/site/closed_auctions/closed_auction[price >= {}])",
                    lit(rng.gen_range(5..500))
                ),
                1 => format!(
                    "for $a in doc(\"auction.xml\")/site/open_auctions/open_auction \
                     where $a/current > {} return $a/current/text()",
                    lit(rng.gen_range(1..400))
                ),
                2 => format!(
                    "for $p in doc(\"auction.xml\")/site/people/person \
                     where $p/profile/@income > {} return $p/name/text()",
                    lit(rng.gen_range(9_000..250_000))
                ),
                3 => format!(
                    "count(doc(\"auction.xml\")/site/regions//item[quantity >= {}])",
                    lit(rng.gen_range(0..5))
                ),
                4 => format!(
                    "for $a in doc(\"auction.xml\")/site/open_auctions/open_auction \
                     where $a/initial < {} return <cheap id=\"{{$a/@id}}\">{{$a/initial/text()}}</cheap>",
                    lit(rng.gen_range(1..300))
                ),
                _ => format!(
                    "let $b := doc(\"auction.xml\")/site/open_auctions/open_auction/bidder \
                     return count($b[increase > {}])",
                    lit(rng.gen_range(5..14))
                ),
            };
            Statement {
                label: format!("T{template}"),
                text,
            }
        })
        .collect()
}

/// The seeded XQUF write stream of `rw_durable`: five kinds (insert bidder,
/// delete bidder, replace value, replace node, rename) against a random
/// open auction of `auction.xml`.  No kind adds or removes an auction, so
/// every statement finds its target.
pub struct UpdateStream {
    rng: StdRng,
    auctions: usize,
    op: usize,
}

impl UpdateStream {
    pub fn new(seed: u64, params: &GenParams) -> UpdateStream {
        UpdateStream {
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_face_5eed_face),
            auctions: params.num_open_auctions(),
            op: 0,
        }
    }
}

impl Iterator for UpdateStream {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let op = self.op;
        self.op += 1;
        let index = self.rng.gen_range(0..self.auctions) + 1;
        let auction = format!("doc(\"auction.xml\")/site/open_auctions/open_auction[{index}]");
        Some(match self.rng.gen_range(0..5u32) {
            0 => format!(
                "insert nodes <bidder><date>2006-07-{:02}</date>\
                 <increase>{}.50</increase></bidder> as last into {auction}",
                1 + op % 28,
                1 + op % 9
            ),
            1 => format!("delete nodes {auction}/bidder[1]"),
            2 => format!(
                "replace value of node {auction}/current with \"{}.37\"",
                100 + op % 400
            ),
            3 => format!(
                "replace node {auction}/annotation/happiness \
                 with <happiness>{}</happiness>",
                op % 10
            ),
            _ => format!("rename node {auction}/type as \"type\""),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn workload_names_are_the_fixed_four() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "scan.sf0.1",
                "join.sf0.1",
                "adhoc.sf0.001",
                "rw_durable.sf0.05"
            ]
        );
        assert!(find("join.sf0.1").is_some());
        assert!(find("join").is_none());
        assert_eq!(find("scan.sf0.1").unwrap().factor(true), 0.01);
    }

    #[test]
    fn scan_and_join_split_the_twenty_queries() {
        let mut ids: Vec<usize> = WORKLOADS[0]
            .queries
            .iter()
            .chain(WORKLOADS[1].queries)
            .copied()
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=20).collect::<Vec<_>>());
    }

    #[test]
    fn same_seed_gives_identical_statement_streams() {
        assert_eq!(adhoc_statements(7, 500), adhoc_statements(7, 500));
        assert_ne!(adhoc_statements(7, 500), adhoc_statements(8, 500));
        let params = GenParams {
            factor: 0.001,
            seed: 7,
        };
        let a: Vec<String> = UpdateStream::new(7, &params).take(200).collect();
        let b: Vec<String> = UpdateStream::new(7, &params).take(200).collect();
        let c: Vec<String> = UpdateStream::new(8, &params).take(200).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn adhoc_texts_are_all_distinct_and_outnumber_the_plan_cache() {
        let statements = adhoc_statements(DEFAULT_SEED, ADHOC_STATEMENTS);
        let distinct: HashSet<&str> = statements.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(distinct.len(), ADHOC_STATEMENTS);
        assert!(distinct.len() >= 4096);
        let templates: HashSet<&str> = statements.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(templates.len(), 6);
    }

    #[test]
    fn update_stream_uses_all_five_kinds_within_the_auction_range() {
        let params = GenParams {
            factor: 0.001,
            seed: 1,
        };
        let texts: Vec<String> = UpdateStream::new(1, &params).take(300).collect();
        for prefix in [
            "insert nodes",
            "delete nodes",
            "replace value",
            "replace node",
            "rename node",
        ] {
            assert!(texts.iter().any(|t| t.starts_with(prefix)), "{prefix}");
        }
        let auctions = params.num_open_auctions();
        assert!(!texts
            .iter()
            .any(|t| t.contains(&format!("open_auction[{}]", auctions + 1))));
        assert!(texts
            .iter()
            .any(|t| t.contains(&format!("open_auction[{auctions}]"))));
    }
}
