//! Committed digests (item count + FNV-1a of the serialized bytes) of every
//! read statement for the default seed at the full scales.  A run with the
//! default seed must reproduce them; a legitimate change of query output is
//! made in a `benchmark` PR that copies the new values from the report's
//! `per_statement` rows.

use crate::measure::Checks;
use crate::stats::Digest;
use crate::workloads::{Kind, Statement};

/// Label of the one digest that covers the whole `adhoc` statement stream.
pub const STREAM: &str = "stream";

/// `(workload, statement label, items, hash)`.
const GOLDEN: &[(&str, &str, usize, u64)] = &[
    ("scan.sf0.1", "Q1", 1, 0x76f8e509964d9182),
    ("scan.sf0.1", "Q2", 1200, 0x37823b89d88d0181),
    ("scan.sf0.1", "Q3", 209, 0xaf2aba9c2d930b51),
    ("scan.sf0.1", "Q4", 0, 0xcbf29ce484222325),
    ("scan.sf0.1", "Q5", 1, 0x8b91951840186c9d),
    ("scan.sf0.1", "Q6", 1, 0x0f24700b3044843c),
    ("scan.sf0.1", "Q7", 1, 0x40b50034e96c0f97),
    ("scan.sf0.1", "Q13", 363, 0xc31c5cc5f6221add),
    ("scan.sf0.1", "Q14", 836, 0x86edd5a7444d910d),
    ("scan.sf0.1", "Q15", 253, 0x92bd0c6e4fb6b8b4),
    ("scan.sf0.1", "Q16", 253, 0x41597ab86e8fb861),
    ("scan.sf0.1", "Q17", 1296, 0xcabadd4cd43bb482),
    ("scan.sf0.1", "Q18", 1200, 0x870dc5113c0b144a),
    ("scan.sf0.1", "Q19", 2175, 0x9cb9da4aebfaa9cf),
    ("scan.sf0.1", "Q20", 1, 0xb320253cbe3db619),
    ("join.sf0.1", "Q8", 2550, 0xf6b68eba32f935ca),
    ("join.sf0.1", "Q9", 2550, 0xda1bc523eccc4a6a),
    ("join.sf0.1", "Q10", 100, 0x22782ea00dc44f5e),
    ("join.sf0.1", "Q11", 2550, 0x9d3495129cd05814),
    ("join.sf0.1", "Q12", 1692, 0xc5aefd619b76c42f),
    ("adhoc.sf0.001", STREAM, 30976, 0x18fd65b789586e6d),
    ("rw_durable.sf0.05", "Q1", 1, 0x0d376aca321569e3),
    ("rw_durable.sf0.05", "Q2", 600, 0x2ba2b4eab86503bd),
    ("rw_durable.sf0.05", "Q5", 1, 0x2be33d1809c9ae95),
    ("rw_durable.sf0.05", "Q6", 1, 0x0d9de1f0f8a5ddc4),
    ("rw_durable.sf0.05", "Q13", 181, 0xdb017383c32d2519),
    ("rw_durable.sf0.05", "Q17", 607, 0x8c67c90fd80a347b),
];

fn lookup(workload: &str, label: &str) -> Option<Digest> {
    GOLDEN
        .iter()
        .find(|(w, l, _, _)| *w == workload && *l == label)
        .map(|&(_, _, items, hash)| Digest { items, hash })
}

/// The digest over all statements of a stream, or `None` if one failed.
pub fn stream_digest(digests: &[Option<Digest>]) -> Option<Digest> {
    let all: Option<Vec<Digest>> = digests.iter().copied().collect();
    all.map(|all| Digest::combine(&all))
}

pub fn check(
    workload: &str,
    kind: Kind,
    statements: &[Statement],
    produced: &[Option<Digest>],
    checks: &mut Checks,
) {
    let mut compare = |label: &str, produced: Option<Digest>| {
        let golden = lookup(workload, label);
        checks.expect(golden.is_some() && golden == produced, || {
            let show = |d: Option<Digest>| d.map_or("nothing".to_string(), |d| d.to_string());
            format!(
                "{workload} {label}: produced {}, golden {}",
                show(produced),
                show(golden)
            )
        });
    };
    if kind == Kind::Adhoc {
        compare(STREAM, stream_digest(produced));
    } else {
        for (s, digest) in statements.iter().zip(produced) {
            compare(&s.label, *digest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn every_read_statement_of_every_workload_has_a_golden_digest() {
        for w in &WORKLOADS {
            if w.kind == Kind::Adhoc {
                assert!(lookup(w.name, STREAM).is_some(), "{}", w.name);
            }
            for id in w.queries {
                assert!(
                    lookup(w.name, &format!("Q{id}")).is_some(),
                    "{} Q{id}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn a_wrong_or_missing_digest_fails_the_check() {
        let statements = WORKLOADS[1].read_statements(0);
        let mut produced: Vec<Option<Digest>> = statements
            .iter()
            .map(|s| lookup(WORKLOADS[1].name, &s.label))
            .collect();
        let mut checks = Checks::default();
        check(
            WORKLOADS[1].name,
            Kind::Passes,
            &statements,
            &produced,
            &mut checks,
        );
        assert_eq!((checks.attempted, checks.failed), (5, 0));
        produced[0] = None;
        produced[1].as_mut().unwrap().hash ^= 1;
        check(
            WORKLOADS[1].name,
            Kind::Passes,
            &statements,
            &produced,
            &mut checks,
        );
        assert_eq!((checks.attempted, checks.failed), (10, 2));
    }
}
