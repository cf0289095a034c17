//! Deterministic XMark-style auction document generator.
//!
//! The original benchmark uses the `xmlgen` C program; this module
//! re-implements the generator as a synthetic equivalent: the same document
//! schema (the element and attribute names the 20 queries navigate), the same
//! entity proportions as XMark scale factor 1 (25 500 people, 12 000 open
//! auctions, 9 750 closed auctions, 21 750 items over six regions, 1 000
//! categories per factor 1.0), consistent cross references (bidders,
//! buyers/sellers and item refs point to existing persons/items) and
//! deterministic pseudo-random content so runs are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mxq_xmldb::shred::{shred, ShredOptions};
use mxq_xmldb::Document;

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct GenParams {
    /// XMark scale factor: 1.0 corresponds to the ≈100 MB document of the
    /// original benchmark; the paper sweeps 0.011 (1.1 MB) … 110 (11 GB).
    pub factor: f64,
    /// RNG seed (fixed default for reproducibility).
    pub seed: u64,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            factor: 0.01,
            seed: 42,
        }
    }
}

impl GenParams {
    /// Parameters for a given scale factor with the default seed.
    pub fn with_factor(factor: f64) -> Self {
        GenParams {
            factor,
            ..Default::default()
        }
    }

    fn count(&self, base: f64) -> usize {
        ((base * self.factor).round() as usize).max(1)
    }

    /// Number of persons at this scale factor.
    pub fn num_people(&self) -> usize {
        self.count(25_500.0)
    }
    /// Number of open auctions at this scale factor.
    pub fn num_open_auctions(&self) -> usize {
        self.count(12_000.0)
    }
    /// Number of closed auctions at this scale factor.
    pub fn num_closed_auctions(&self) -> usize {
        self.count(9_750.0)
    }
    /// Number of items (split over the six regions).
    pub fn num_items(&self) -> usize {
        self.count(21_750.0)
    }
    /// Number of categories.
    pub fn num_categories(&self) -> usize {
        self.count(1_000.0)
    }
}

const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];

const WORDS: [&str; 24] = [
    "gold",
    "silver",
    "vintage",
    "rare",
    "antique",
    "mint",
    "condition",
    "shipping",
    "offer",
    "auction",
    "collector",
    "edition",
    "classic",
    "original",
    "signed",
    "limited",
    "bargain",
    "premium",
    "refurbished",
    "handmade",
    "imported",
    "certified",
    "exclusive",
    "promptly",
];

const FIRST_NAMES: [&str; 12] = [
    "Ada", "Bruno", "Carla", "Dimitri", "Elena", "Farid", "Greta", "Hugo", "Ines", "Jorge",
    "Keiko", "Liam",
];

const LAST_NAMES: [&str; 12] = [
    "Abel", "Brandt", "Costa", "Dietrich", "Engel", "Fischer", "Grust", "Haas", "Ito", "Jansen",
    "Keulen", "Lopez",
];

const COUNTRIES: [&str; 8] = [
    "United States",
    "Germany",
    "Netherlands",
    "Japan",
    "Brazil",
    "Kenya",
    "Australia",
    "France",
];

const CITIES: [&str; 8] = [
    "Amsterdam",
    "Munich",
    "Twente",
    "Chicago",
    "Tokyo",
    "Nairobi",
    "Sydney",
    "Lyon",
];

const EDUCATIONS: [&str; 4] = ["High School", "College", "Graduate School", "Other"];

fn sentence(rng: &mut StdRng, words: usize) -> String {
    (0..words)
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

/// Generate the XMark-style document as XML text.
pub fn generate_xml(params: &GenParams) -> String {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let n_people = params.num_people();
    let n_open = params.num_open_auctions();
    let n_closed = params.num_closed_auctions();
    let n_items = params.num_items();
    let n_categories = params.num_categories();

    // rough pre-sizing: ~1 KB of text per entity keeps reallocation low
    let mut out =
        String::with_capacity(256 * (n_people + n_open + n_closed + n_items + n_categories) + 4096);
    out.push_str("<site>");

    // -- regions / items ---------------------------------------------------
    out.push_str("<regions>");
    let mut item_region = Vec::with_capacity(n_items);
    for (r, region) in REGIONS.iter().enumerate() {
        out.push_str(&format!("<{region}>"));
        for i in (0..n_items).filter(|i| i % REGIONS.len() == r) {
            item_region.push(region);
            let quantity = rng.gen_range(1..=5);
            let cat = rng.gen_range(0..n_categories);
            out.push_str(&format!(
                "<item id=\"item{i}\"><location>{}</location><quantity>{quantity}</quantity>\
                 <name>{} {}</name><payment>Creditcard</payment><description><text>{}</text></description>\
                 <shipping>Will ship internationally</shipping><incategory category=\"category{cat}\"/>\
                 <mailbox><mail><from>{}</from><to>{}</to><date>2006-06-{:02}</date>\
                 <text>{}</text></mail></mailbox></item>",
                COUNTRIES[rng.gen_range(0..COUNTRIES.len())],
                WORDS[rng.gen_range(0..WORDS.len())],
                WORDS[rng.gen_range(0..WORDS.len())],
                sentence(&mut rng, 12),
                FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
                FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
                rng.gen_range(1..=28),
                sentence(&mut rng, 6),
            ));
        }
        out.push_str(&format!("</{region}>"));
    }
    out.push_str("</regions>");

    // -- categories ---------------------------------------------------------
    out.push_str("<categories>");
    for c in 0..n_categories {
        out.push_str(&format!(
            "<category id=\"category{c}\"><name>{}</name><description><text>{}</text></description></category>",
            WORDS[rng.gen_range(0..WORDS.len())],
            sentence(&mut rng, 8),
        ));
    }
    out.push_str("</categories>");

    // -- catgraph -----------------------------------------------------------
    out.push_str("<catgraph>");
    for _ in 0..n_categories {
        let from = rng.gen_range(0..n_categories);
        let to = rng.gen_range(0..n_categories);
        out.push_str(&format!(
            "<edge from=\"category{from}\" to=\"category{to}\"/>"
        ));
    }
    out.push_str("</catgraph>");

    // -- people ---------------------------------------------------------------
    out.push_str("<people>");
    for p in 0..n_people {
        let name = format!(
            "{} {}",
            FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
            LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())]
        );
        out.push_str(&format!(
            "<person id=\"person{p}\"><name>{name}</name>\
             <emailaddress>mailto:{}@example.org</emailaddress>\
             <phone>+1 ({}) {}</phone>\
             <address><street>{} Main St</street><city>{}</city><country>{}</country>\
             <zipcode>{}</zipcode></address>",
            name.to_lowercase().replace(' ', "."),
            rng.gen_range(100..999),
            rng.gen_range(1_000_000..9_999_999),
            rng.gen_range(1..120),
            CITIES[rng.gen_range(0..CITIES.len())],
            COUNTRIES[rng.gen_range(0..COUNTRIES.len())],
            rng.gen_range(10_000..99_999),
        ));
        // ~50% of people have a homepage (Q17 relies on some not having one)
        if rng.gen_bool(0.5) {
            out.push_str(&format!(
                "<homepage>http://www.example.org/~person{p}</homepage>"
            ));
        }
        out.push_str(&format!(
            "<creditcard>{} {} {} {}</creditcard>",
            rng.gen_range(1000..9999),
            rng.gen_range(1000..9999),
            rng.gen_range(1000..9999),
            rng.gen_range(1000..9999)
        ));
        // ~80% of people carry a profile with an income (Q11/Q12/Q20)
        if rng.gen_bool(0.8) {
            let income = rng.gen_range(9_000.0_f64..250_000.0);
            out.push_str(&format!("<profile income=\"{income:.2}\">"));
            for _ in 0..rng.gen_range(0..4) {
                out.push_str(&format!(
                    "<interest category=\"category{}\"/>",
                    rng.gen_range(0..n_categories)
                ));
            }
            out.push_str(&format!(
                "<education>{}</education><gender>{}</gender>\
                 <business>{}</business><age>{}</age></profile>",
                EDUCATIONS[rng.gen_range(0..EDUCATIONS.len())],
                if rng.gen_bool(0.5) { "male" } else { "female" },
                if rng.gen_bool(0.5) { "Yes" } else { "No" },
                rng.gen_range(18..80),
            ));
        }
        // watches
        out.push_str("<watches>");
        for _ in 0..rng.gen_range(0..3) {
            out.push_str(&format!(
                "<watch open_auction=\"open_auction{}\"/>",
                rng.gen_range(0..n_open)
            ));
        }
        out.push_str("</watches></person>");
    }
    out.push_str("</people>");

    // -- open auctions --------------------------------------------------------
    out.push_str("<open_auctions>");
    for a in 0..n_open {
        let initial = rng.gen_range(1.0_f64..300.0);
        let n_bidders = rng.gen_range(0..6);
        out.push_str(&format!(
            "<open_auction id=\"open_auction{a}\"><initial>{initial:.2}</initial>\
             <reserve>{:.2}</reserve>",
            initial * rng.gen_range(1.1..2.5)
        ));
        let mut current = initial;
        for b in 0..n_bidders {
            current += rng.gen_range(1.0..30.0);
            out.push_str(&format!(
                "<bidder><date>2006-06-{:02}</date><time>{:02}:{:02}:00</time>\
                 <personref person=\"person{}\"/><increase>{:.2}</increase></bidder>",
                rng.gen_range(1..=28),
                rng.gen_range(0..24),
                rng.gen_range(0..60),
                rng.gen_range(0..n_people),
                6.0 + b as f64 * 1.5,
            ));
        }
        out.push_str(&format!(
            "<current>{current:.2}</current><privacy>{}</privacy>\
             <itemref item=\"item{}\"/><seller person=\"person{}\"/>\
             <annotation><author person=\"person{}\"/>\
             <description><text>{}</text></description><happiness>{}</happiness></annotation>\
             <quantity>1</quantity><type>Regular</type>\
             <interval><start>2006-01-01</start><end>2006-12-31</end></interval></open_auction>",
            if rng.gen_bool(0.5) { "Yes" } else { "No" },
            rng.gen_range(0..n_items),
            rng.gen_range(0..n_people),
            rng.gen_range(0..n_people),
            sentence(&mut rng, 10),
            rng.gen_range(1..10),
        ));
    }
    out.push_str("</open_auctions>");

    // -- closed auctions -------------------------------------------------------
    out.push_str("<closed_auctions>");
    for c in 0..n_closed {
        let price = rng.gen_range(5.0_f64..500.0);
        // the deep Q15/Q16 path exists in roughly a quarter of the annotations;
        // the first closed auction is always deep so the path exists at every
        // scale factor (xmlgen guarantees this too)
        let deep = rng.gen_bool(0.25) || c == 0;
        let description = if deep {
            format!(
                "<description><parlist><listitem><parlist><listitem><text>\
                 {} <emph><keyword>{}</keyword></emph> {}</text></listitem></parlist></listitem>\
                 <listitem><text>{}</text></listitem></parlist></description>",
                sentence(&mut rng, 4),
                WORDS[rng.gen_range(0..WORDS.len())],
                sentence(&mut rng, 3),
                sentence(&mut rng, 5),
            )
        } else {
            format!(
                "<description><text>{}</text></description>",
                sentence(&mut rng, 8)
            )
        };
        out.push_str(&format!(
            "<closed_auction><seller person=\"person{}\"/><buyer person=\"person{}\"/>\
             <itemref item=\"item{}\"/><price>{price:.2}</price><date>2006-06-{:02}</date>\
             <quantity>1</quantity><type>Regular</type>\
             <annotation><author person=\"person{}\"/>{description}\
             <happiness>{}</happiness></annotation></closed_auction>",
            rng.gen_range(0..n_people),
            rng.gen_range(0..n_people),
            rng.gen_range(0..n_items),
            rng.gen_range(1..=28),
            rng.gen_range(0..n_people),
            rng.gen_range(1..10),
        ));
    }
    out.push_str("</closed_auctions>");

    out.push_str("</site>");
    out
}

/// Generate and shred the document in one go (named `auction.xml`, which is
/// what the bundled queries reference).
pub fn generate_document(params: &GenParams) -> Document {
    let xml = generate_xml(params);
    shred("auction.xml", &xml, &ShredOptions::default()).expect("generated XML must be well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = GenParams::with_factor(0.002);
        assert_eq!(generate_xml(&p), generate_xml(&p));
    }

    #[test]
    fn generated_document_shreds_and_has_expected_shape() {
        let p = GenParams::with_factor(0.002);
        let doc = generate_document(&p);
        doc.check_invariants().unwrap();
        assert_eq!(doc.name_of(0), "site");
        assert_eq!(doc.elements_named("person").len(), p.num_people());
        assert_eq!(
            doc.elements_named("open_auction").len(),
            p.num_open_auctions()
        );
        assert_eq!(
            doc.elements_named("closed_auction").len(),
            p.num_closed_auctions()
        );
        assert_eq!(doc.elements_named("item").len(), p.num_items());
        assert!(!doc.elements_named("bidder").is_empty());
        assert!(
            !doc.elements_named("keyword").is_empty(),
            "Q15 path must exist"
        );
    }

    #[test]
    fn size_scales_roughly_linearly() {
        let small = generate_xml(&GenParams::with_factor(0.001)).len();
        let large = generate_xml(&GenParams::with_factor(0.004)).len();
        let ratio = large as f64 / small as f64;
        assert!(ratio > 2.5 && ratio < 6.0, "ratio {ratio}");
    }

    #[test]
    fn cross_references_are_consistent() {
        let p = GenParams::with_factor(0.002);
        let doc = generate_document(&p);
        // every buyer/@person refers to an existing person id
        let people: std::collections::HashSet<String> = doc
            .elements_named("person")
            .iter()
            .map(|&pre| doc.attribute(pre, "id").unwrap().to_string())
            .collect();
        for b in doc.elements_named("buyer") {
            let r = doc.attribute(b, "person").unwrap();
            assert!(people.contains(r), "dangling buyer reference {r}");
        }
    }
}
