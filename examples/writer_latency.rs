//! Writer latency: mean wall-clock per `execute_update` (bidder insert
//! into one open auction), measured after warm-up — the acceptance metric
//! for the write path (BASELINES.md "Writer latency").
//!
//! ```sh
//! cargo run --release --example writer_latency            # sf 0.001
//! MXQ_SCALE=0.01 cargo run --release --example writer_latency
//! ```

use std::sync::Arc;
use std::time::Instant;

use mxq::xmark::gen::{generate_xml, GenParams};
use mxq::xquery::Database;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let factor = mxq_bench::env_scale_or_exit().unwrap_or(0.001);
    let xml = generate_xml(&GenParams::with_factor(factor));
    let db = Arc::new(Database::new());
    db.load_document("auction.xml", &xml)?;
    let mut s = db.session();

    let update = "insert nodes <bidder><date>2006-07-20</date><increase>1.50</increase></bidder> \
                  as last into doc(\"auction.xml\")/site/open_auctions/open_auction[1]";
    const WARMUP: usize = 20;
    const MEASURED: usize = 200;
    for _ in 0..WARMUP {
        s.execute_update(update)?;
    }
    let start = Instant::now();
    for _ in 0..MEASURED {
        s.execute_update(update)?;
    }
    let elapsed = start.elapsed();
    println!(
        "scale factor {factor}: {MEASURED} updates in {:.1} ms -> {:.3} ms/update",
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e3 / MEASURED as f64
    );
    Ok(())
}
