//! The paper's Fig. 6 routing example, reproduced with the real
//! [`DigsRouting`] state machines: two access points (AP1, AP2) and four
//! field devices (#3–#6) exchange join-in broadcasts until the routing graph
//! of Fig. 6(b) emerges.
//!
//! ```sh
//! cargo run --release --example routing_example
//! ```

use digs_routing::messages::RoutingEvent;
use digs_routing::{DigsRouting, RoutingConfig};
use digs_sim::ids::NodeId;
use digs_sim::rf::Dbm;
use digs_sim::time::Asn;

/// Paper-style label for a node id (ids 0, 1 are AP1, AP2; devices are
/// numbered from #3 as in Fig. 6).
fn label(id: NodeId) -> String {
    match id.0 {
        0 => "AP1".to_string(),
        1 => "AP2".to_string(),
        n => format!("#{}", n + 1),
    }
}

/// Delivers a join-in from `from` to `to` over a link with the given RSS
/// and prints any parent changes.
fn deliver(nodes: &mut [DigsRouting], from: usize, to: usize, rss_dbm: f64, asn: u64) {
    let msg = nodes[from].join_in();
    let from_id = nodes[from].id();
    let events = nodes[to].on_join_in(from_id, &msg, Dbm(rss_dbm), Asn(asn));
    for event in events {
        if let RoutingEvent::ParentsChanged { best, second } = event {
            println!(
                "  {} now: best={} second={}",
                label(nodes[to].id()),
                best.map_or("-".into(), label),
                second.map_or("-".into(), label),
            );
        }
    }
}

fn main() {
    // Ids: 0 = AP1, 1 = AP2, then devices #3, #4, #5, #6 as in the figure.
    let config = RoutingConfig::default();
    let mut nodes: Vec<DigsRouting> =
        (0..6u16).map(|i| DigsRouting::new(NodeId(i), i < 2, config, 7, Asn::ZERO)).collect();
    let (ap1, ap2, n3, n4, n5, n6) = (0usize, 1, 2, 3, 4, 5);

    println!("Fig. 6: distributed route generation");
    println!("topology: #5-AP1 (strong), #5-AP2, #6-AP2 (strong), #6-AP1,");
    println!("          #4-#6 (strong), #4-#5, #3-#4 (strong), #3-#5");
    println!();

    // The APs begin broadcasting; #5 and #6 join at rank 2.
    deliver(&mut nodes, ap1, n5, -55.0, 1);
    deliver(&mut nodes, ap2, n5, -72.0, 2);
    deliver(&mut nodes, ap2, n6, -55.0, 3);
    deliver(&mut nodes, ap1, n6, -72.0, 4);
    // #5 and #6 hear each other — same rank, so the link is never used.
    deliver(&mut nodes, n5, n6, -55.0, 5);
    deliver(&mut nodes, n6, n5, -55.0, 6);
    // #4 hears both and picks #6 (smallest accumulated ETX), then #3 joins
    // through #4 with #5 as backup.
    deliver(&mut nodes, n6, n4, -55.0, 7);
    deliver(&mut nodes, n5, n4, -76.0, 8);
    deliver(&mut nodes, n4, n3, -55.0, 9);
    deliver(&mut nodes, n5, n3, -74.0, 10);

    println!();
    println!("resulting graph (cf. Fig. 6(b)):");
    for node in &nodes[2..] {
        println!(
            "  {}: rank={} primary={} backup={} ETXw={:.2}",
            label(node.id()),
            node.rank(),
            node.best_parent().map_or("-".into(), label),
            node.second_best_parent().map_or("-".into(), label),
            node.etx_w(),
        );
    }
    assert_eq!(nodes[n5].best_parent(), Some(NodeId(0)), "#5 → AP1 primary");
    assert_eq!(nodes[n6].best_parent(), Some(NodeId(1)), "#6 → AP2 primary");
    assert_eq!(nodes[n4].best_parent(), Some(NodeId(5)), "#4 → #6 primary");
    assert_eq!(nodes[n3].best_parent(), Some(NodeId(3)), "#3 → #4 primary");
    assert_eq!(nodes[n5].second_best_parent(), Some(NodeId(1)), "#5 ⇢ AP2 backup");
    assert_eq!(nodes[n6].second_best_parent(), Some(NodeId(0)), "#6 ⇢ AP1 backup");
    println!();
    println!("matches the paper's example: primary #3→#4→#6→AP2 and #5→AP1,");
    println!("backups #3⇢#5, #4⇢#5, #5⇢AP2, #6⇢AP1; the same-rank #5–#6 link is unused.");
}
