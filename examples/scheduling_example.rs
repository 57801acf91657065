//! The paper's Fig. 7 scheduling example: two access points (#1, #2 →
//! ids 0, 1) and two field devices (#3, #4 → ids 2, 3) with slotframe
//! lengths 61 / 11 / 7, showing how each node combines its three
//! autonomous schedules into one — with no negotiation whatsoever.
//!
//! ```sh
//! cargo run --release --example scheduling_example
//! ```

use digs_routing::messages::ParentSlot;
use digs_scheduling::slotframe::CellAction;
use digs_scheduling::{DigsScheduler, SlotframeLengths};
use digs_sim::ids::NodeId;
use digs_sim::time::Asn;

fn cell_glyph(action: Option<CellAction>) -> &'static str {
    match action {
        None => "  .  ",
        Some(CellAction::TxBeacon) => " EB↑ ",
        Some(CellAction::RxBeacon { .. }) => " EB↓ ",
        Some(CellAction::Shared) => " SHR ",
        Some(CellAction::TxData { .. }) => " TX  ",
        Some(CellAction::RxData) => " RX  ",
    }
}

fn main() {
    let lengths = SlotframeLengths::example();
    println!(
        "Fig. 7: slotframes sync={} routing={} app={} (hyper-period {})",
        lengths.sync,
        lengths.routing,
        lengths.app,
        lengths.hyper_period()
    );

    // Graph routes of Fig. 7(a): primary #3→#1 and #4→#2; backups #3⇢#2
    // and #4⇢#1.
    let mut schedulers: Vec<DigsScheduler> =
        (0..4u16).map(|i| DigsScheduler::new(NodeId(i), 2, lengths, 3)).collect();
    schedulers[2].set_parents(Some(NodeId(0)), Some(NodeId(1)));
    schedulers[3].set_parents(Some(NodeId(1)), Some(NodeId(0)));
    // Parents learn their children (in the full stack, from the parent ids
    // each child's join-in carries).
    schedulers[0].add_child(NodeId(2), ParentSlot::Best);
    schedulers[0].add_child(NodeId(3), ParentSlot::SecondBest);
    schedulers[1].add_child(NodeId(3), ParentSlot::Best);
    schedulers[1].add_child(NodeId(2), ParentSlot::SecondBest);

    // Eq. 4 check against the paper: #3's attempts land in app slots
    // 1, 2, 3 and #4's in 4, 5, 6.
    for (node, expect) in [(2u16, [1, 2, 3]), (3, [4, 5, 6])] {
        let s = &schedulers[node as usize];
        let slots: Vec<u32> = (1..=3).map(|p| s.tx_slot(NodeId(node), p)).collect();
        println!("  node #{} attempt slots (Eq. 4): {:?}", node + 1, slots);
        assert_eq!(slots, expect);
    }

    println!();
    println!("combined schedules for the first 22 slots (cf. Fig. 7(e)):");
    print!("{:>6}", "ASN");
    for node in 0..4 {
        print!(" | node {:>2}", node + 1);
    }
    println!();
    for asn in 0..22u64 {
        print!("{asn:>6}");
        for s in &schedulers {
            print!(" |  {} ", cell_glyph(s.cell(Asn(asn)).map(|c| c.action)));
        }
        println!();
    }
    println!();
    println!("legend: EB↑ beacon tx, EB↓ beacon rx, SHR shared routing slot,");
    println!("        TX data tx, RX data rx, . sleep");
    println!();
    println!("note how slot 0 resolves per-node by priority: nodes whose sync");
    println!("schedule claims it use it for sync; the others fall back to the");
    println!("shared routing slot — no traffic class is permanently blocked");
    println!("because the three slotframe lengths are coprime.");
}
