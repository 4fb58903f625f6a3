//! `repro` — regenerate the paper's figures and tables.
//!
//! One module per experiment id of EXPERIMENTS.md; each prints an
//! aligned text table (plus CSV under `--csv`) at the default seed
//! ([`optpar_bench::SEED`]).
//!
//! Usage: `cargo run --release -p optpar-bench --bin repro --
//! [--csv] (<id> [n])... | all`
//!
//! `n` is the experiment's one size knob (trials, rounds, points, …
//! — see each module's header); `all` runs every id at its default,
//! which is how `results/repro_all.txt` is produced.

mod ex1;
mod fig2;
mod fig3;
mod tab_c3;
mod tab_cont;
mod tab_conv;
mod tab_ord;
mod tab_p2;
mod tab_prof;
mod tab_rho;
mod tab_rt;
mod tab_seat;
mod tab_t3;
mod tab_track;

/// One experiment: its EXPERIMENTS.md id, the name of its size knob
/// (`None`: it takes none), and its entry point.
type Experiment = (&'static str, Option<&'static str>, fn(Option<usize>, bool));

const EXPERIMENTS: [Experiment; 14] = [
    ("fig2", Some("trials"), fig2::run),
    ("fig3", Some("rounds"), fig3::run),
    ("ex1", Some("trials"), ex1::run),
    ("tab-p2", Some("trials"), tab_p2::run),
    ("tab-t3", Some("trials"), tab_t3::run),
    ("tab-c3", Some("trials"), tab_c3::run),
    ("tab-conv", Some("reps"), tab_conv::run),
    ("tab-track", Some("rounds_per_phase"), tab_track::run),
    ("tab-rho", Some("rounds"), tab_rho::run),
    ("tab-rt", None, |_, csv| tab_rt::run(csv)),
    ("tab-prof", Some("points"), tab_prof::run),
    ("tab-ord", Some("trials"), tab_ord::run),
    ("tab-seat", Some("trials"), tab_seat::run),
    ("tab-cont", None, |_, csv| tab_cont::run(csv)),
];

fn usage() -> ! {
    eprintln!("usage: repro [--csv] (<id> [n])... | all\n\nids:");
    for (id, knob, _) in &EXPERIMENTS {
        match knob {
            Some(k) => eprintln!("  {id} [{k}]"),
            None => eprintln!("  {id}"),
        }
    }
    std::process::exit(2);
}

fn main() {
    let mut csv = false;
    // (experiment, its `n` if given), in command-line order.
    let mut plan: Vec<(&Experiment, Option<usize>)> = Vec::new();
    for a in std::env::args().skip(1) {
        if a == "--csv" {
            csv = true;
        } else if a == "all" && plan.is_empty() {
            plan.extend(EXPERIMENTS.iter().map(|e| (e, None)));
        } else if let Some(e) = EXPERIMENTS.iter().find(|e| e.0 == a) {
            plan.push((e, None));
        } else {
            // Not an id: it must be the `n` of the id just before it.
            match (a.parse::<usize>(), plan.last_mut()) {
                (Ok(n), Some(((_, Some(_), _), slot @ None))) => *slot = Some(n),
                _ => {
                    eprintln!("repro: unexpected argument `{a}`");
                    usage();
                }
            }
        }
    }
    if plan.is_empty() {
        usage();
    }
    for (i, ((_, _, run), n)) in plan.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        run(n, csv);
    }
}
