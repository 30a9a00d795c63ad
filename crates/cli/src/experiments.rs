//! `oolong experiments` — runs every experiment of `DESIGN.md` and prints
//! the paper-vs-measured summary that `EXPERIMENTS.md` records.

use datagroups::{overhead, CheckOptions, Checker};
use oolong_interp::{ExecConfig, Interp, RngOracle, RunOutcome, WrongKind};
use oolong_prover::Budget;
use oolong_sema::{closure_for_impl, subset_program, Scope};
use oolong_syntax::{parse_program, Decl};
use std::time::Instant;

fn verdict(source: &str, proc: &str, naive: bool) -> String {
    let program = parse_program(source).expect("parses");
    let options = CheckOptions {
        naive,
        ..CheckOptions::default()
    };
    let report = Checker::new(&program, options)
        .expect("analyses")
        .check_all();
    report
        .for_proc(proc)
        .expect("checked")
        .verdict
        .label()
        .to_string()
}

/// Runs all experiments, printing one section per experiment id.
pub fn run_all() {
    let t0 = Instant::now();

    outln!("## E1 — grammar (Figures 0-1)");
    let mut ok = 0;
    for p in oolong_corpus::all() {
        let program = parse_program(p.source).expect("parses");
        let printed = oolong_syntax::pretty::print_program(&program);
        assert!(parse_program(&printed).is_ok());
        ok += 1;
    }
    outln!(
        "parsed + round-tripped {ok}/{} corpus programs\n",
        oolong_corpus::all().len()
    );

    outln!("## E2 — pivot uniqueness (§3.0)");
    let q = oolong_corpus::paper::SECTION30_Q.source;
    let full = oolong_corpus::paper::SECTION30_FULL.source;
    outln!(
        "restricted  q@interface={}  q@full={}  m@full={}",
        verdict(q, "q", false),
        verdict(full, "q", false),
        verdict(full, "m", false)
    );
    outln!(
        "naive       q@interface={}  q@full={}  m@full={}\n",
        verdict(q, "q", true),
        verdict(full, "q", true),
        verdict(full, "m", true)
    );

    outln!("## E3 — owner exclusion (§3.1)");
    let w = oolong_corpus::paper::SECTION31_W.source;
    let bad = oolong_corpus::paper::SECTION31_BAD_CALL.source;
    outln!(
        "restricted  w@interface={}  w@full={}  bad_caller={}",
        verdict(w, "w", false),
        verdict(bad, "w", false),
        verdict(bad, "bad_caller", false)
    );
    outln!(
        "naive       w@interface={}  bad_caller={}\n",
        verdict(w, "w", true),
        verdict(bad, "bad_caller", true)
    );

    outln!("## E4/E5 — §5 examples 1-2");
    outln!(
        "example1 p={}  example2 twice={}\n",
        verdict(oolong_corpus::paper::EXAMPLE1.source, "p", false),
        verdict(oolong_corpus::paper::EXAMPLE2.source, "twice", false)
    );

    outln!("## E6 — cyclic rep inclusions (§5 example 3)");
    let e3 = oolong_corpus::paper::EXAMPLE3.source;
    let program = parse_program(e3).expect("parses");
    for (label, budget) in [("default", Budget::default()), ("starved", Budget::tiny())] {
        let options = CheckOptions {
            budget,
            ..CheckOptions::default()
        };
        let report = Checker::new(&program, options)
            .expect("analyses")
            .check_all();
        let rep = report.for_proc("updateAll").expect("checked");
        let stats = rep
            .verdict
            .stats()
            .map(ToString::to_string)
            .unwrap_or_default();
        outln!("{label:>8}: {} [{stats}]", rep.verdict.label());
    }
    outln!();

    outln!("## E7 — scope monotonicity (modular vs whole-program)");
    let mut checked = 0;
    let mut stable = 0;
    for p in oolong_corpus::all() {
        let program = parse_program(p.source).expect("parses");
        let full_report = Checker::new(&program, CheckOptions::default())
            .expect("analyses")
            .check_all();
        // Modules of an arrays-level program are checked at that level.
        let arrays_level = p.source.contains("maps elem") || p.source.contains('[');
        for (i, decl) in program.decls.iter().enumerate() {
            let Decl::Impl(im) = decl else { continue };
            let sub = subset_program(&program, &closure_for_impl(&program, i));
            let options = CheckOptions {
                force_arrays_level: arrays_level,
                ..CheckOptions::default()
            };
            let small = Checker::new(&sub, options).expect("analyses").check_all();
            let small_v = small
                .for_proc(&im.name.text)
                .expect("checked")
                .verdict
                .is_verified();
            let full_v = full_report
                .for_proc(&im.name.text)
                .expect("checked")
                .verdict
                .is_verified();
            checked += 1;
            if !small_v || full_v {
                stable += 1;
            }
        }
    }
    outln!("{stable}/{checked} implementations keep their modular verdict in the whole program\n");

    outln!("## E8 — checker scaling on generated programs");
    for (label, cfg) in [
        ("small", oolong_corpus::GenConfig::default()),
        (
            "medium",
            oolong_corpus::GenConfig {
                groups: 5,
                fields: 9,
                procs: 7,
                impls: 6,
                body_len: 7,
                ..oolong_corpus::GenConfig::default()
            },
        ),
        (
            "large",
            oolong_corpus::GenConfig {
                groups: 8,
                fields: 14,
                procs: 10,
                impls: 9,
                body_len: 9,
                ..oolong_corpus::GenConfig::default()
            },
        ),
    ] {
        let source = oolong_corpus::generate_source(42, &cfg);
        let program = parse_program(&source).expect("parses");
        let t = Instant::now();
        let report = Checker::new(&program, CheckOptions::default())
            .expect("analyses")
            .check_all();
        let (v, r, u) = report.tally();
        outln!(
            "{label:>7}: {} decls, {} impls -> {v} verified / {r} rejected / {u} unknown in {:?}",
            program.decls.len(),
            report.impls.len(),
            t.elapsed()
        );
    }
    outln!();

    outln!("## E9 — prover work profile per corpus program");
    for p in oolong_corpus::all() {
        let program = parse_program(p.source).expect("parses");
        let report = Checker::new(&program, CheckOptions::default())
            .expect("analyses")
            .check_all();
        for rep in &report.impls {
            if let Some(stats) = rep.verdict.stats() {
                outln!("{:<20} {:<12} {}", p.name, rep.proc_name, stats);
            }
        }
    }
    outln!();

    outln!("## E10 — specification overhead (§6)");
    let mut spec = 0;
    let mut total = 0;
    for p in oolong_corpus::all() {
        let program = parse_program(p.source).expect("parses");
        let r = overhead(&program);
        outln!("{:<20} {r}", p.name);
        spec += r.spec_tokens;
        total += r.total_tokens;
    }
    outln!(
        "corpus-wide: {spec} of {total} tokens ({:.1}%)\n",
        100.0 * spec as f64 / total as f64
    );

    outln!("## E11 — explicit modules (extension)");
    {
        let program = parse_program(oolong_corpus::paper::MODULAR_STACK.source).expect("parses");
        let report = datagroups::check_modular(&program, &CheckOptions::default())
            .expect("module structure valid");
        let ok = report.all_verified();
        outln!(
            "modular check of `modular_stack`: {} ({} modules)\n",
            if ok { "all verified" } else { "FAILED" },
            report.modules.len()
        );
    }

    outln!("## E12 — array dependencies (§6 future work, extension)");
    {
        let program = parse_program(oolong_corpus::paper::ARRAY_TABLE.source).expect("parses");
        let report = Checker::new(&program, CheckOptions::default())
            .expect("analyses")
            .check_all();
        for rep in &report.impls {
            let stats = rep
                .verdict
                .stats()
                .map(ToString::to_string)
                .unwrap_or_default();
            outln!("{:<10} {} [{stats}]", rep.proc_name, rep.verdict.label());
        }
        outln!();
    }

    outln!("## runtime ground truth (§3.0 executable counterexample)");
    let whole = "
group contents
field cnt
field obj
proc push(st, o) modifies st.contents
proc setup(st, r) modifies st.contents, r.obj
proc q()
impl q() {
  var st, result, v, n in
    st := new() ; result := new() ; setup(st, result) ;
    v := result.obj ; assume v != null ; n := v.cnt ;
    push(st, 3) ; assert n = v.cnt
  end
}
field vec in contents maps cnt into contents
impl setup(st, r) { st.vec := new() ; r.obj := st.vec }
";
    let program = parse_program(whole).expect("parses");
    let scope = Scope::analyze(&program).expect("analyses");
    let mut failures = 0;
    for seed in 0..100 {
        let mut interp = Interp::new(&scope, ExecConfig::default(), RngOracle::seeded(seed));
        if let RunOutcome::Wrong(wr) = interp.run_proc_fresh("q") {
            if wr.kind == WrongKind::AssertFailed {
                failures += 1;
            }
        }
    }
    outln!("naive-approved program: {failures}/100 runs fail the §3.0 assertion at runtime\n");

    outln!("total experiment time: {:?}", t0.elapsed());
}
