//! Workload inputs and their known answers.
//!
//! Every input is drawn from the workload seed and carries an
//! [`Expect`]: the answer the checker must give, fixed without running
//! the checker. Paper programs carry a hand-written table read off the
//! paper's text; generated programs carry their generator's ground truth
//! (correct by construction, or one seeded violation with its blame
//! span); programs from the general-purpose generator, which promises
//! neither, carry the runtime effect monitor's verdict instead.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use oolong_corpus::{self as corpus, GenConfig, SeededBug};
use oolong_interp::{ExecConfig, Interp, RngOracle, RunOutcome, WrongKind};
use oolong_sema::Scope;
use oolong_syntax::parse_program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the checker may answer for one implementation of a paper program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Want {
    /// A correct implementation: `verified`, or `unknown` when the budget
    /// runs out, but never a rejection.
    Holds,
    /// Rejected by the pivot-uniqueness restriction (§3.0).
    Restriction,
    /// Refuted by the prover (§3.1's bad call site).
    Refuted,
}

/// The known answer for one input.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Hand-written per-implementation answers for a paper program.
    Paper(&'static [(&'static str, Want)]),
    /// Correct by construction: no implementation may be rejected.
    Correct,
    /// Exactly one seeded violation in `proc`: rejected with `kind`,
    /// blamed inside `start..end` (exactly there when `exact`).
    Seeded {
        proc: String,
        kind: &'static str,
        start: u32,
        end: u32,
        exact: bool,
    },
    /// No generator promise: the unit must not verify wholesale if
    /// seeded interpreter runs of its procedures trip the runtime effect
    /// monitor. The runs happen once, when first needed.
    Monitored(Arc<OnceLock<BTreeSet<String>>>),
}

/// One checkable input.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Display name, unique within a workload.
    pub name: String,
    /// Generator family (`paper`, `writes`, `choices`, ...).
    pub family: &'static str,
    /// The family's size parameter (zero where the family has none).
    pub size: usize,
    /// The oolong source text.
    pub source: String,
    /// The known answer.
    pub expect: Expect,
}

/// How one implementation came out, in the terms the oracle compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Verified,
    Unknown,
    /// Refuted, with the primary obligation kind when the prover named one.
    Refuted(Option<String>),
    Restriction,
    TranslationError(String),
}

impl Outcome {
    /// Whether the outcome is a decision (verified or rejected).
    pub fn decided(&self) -> bool {
        !matches!(self, Outcome::Unknown)
    }

    /// Short label for reports and fidelity comparisons.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Verified => "verified",
            Outcome::Unknown => "unknown",
            Outcome::Refuted(_) => "refuted",
            Outcome::Restriction => "restriction",
            Outcome::TranslationError(_) => "translation-error",
        }
    }
}

/// Maps a checker verdict to an [`Outcome`].
pub fn outcome_of(verdict: &datagroups::Verdict) -> Outcome {
    use datagroups::Verdict;
    match verdict {
        Verdict::Verified(_) => Outcome::Verified,
        Verdict::Unknown(_) => Outcome::Unknown,
        Verdict::NotVerified(_, r) => {
            Outcome::Refuted(r.primary.as_ref().map(|p| p.kind.as_str().to_string()))
        }
        Verdict::RestrictionViolation(_) => Outcome::Restriction,
        Verdict::TranslationError(d) => Outcome::TranslationError(d.to_string()),
    }
}

impl Unit {
    /// Compares one implementation's outcome with the known answer;
    /// `Err` describes the mismatch.
    pub fn judge(&self, proc: &str, got: &Outcome) -> Result<(), String> {
        let holds = matches!(got, Outcome::Verified | Outcome::Unknown);
        let ok = match &self.expect {
            Expect::Correct => holds,
            Expect::Paper(table) => match table.iter().find(|(p, _)| *p == proc) {
                Some((_, Want::Holds)) => holds,
                Some((_, Want::Restriction)) => *got == Outcome::Restriction,
                Some((_, Want::Refuted)) => matches!(got, Outcome::Refuted(_)),
                None => false,
            },
            Expect::Seeded { proc: p, kind, .. } if p == proc => match got {
                Outcome::Restriction => *kind == "pivot-uniqueness",
                Outcome::Refuted(k) => k.as_deref() == Some(*kind),
                _ => false,
            },
            Expect::Seeded { .. } => holds,
            // Judged as a whole unit in `judge_all`.
            Expect::Monitored(_) => true,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}::{proc}: got {:?}, expected {}",
                self.name,
                got,
                self.describe(proc)
            ))
        }
    }

    /// Judges every implementation of the unit. A monitored unit is
    /// judged whole, as the paper's guarantee is stated: a program that
    /// verifies wholesale never trips the runtime monitor. (A run can trip
    /// inside a callee whose own implementation was rightly rejected, so
    /// a trip cannot be pinned on the procedure the run started in.)
    pub fn judge_all<'a>(
        &self,
        got: impl IntoIterator<Item = (&'a str, &'a Outcome)>,
    ) -> Vec<String> {
        let got: Vec<(&str, &Outcome)> = got.into_iter().collect();
        let mut problems: Vec<String> = got
            .iter()
            .filter_map(|(proc, outcome)| self.judge(proc, outcome).err())
            .collect();
        if let Expect::Monitored(_) = &self.expect {
            let trips = self.monitor_trips();
            if !trips.is_empty() && got.iter().all(|(_, o)| **o == Outcome::Verified) {
                problems.push(format!(
                    "{}: every implementation verified, but runs of {trips:?} trip the runtime monitor",
                    self.name
                ));
            }
        }
        problems
    }

    /// Checks a diagnosis blame span against a seeded violation's ground
    /// truth (other inputs carry no blame truth and always pass).
    pub fn judge_blame(&self, proc: &str, kind: &str, start: u32, end: u32) -> Result<(), String> {
        let Expect::Seeded {
            proc: p,
            kind: want,
            start: s,
            end: e,
            exact,
        } = &self.expect
        else {
            return Ok(());
        };
        if p != proc {
            return Ok(());
        }
        let inside = start >= *s && end <= *e;
        let placed = if *exact {
            (start, end) == (*s, *e)
        } else {
            inside
        };
        if kind == *want && placed {
            Ok(())
        } else {
            Err(format!(
                "{}::{proc}: blamed {kind} at {start}..{end}, seeded {want} at {s}..{e}",
                self.name
            ))
        }
    }

    fn describe(&self, proc: &str) -> String {
        match &self.expect {
            Expect::Correct => "verified or unknown".to_string(),
            Expect::Paper(table) => match table.iter().find(|(p, _)| *p == proc) {
                Some((_, w)) => format!("{w:?} (paper)"),
                None => "no such implementation in the paper table".to_string(),
            },
            Expect::Seeded { proc: p, kind, .. } if p == proc => format!("rejected as {kind}"),
            Expect::Seeded { .. } => "verified or unknown".to_string(),
            Expect::Monitored(_) => "any verdict".to_string(),
        }
    }
}

use Want::{Holds, Refuted, Restriction};

/// The paper's verdicts, read off its text: correct programs must not be
/// rejected (§3.0's `q`, §3.1's `w`, §5's examples, the running stack);
/// §3.0's `m` leaks its pivot and breaks pivot uniqueness; §3.1's
/// `bad_caller` passes `st.vec` where owner exclusion forbids it.
pub const PAPER_ANSWERS: &[(&str, &[(&str, Want)])] = &[
    ("section30_q", &[("q", Holds)]),
    ("section30_full", &[("q", Holds), ("m", Restriction)]),
    ("section31_w", &[("w", Holds)]),
    (
        "section31_bad_call",
        &[("w", Holds), ("bad_caller", Refuted)],
    ),
    ("example1", &[("p", Holds)]),
    ("example2", &[("twice", Holds)]),
    ("example3", &[("updateAll", Holds)]),
    ("rational", &[("normalize", Holds)]),
    (
        "stack_module",
        &[
            ("vinit", Holds),
            ("vgrow", Holds),
            ("sinit", Holds),
            ("push", Holds),
        ],
    ),
    (
        "modular_stack",
        &[
            ("vinit", Holds),
            ("vgrow", Holds),
            ("sinit", Holds),
            ("push", Holds),
        ],
    ),
    (
        "array_table",
        &[
            ("binc", Holds),
            ("tinit", Holds),
            ("touch", Holds),
            ("touch_direct", Holds),
            ("observer", Holds),
        ],
    ),
    (
        "registry",
        &[
            ("notify", Holds),
            ("rinit", Holds),
            ("subscribe", Holds),
            ("fire_first", Holds),
        ],
    ),
];

/// The paper answers for one program.
pub fn paper_answers(name: &str) -> Option<&'static [(&'static str, Want)]> {
    PAPER_ANSWERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, t)| *t)
}

/// The paper corpus, each program with its hand-written answers.
pub fn paper_units() -> Vec<Unit> {
    corpus::all()
        .into_iter()
        .map(|p| Unit {
            name: p.name.to_string(),
            family: "paper",
            size: 0,
            source: p.source.to_string(),
            expect: Expect::Paper(
                paper_answers(p.name).expect("every corpus program has paper answers"),
            ),
        })
        .collect()
}

impl Unit {
    /// A unit judged by the runtime monitor.
    pub fn monitored(name: String, family: &'static str, source: String) -> Unit {
        Unit {
            name,
            family,
            size: 0,
            source,
            expect: Expect::Monitored(Arc::default()),
        }
    }

    /// The procedures whose monitored runs trip (empty for other units).
    pub fn monitor_trips(&self) -> &BTreeSet<String> {
        static NONE: BTreeSet<String> = BTreeSet::new();
        match &self.expect {
            Expect::Monitored(trips) => trips.get_or_init(|| monitor_trips(&self.source)),
            _ => &NONE,
        }
    }
}

/// Interpreter runs per procedure behind an [`Expect::Monitored`] answer.
const MONITOR_RUNS: u64 = 6;

/// The monitor's interpreter settings: the defaults with less fuel, since
/// generated recursion otherwise runs to 100,000 steps; a run out of fuel
/// is inconclusive and counts as no trip.
const MONITOR_CONFIG: ExecConfig = ExecConfig {
    max_steps: 5_000,
    max_depth: 50,
    check_owner_exclusion: false,
    havoc_unimplemented: true,
    check_reads: false,
    check_invariants: false,
};

/// The procedures of `source` whose seeded interpreter runs hit an effect
/// violation or a failed assertion: the runtime monitor's answer,
/// independent of the static checker.
fn monitor_trips(source: &str) -> BTreeSet<String> {
    let program = parse_program(source).expect("generated programs parse");
    let scope = Scope::analyze(&program).expect("generated programs analyse");
    let mut trips = BTreeSet::new();
    for (_, info) in scope.impls() {
        let proc = scope.proc_info(info.proc).name.clone();
        for seed in 0..MONITOR_RUNS {
            let mut interp = Interp::new(&scope, MONITOR_CONFIG, RngOracle::seeded(seed));
            if let RunOutcome::Wrong(w) = interp.run_proc_fresh(&proc) {
                if matches!(w.kind, WrongKind::EffectViolation | WrongKind::AssertFailed) {
                    trips.insert(proc.clone());
                    break;
                }
            }
        }
    }
    trips
}

/// A generated program with one seeded violation of `bug`.
pub fn seeded_unit(name: String, seed: u64, bug: SeededBug) -> Unit {
    let v = corpus::generate_seeded_violation_with(seed, bug);
    // Modifies and invariant bugs are blamed exactly at the recorded
    // span; pivot copies and uncovered reads on a subexpression of it.
    let exact = matches!(
        bug,
        SeededBug::ForgottenIn | SeededBug::MissingClosureMember | SeededBug::BrokenInvariant
    );
    Unit {
        name,
        family: "seeded",
        size: 0,
        source: v.source,
        expect: Expect::Seeded {
            proc: v.proc_name,
            kind: bug.expected_kind(),
            start: v.start,
            end: v.end,
            exact,
        },
    }
}

/// Generator seeds of the `generate_source` programs in `cold_corpus`
/// and the bases of `serve_edit`'s edits. Fixed rather than drawn: that
/// generator's checking cost is heavy-tailed (about one seed in ten
/// takes 0.2 s to 24 s, see `perfbench/README.md`), so a drawn set would
/// make the workload's figures depend on the seed. This mix of verified
/// and refuted programs each checks in under 40 ms.
pub const LICENSED_SEEDS: [u64; 8] = [0, 2, 5, 9, 13, 18, 26, 35];

/// Generator seeds from that heavy tail, also in every `cold_corpus`
/// run, so the tail's cost is measured the same way each time: seed 1
/// (about 0.8 s, one budget-exhausted obligation) and seed 22 (about
/// 0.2 s). They are not edit bases: every edit re-proves its base, and a
/// slow base would make most of `serve_edit`'s edits slow.
pub const SLOW_LICENSED_SEEDS: [u64; 2] = [1, 22];

/// Draws per seeded generator in `cold_corpus`: enough that the mix's
/// cost barely depends on the seed.
const DRAWS: usize = 24;

/// The `cold_corpus` inputs: the paper programs, the fixed
/// `generate_source` programs, and a seeded draw from every other corpus
/// generator.
pub fn cold_corpus(seed: u64) -> Vec<Unit> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc01d_c0de);
    let mut units = paper_units();
    let draw = |rng: &mut StdRng| rng.gen_range(0..1_000_000u64);
    for s in LICENSED_SEEDS.into_iter().chain(SLOW_LICENSED_SEEDS) {
        let unit = Unit::monitored(
            format!("licensed-{s}"),
            "licensed",
            corpus::generate_source(s, &GenConfig::default()),
        );
        // The oracle's interpreter runs belong to input generation.
        unit.monitor_trips();
        units.push(unit);
    }
    for i in 0..DRAWS {
        let s = draw(&mut rng);
        let correct: [(&'static str, String); 3] = [
            ("invariant", corpus::generate_invariant_source(s)),
            ("reads", corpus::generate_read_effect_source(s)),
            ("cyclic", corpus::generate_cyclic_source(s)),
        ];
        for (family, source) in correct {
            units.push(Unit {
                name: format!("{family}-{i}-{s}"),
                family,
                size: 0,
                source,
                expect: Expect::Correct,
            });
        }
        let depth = 3 + i % 4;
        units.push(Unit {
            name: format!("branchy-{depth}-{s}"),
            family: "branchy",
            size: depth,
            source: corpus::generate_branchy_source(s, depth),
            expect: Expect::Correct,
        });
    }
    for _ in 0..2 {
        for bug in SeededBug::ALL {
            let s = draw(&mut rng);
            units.push(seeded_unit(format!("seeded-{bug:?}-{s}"), s, bug));
        }
    }
    units
}

/// Size points of the `large_units` families.
pub const WRITES: [usize; 5] = [250, 500, 1000, 2000, 4000];
pub const CHOICES: [usize; 6] = [4, 6, 8, 10, 12, 14];
pub const CALLS: [usize; 5] = [50, 100, 200, 400, 800];
/// Scope width as (groups, fields per group).
pub const WIDTHS: [(usize, usize); 5] = [(2, 4), (4, 8), (8, 8), (8, 16), (16, 16)];

/// Seed-dependent spelling, so different seeds give different texts of
/// the same shape: the names and stored constants vary, the structure
/// and hence the work do not.
struct Spelling {
    tag: String,
    consts: Vec<u32>,
}

impl Spelling {
    fn new(seed: u64, family: &str) -> Spelling {
        let mut rng = StdRng::seed_from_u64(seed ^ (family.len() as u64 * 0x9e37));
        let tag: String = (0..3)
            .map(|_| char::from(b'a' + rng.gen_range(0..26u8)))
            .collect();
        let consts = (0..16).map(|_| rng.gen_range(1..90u32)).collect();
        Spelling { tag, consts }
    }

    fn c(&self, i: usize) -> u32 {
        self.consts[i % self.consts.len()]
    }
}

/// `n` straight-line heap writes under one group license.
pub fn writes_source(seed: u64, n: usize) -> String {
    let sp = Spelling::new(seed, "writes");
    let t = &sp.tag;
    let mut out = format!(
        "group g{t}\nfield f{t} in g{t}\nfield h{t} in g{t}\n\
         proc w{t}(x) modifies x.g{t}\nimpl w{t}(x) {{\n  assume x != null"
    );
    for i in 0..n {
        let field = if i % 2 == 0 { "f" } else { "h" };
        let _ = write!(out, " ;\n  x.{field}{t} := {}", sp.c(i));
    }
    out.push_str("\n}\n");
    out
}

/// `k` sequential two-armed choices, each arm a licensed write.
pub fn choices_source(seed: u64, k: usize) -> String {
    let sp = Spelling::new(seed, "choices");
    let t = &sp.tag;
    let mut out = format!(
        "group g{t}\nfield f{t} in g{t}\n\
         proc c{t}(x) modifies x.g{t}\nimpl c{t}(x) {{\n  assume x != null"
    );
    for i in 0..k {
        let _ = write!(
            out,
            " ;\n  {{ x.f{t} := {} [] x.f{t} := {} }}",
            sp.c(2 * i),
            sp.c(2 * i + 1)
        );
    }
    out.push_str("\n}\n");
    out
}

/// A chain of `d` procedures, each writing its own field and calling the
/// next under the same group license: `d` implementations.
pub fn calls_source(seed: u64, d: usize) -> String {
    let sp = Spelling::new(seed, "calls");
    let t = &sp.tag;
    let mut out = format!("group g{t}\nfield f{t} in g{t}\n");
    for i in 0..d {
        let _ = writeln!(out, "proc p{t}{i}(x) modifies x.g{t}");
    }
    for i in 0..d {
        let _ = write!(
            out,
            "impl p{t}{i}(x) {{\n  assume x != null ;\n  x.f{t} := {}",
            sp.c(i)
        );
        if i + 1 < d {
            let _ = write!(out, " ;\n  p{t}{}(x)", i + 1);
        }
        out.push_str("\n}\n");
    }
    out
}

/// `groups` groups of `fields` fields each, and one procedure licensed on
/// every group that writes one field of each.
pub fn width_source(seed: u64, groups: usize, fields: usize) -> String {
    let sp = Spelling::new(seed, "width");
    let t = &sp.tag;
    let mut out = String::new();
    for g in 0..groups {
        let _ = writeln!(out, "group g{t}{g}");
        for f in 0..fields {
            let _ = writeln!(out, "field f{t}{g}x{f} in g{t}{g}");
        }
    }
    let licenses: Vec<String> = (0..groups).map(|g| format!("x.g{t}{g}")).collect();
    let _ = writeln!(out, "proc s{t}(x) modifies {}", licenses.join(", "));
    let _ = write!(out, "impl s{t}(x) {{\n  assume x != null");
    for g in 0..groups {
        let _ = write!(out, " ;\n  x.f{t}{g}x{} := {}", g % fields, sp.c(g));
    }
    out.push_str("\n}\n");
    out
}

/// The `large_units` inputs: every size point of the four scaling
/// families, all trivially correct.
pub fn large_units(seed: u64) -> Vec<Unit> {
    let mut units = Vec::new();
    let mut push = |family: &'static str, size: usize, source: String| {
        units.push(Unit {
            name: format!("{family}-{size}"),
            family,
            size,
            source,
            expect: Expect::Correct,
        })
    };
    for n in WRITES {
        push("writes", n, writes_source(seed, n));
    }
    for k in CHOICES {
        push("choices", k, choices_source(seed, k));
    }
    for d in CALLS {
        push("calls", d, calls_source(seed, d));
    }
    for (g, f) in WIDTHS {
        push("width", g * f, width_source(seed, g, f));
    }
    units
}

/// The families of `large_units`, in report order.
pub const FAMILIES: [&str; 4] = ["writes", "choices", "calls", "width"];
