//! The oolong interpreter: bounded-nondeterminism execution with a runtime
//! side-effect monitor.
//!
//! Nondeterminism (choice commands, implementation dispatch, arbitrary
//! initial values of locals) is resolved by an [`Oracle`]; running the same
//! program under many random oracles explores the behaviours the guarded
//! commands denote.
//!
//! Every call pushes a monitor frame recording the callee's licensed
//! effects (the concrete denotation of its modifies list, evaluated at
//! entry). Every field write is checked against **all** active frames, as
//! the writes occur — a violated frame means some active method is
//! exceeding its declared side effects, which is exactly what the static
//! checker is supposed to rule out. This makes the interpreter the ground
//! truth for the soundness experiments.
//!
//! Calls to procedures with no implementation in scope are **havocked**:
//! the interpreter mutates an arbitrary subset of the locations the
//! callee's specification licenses (and may allocate fresh objects). This
//! models "an arbitrary implementation from an arbitrary program
//! extension", which is how the paper's §3 counterexamples manifest at
//! runtime.

use crate::denote::{allowed_effects, AllowedEffects};
use crate::store::{Loc, ObjId, Store, Value};
use oolong_sema::{ImplId, ProcId, Scope};
use oolong_syntax::{BinOp, Cmd, Const, Expr, UnaryOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Resolves the interpreter's nondeterministic choices.
pub trait Oracle {
    /// Picks one of `n` alternatives (`n ≥ 1`).
    fn choose(&mut self, n: usize) -> usize;
    /// Produces an arbitrary value (for `var` initialisation and havoc).
    fn arbitrary(&mut self, store: &Store) -> Value;
}

/// A deterministic oracle: always the first alternative, always `null`.
#[derive(Debug, Default, Clone, Copy)]
pub struct FirstOracle;

impl Oracle for FirstOracle {
    fn choose(&mut self, _n: usize) -> usize {
        0
    }
    fn arbitrary(&mut self, _store: &Store) -> Value {
        Value::Null
    }
}

/// A seeded random oracle.
#[derive(Debug, Clone)]
pub struct RngOracle {
    rng: StdRng,
}

impl RngOracle {
    /// Creates an oracle from a seed.
    pub fn seeded(seed: u64) -> RngOracle {
        RngOracle {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Oracle for RngOracle {
    fn choose(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    fn arbitrary(&mut self, store: &Store) -> Value {
        match self.rng.gen_range(0..5) {
            0 => Value::Null,
            1 => Value::Bool(self.rng.gen()),
            2 => Value::Int(self.rng.gen_range(-2..5)),
            _ => {
                let n = store.object_count();
                if n == 0 {
                    Value::Null
                } else {
                    Value::Obj(ObjId(self.rng.gen_range(0..n as u32)))
                }
            }
        }
    }
}

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Maximum commands executed before [`RunOutcome::OutOfFuel`].
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_depth: usize,
    /// Dynamically check owner exclusion at call sites (reports
    /// [`WrongKind::OwnerExclusion`]). Off by default: a violation is a
    /// *specification* discipline breach, interesting to experiments but
    /// not itself a runtime error.
    pub check_owner_exclusion: bool,
    /// Havoc calls to procedures with no implementation in scope (models
    /// arbitrary extensions). When `false` such calls are
    /// [`WrongKind::MissingImpl`].
    pub havoc_unimplemented: bool,
    /// Audit heap *reads* against declared `reads` clauses (reports
    /// [`WrongKind::ReadViolation`]). A frame whose procedure has no
    /// `reads` clause imposes nothing — mirroring the static checker,
    /// where only a declared clause arms the per-dereference obligations.
    /// Off by default: reads clauses are optional and most programs omit
    /// them.
    pub check_reads: bool,
    /// Evaluate declared object invariants dynamically (reports
    /// [`WrongKind::InvariantBroken`]). The static hypothesis assumes
    /// invariants hold of every pre-store object, so (invariant, object)
    /// pairs already broken at run entry are *exempt* — the hypothesis is
    /// vacuous for exactly those. Everything else is checked at call
    /// boundaries and procedure exits, matching the static obligations.
    pub check_invariants: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_steps: 100_000,
            max_depth: 200,
            check_owner_exclusion: false,
            havoc_unimplemented: true,
            check_reads: false,
            check_invariants: false,
        }
    }
}

/// Why a run went wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WrongKind {
    /// An `assert` evaluated to false.
    AssertFailed,
    /// A dereference of `null`.
    NullDereference,
    /// An operator applied to values of the wrong shape.
    TypeError,
    /// A field write outside some active frame's licensed effects.
    EffectViolation,
    /// A call passed a pivot value to a callee licensed on its owner.
    OwnerExclusion,
    /// A call to a procedure with no implementation (havoc disabled).
    MissingImpl,
    /// A heap read outside some active frame's declared reads clause.
    ReadViolation,
    /// An object invariant evaluated to false at a call boundary or
    /// procedure exit.
    InvariantBroken,
}

impl fmt::Display for WrongKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WrongKind::AssertFailed => "assertion failed",
            WrongKind::NullDereference => "null dereference",
            WrongKind::TypeError => "type error",
            WrongKind::EffectViolation => "side effect outside modifies list",
            WrongKind::OwnerExclusion => "owner exclusion violated at call",
            WrongKind::MissingImpl => "no implementation available",
            WrongKind::ReadViolation => "heap read outside reads clause",
            WrongKind::InvariantBroken => "object invariant broken",
        };
        write!(f, "{s}")
    }
}

/// A wrong outcome with detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wrong {
    /// Classification.
    pub kind: WrongKind,
    /// Human-readable context.
    pub detail: String,
}

impl fmt::Display for Wrong {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The run terminated normally.
    Completed,
    /// The run went wrong (undesirable).
    Wrong(Wrong),
    /// The run blocked on a false `assume` (never undesirable).
    Blocked,
    /// The step or depth budget ran out.
    OutOfFuel,
}

impl RunOutcome {
    /// Whether the outcome is acceptable for a verified program
    /// (anything except [`RunOutcome::Wrong`]).
    pub fn is_acceptable(&self) -> bool {
        !matches!(self, RunOutcome::Wrong(_))
    }
}

enum Stop {
    Wrong(Wrong),
    Blocked,
    Fuel,
}

fn wrong(kind: WrongKind, detail: impl Into<String>) -> Stop {
    Stop::Wrong(Wrong {
        kind,
        detail: detail.into(),
    })
}

/// The interpreter.
#[derive(Debug)]
pub struct Interp<'s, O> {
    scope: &'s Scope,
    config: ExecConfig,
    oracle: O,
    store: Store,
    frames: Vec<AllowedEffects>,
    /// Declared read frames, parallel to `frames`. `None` = the
    /// procedure has no `reads` clause and its frame licenses all reads.
    read_frames: Vec<Option<AllowedEffects>>,
    /// `(invariant index, object)` pairs already broken at run entry:
    /// the static hypothesis is vacuous for these, so they are never
    /// reported as violations.
    inv_exempt: std::collections::HashSet<(usize, ObjId)>,
    steps: u64,
    /// Owner-exclusion violations observed (recorded even when they are
    /// not configured to be `Wrong`).
    pub owner_exclusion_events: usize,
}

impl<'s, O: Oracle> Interp<'s, O> {
    /// Creates an interpreter with an empty store.
    pub fn new(scope: &'s Scope, config: ExecConfig, oracle: O) -> Self {
        Interp {
            scope,
            config,
            oracle,
            store: Store::new(),
            frames: Vec::new(),
            read_frames: Vec::new(),
            inv_exempt: std::collections::HashSet::new(),
            steps: 0,
            owner_exclusion_events: 0,
        }
    }

    /// The current store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable access to the store (for test setup).
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Runs a specific implementation with the given argument values.
    pub fn run_impl(&mut self, impl_id: ImplId, args: &[Value]) -> RunOutcome {
        let info = self.scope.impl_info(impl_id).clone();
        let proc = self.scope.proc_info(info.proc).clone();
        assert_eq!(proc.params.len(), args.len(), "argument count mismatch");
        let allowed = allowed_effects(self.scope, &self.store, &proc.modifies, args);
        self.record_entry_exemptions();
        self.frames.push(allowed);
        self.read_frames.push(self.read_frame(&proc, args));
        let mut env: Vec<(String, Value)> = proc
            .params
            .iter()
            .cloned()
            .zip(args.iter().copied())
            .collect();
        let result = self
            .exec(&info.body, &mut env, 0)
            .and_then(|()| self.check_exit_invariants(&proc.name));
        self.frames.pop();
        self.read_frames.pop();
        match result {
            Ok(()) => RunOutcome::Completed,
            Err(Stop::Wrong(w)) => RunOutcome::Wrong(w),
            Err(Stop::Blocked) => RunOutcome::Blocked,
            Err(Stop::Fuel) => RunOutcome::OutOfFuel,
        }
    }

    /// Runs the named procedure: dispatches to an oracle-chosen
    /// implementation, with fresh objects allocated for each parameter.
    pub fn run_proc_fresh(&mut self, name: &str) -> RunOutcome {
        let Some(pid) = self.scope.proc(name) else {
            return RunOutcome::Wrong(Wrong {
                kind: WrongKind::MissingImpl,
                detail: format!("procedure `{name}` not declared"),
            });
        };
        let n = self.scope.proc_info(pid).params.len();
        let args: Vec<Value> = (0..n).map(|_| Value::Obj(self.store.alloc())).collect();
        match self.dispatch(pid, &args, 0) {
            Ok(()) => RunOutcome::Completed,
            Err(Stop::Wrong(w)) => RunOutcome::Wrong(w),
            Err(Stop::Blocked) => RunOutcome::Blocked,
            Err(Stop::Fuel) => RunOutcome::OutOfFuel,
        }
    }

    fn tick(&mut self) -> Result<(), Stop> {
        self.steps += 1;
        if self.steps > self.config.max_steps {
            Err(Stop::Fuel)
        } else {
            Ok(())
        }
    }

    fn exec(
        &mut self,
        cmd: &Cmd,
        env: &mut Vec<(String, Value)>,
        depth: usize,
    ) -> Result<(), Stop> {
        self.tick()?;
        match cmd {
            Cmd::Skip(_) => Ok(()),
            Cmd::Assert(e, _) => {
                if self.eval_bool(e, env)? {
                    Ok(())
                } else {
                    Err(wrong(
                        WrongKind::AssertFailed,
                        format!("assert {}", oolong_syntax::pretty::print_expr(e)),
                    ))
                }
            }
            Cmd::Assume(e, _) => {
                if self.eval_bool(e, env)? {
                    Ok(())
                } else {
                    Err(Stop::Blocked)
                }
            }
            Cmd::Var(x, body, _) => {
                let init = self.oracle.arbitrary(&self.store);
                env.push((x.text.clone(), init));
                let result = self.exec(body, env, depth);
                env.pop();
                result
            }
            Cmd::Seq(cs) => {
                for c in cs {
                    self.exec(c, env, depth)?;
                }
                Ok(())
            }
            Cmd::Choice(a, b) => {
                if self.oracle.choose(2) == 0 {
                    self.exec(a, env, depth)
                } else {
                    self.exec(b, env, depth)
                }
            }
            Cmd::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                if self.eval_bool(cond, env)? {
                    self.exec(then_branch, env, depth)
                } else {
                    self.exec(else_branch, env, depth)
                }
            }
            Cmd::Assign { lhs, rhs, .. } => {
                let value = self.eval(rhs, env)?;
                self.assign(lhs, value, env)
            }
            Cmd::AssignNew { lhs, .. } => {
                let fresh = Value::Obj(self.store.alloc());
                self.assign(lhs, fresh, env)
            }
            Cmd::Call { proc, args, .. } => {
                let pid = self
                    .scope
                    .proc(&proc.text)
                    .expect("sema guarantees calls resolve");
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, env)?);
                }
                self.dispatch(pid, &values, depth + 1)
            }
        }
    }

    fn dispatch(&mut self, pid: ProcId, args: &[Value], depth: usize) -> Result<(), Stop> {
        if depth > self.config.max_depth {
            return Err(Stop::Fuel);
        }
        let proc = self.scope.proc_info(pid).clone();
        let allowed = allowed_effects(self.scope, &self.store, &proc.modifies, args);

        // Call-boundary invariant obligation (at depth 0 the "call" is the
        // run's entry, where a broken invariant exempts its object from
        // the hypothesis instead of being an obligation).
        if depth == 0 {
            self.record_entry_exemptions();
        } else if self.config.check_invariants {
            if let Some(detail) = self.broken_invariant() {
                return Err(wrong(
                    WrongKind::InvariantBroken,
                    format!(
                        "call to `{}` observes a broken invariant: {detail}",
                        proc.name
                    ),
                ));
            }
        }

        // Dynamic owner-exclusion observation.
        if self.owner_exclusion_violated(&allowed, args) {
            self.owner_exclusion_events += 1;
            if self.config.check_owner_exclusion {
                return Err(wrong(
                    WrongKind::OwnerExclusion,
                    format!(
                        "call to `{}` passes a pivot value whose owner it may modify",
                        proc.name
                    ),
                ));
            }
        }

        let impls: Vec<ImplId> = self.scope.impls_of(pid).map(|(id, _)| id).collect();
        if impls.is_empty() {
            if !self.config.havoc_unimplemented {
                return Err(wrong(
                    WrongKind::MissingImpl,
                    format!("procedure `{}`", proc.name),
                ));
            }
            self.frames.push(allowed);
            self.read_frames.push(self.read_frame(&proc, args));
            let result = self.havoc();
            self.frames.pop();
            self.read_frames.pop();
            // Havoc models a callee from a *verified* extension, which
            // would be obliged to preserve invariants; a havoc run that
            // breaks one models no verified callee, so discard it.
            if result.is_ok() && self.config.check_invariants && self.broken_invariant().is_some() {
                return Err(Stop::Blocked);
            }
            return result;
        }
        let chosen = impls[self.oracle.choose(impls.len())];
        let body = self.scope.impl_info(chosen).body.clone();
        self.frames.push(allowed);
        self.read_frames.push(self.read_frame(&proc, args));
        let mut env: Vec<(String, Value)> = proc
            .params
            .iter()
            .cloned()
            .zip(args.iter().copied())
            .collect();
        let result = self
            .exec(&body, &mut env, depth)
            .and_then(|()| self.check_exit_invariants(&proc.name));
        self.frames.pop();
        self.read_frames.pop();
        result
    }

    /// The concrete denotation of the procedure's `reads` clause at call
    /// entry, or `None` when no clause is declared (all reads licensed).
    fn read_frame(&self, proc: &oolong_sema::ProcInfo, args: &[Value]) -> Option<AllowedEffects> {
        if !self.config.check_reads {
            return None;
        }
        proc.reads
            .as_ref()
            .map(|targets| allowed_effects(self.scope, &self.store, targets, args))
    }

    /// The exit-obligation mirror of the static `InvariantPreserved` kind:
    /// every invariant must hold of every allocated object when a body
    /// finishes.
    fn check_exit_invariants(&mut self, proc: &str) -> Result<(), Stop> {
        if !self.config.check_invariants {
            return Ok(());
        }
        if let Some(detail) = self.broken_invariant() {
            return Err(wrong(
                WrongKind::InvariantBroken,
                format!("at exit of `{proc}`: {detail}"),
            ));
        }
        Ok(())
    }

    /// Evaluates every declared invariant over every allocated object.
    /// Returns a description of the first violation, or `None` when all
    /// hold. Evaluation errors (e.g. a null dereference inside the
    /// invariant body) count as violations.
    fn broken_invariant(&mut self) -> Option<String> {
        self.broken_pairs().first().map(|&(i, obj)| {
            let expr = &self.scope.invariants()[i].expr;
            format!(
                "invariant `{}` does not hold for {obj}",
                oolong_syntax::pretty::print_expr(expr)
            )
        })
    }

    /// Records every `(invariant, object)` pair broken in the current
    /// (pre-)store as exempt from later checks: the static hypothesis
    /// assumes invariants of pre-store objects, so it is vacuous for
    /// exactly these pairs.
    fn record_entry_exemptions(&mut self) {
        if !self.config.check_invariants {
            return;
        }
        let broken = self.broken_pairs_unfiltered();
        self.inv_exempt.extend(broken);
    }

    /// Non-exempt `(invariant index, object)` pairs broken in the current
    /// store.
    fn broken_pairs(&mut self) -> Vec<(usize, ObjId)> {
        let exempt = std::mem::take(&mut self.inv_exempt);
        let mut broken = self.broken_pairs_unfiltered();
        broken.retain(|pair| !exempt.contains(pair));
        self.inv_exempt = exempt;
        broken
    }

    fn broken_pairs_unfiltered(&mut self) -> Vec<(usize, ObjId)> {
        let scope = self.scope;
        let objects: Vec<ObjId> = self.store.objects().collect();
        // The monitor's own dereferences are not program reads: evaluate
        // with the read frames stashed away.
        let saved = std::mem::take(&mut self.read_frames);
        let mut broken = Vec::new();
        for (i, inv) in scope.invariants().iter().enumerate() {
            for &obj in &objects {
                let mut env = vec![("this".to_string(), Value::Obj(obj))];
                match self.eval_bool(&inv.expr, &mut env) {
                    Ok(true) => {}
                    // Evaluation errors (e.g. a null dereference inside
                    // the invariant body) count as violations.
                    _ => broken.push((i, obj)),
                }
            }
        }
        self.read_frames = saved;
        broken
    }

    /// Checks a field read against every active declared read frame.
    fn check_read(&self, loc: Loc) -> Result<(), Stop> {
        for (i, frame) in self.read_frames.iter().enumerate() {
            let Some(frame) = frame else { continue };
            if !frame.permits(loc) {
                let attr = &self.scope.attr_info(loc.attr).name;
                return Err(wrong(
                    WrongKind::ReadViolation,
                    format!(
                        "read of {}·{attr} exceeds the reads clause of active frame {i}",
                        loc.obj
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Checks an array-slot read against every active declared read frame.
    fn check_read_slot(&self, obj: ObjId, index: i64) -> Result<(), Stop> {
        for (i, frame) in self.read_frames.iter().enumerate() {
            let Some(frame) = frame else { continue };
            if !frame.permits_slot(obj) {
                return Err(wrong(
                    WrongKind::ReadViolation,
                    format!(
                        "read of slot {obj}[{index}] exceeds the reads clause of active frame {i}"
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Whether passing `args` violates owner exclusion against the
    /// callee's licensed effects — for ordinary pivots, elem-pivot arrays,
    /// and array elements.
    fn owner_exclusion_violated(&self, allowed: &AllowedEffects, args: &[Value]) -> bool {
        let pivots = self.scope.pivots();
        let rep = self.scope.rep_triples();
        let rep_elem = self.scope.rep_elem_triples();
        for value in args {
            let Some(v) = value.as_obj() else { continue };
            for x in self.store.objects() {
                for &f in &pivots {
                    if self.store.read(Loc { obj: x, attr: f }) != Value::Obj(v) {
                        continue;
                    }
                    // v = S(x·f); the callee must not be licensed on any
                    // x·a with a →f b or a ⇉f b.
                    for (a, f2, _) in rep.iter().chain(rep_elem.iter()) {
                        if *f2 == f && allowed.locs.contains(&Loc { obj: x, attr: *a }) {
                            return true;
                        }
                    }
                }
            }
            // v stored in a slot of an elem-pivot's array: the callee must
            // not be licensed on the owner.
            for &(a, f, _) in &rep_elem {
                for x in self.store.objects() {
                    let Value::Obj(arr) = self.store.read(Loc { obj: x, attr: f }) else {
                        continue;
                    };
                    let holds_v = self
                        .store
                        .slots()
                        .any(|((o, _), val)| o == arr && val == Value::Obj(v));
                    if holds_v && allowed.locs.contains(&Loc { obj: x, attr: a }) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Arbitrary effects within the top frame's license: models a call to
    /// an unknown implementation *that itself respects the paper's
    /// restrictions* — it writes only field locations (groups have no
    /// runtime presence), assigns pivots and slots only fresh objects or
    /// null, and never re-publishes existing object references (a
    /// restricted callee cannot copy confined values it has no name for).
    fn havoc(&mut self) -> Result<(), Stop> {
        self.tick()?;
        // Maybe allocate a few fresh objects.
        let allocs = self.oracle.choose(3);
        for _ in 0..allocs {
            self.store.alloc();
        }
        // Mutate an arbitrary subset of the licensed *field* locations.
        let frame = self.frames.last().expect("havoc runs inside a frame");
        let mut locs: Vec<Loc> = frame
            .locs
            .iter()
            .copied()
            .filter(|l| self.scope.attr_info(l.attr).kind == oolong_sema::AttrKind::Field)
            .collect();
        locs.sort();
        let mut arrays: Vec<ObjId> = frame.elem_arrays.iter().copied().collect();
        arrays.sort();
        let writes = if locs.is_empty() {
            0
        } else {
            self.oracle.choose(locs.len() + 1)
        };
        for _ in 0..writes {
            let loc = locs[self.oracle.choose(locs.len())];
            let value = if self.scope.is_pivot(loc.attr) {
                if self.oracle.choose(2) == 0 {
                    Value::Null
                } else {
                    Value::Obj(self.store.alloc())
                }
            } else {
                match self.oracle.choose(4) {
                    0 => Value::Null,
                    1 => Value::Bool(self.oracle.choose(2) == 0),
                    2 => Value::Int(self.oracle.choose(7) as i64 - 2),
                    _ => Value::Obj(self.store.alloc()),
                }
            };
            self.write_field(loc, value)?;
        }
        // Elementwise licenses let the callee rewrite array slots — within
        // the slot discipline: fresh objects or null only.
        if !arrays.is_empty() {
            let slot_writes = self.oracle.choose(3);
            for _ in 0..slot_writes {
                let arr = arrays[self.oracle.choose(arrays.len())];
                let index = self.oracle.choose(4) as i64;
                let value = if self.oracle.choose(2) == 0 {
                    Value::Null
                } else {
                    Value::Obj(self.store.alloc())
                };
                self.write_slot(arr, index, value)?;
            }
        }
        Ok(())
    }

    fn assign(
        &mut self,
        lhs: &Expr,
        value: Value,
        env: &mut Vec<(String, Value)>,
    ) -> Result<(), Stop> {
        match lhs {
            Expr::Id(x) => {
                let slot = env
                    .iter_mut()
                    .rev()
                    .find(|(name, _)| name == &x.text)
                    .expect("sema guarantees assignment targets are bound");
                slot.1 = value;
                Ok(())
            }
            Expr::Select { base, attr, .. } => {
                let obj = self.eval_obj(base, env)?;
                let attr_id = self
                    .scope
                    .attr(&attr.text)
                    .expect("sema resolves attributes");
                self.write_field(Loc { obj, attr: attr_id }, value)
            }
            Expr::Index { base, index, .. } => {
                let obj = self.eval_obj(base, env)?;
                let idx = self.eval_int(index, env)?;
                self.write_slot(obj, idx, value)
            }
            other => unreachable!("sema rejects assignment target {other:?}"),
        }
    }

    fn write_slot(
        &mut self,
        obj: crate::store::ObjId,
        index: i64,
        value: Value,
    ) -> Result<(), Stop> {
        for (i, frame) in self.frames.iter().enumerate() {
            if !frame.permits_slot(obj) {
                return Err(wrong(
                    WrongKind::EffectViolation,
                    format!("write to slot {obj}[{index}] exceeds the modifies list of active frame {i}"),
                ));
            }
        }
        self.store.write_slot(obj, index, value);
        Ok(())
    }

    fn write_field(&mut self, loc: Loc, value: Value) -> Result<(), Stop> {
        for (i, frame) in self.frames.iter().enumerate() {
            if !frame.permits(loc) {
                let attr = &self.scope.attr_info(loc.attr).name;
                return Err(wrong(
                    WrongKind::EffectViolation,
                    format!(
                        "write to {}·{attr} exceeds the modifies list of active frame {i}",
                        loc.obj
                    ),
                ));
            }
        }
        self.store.write(loc, value);
        Ok(())
    }

    fn eval_obj(&mut self, expr: &Expr, env: &mut Vec<(String, Value)>) -> Result<ObjId, Stop> {
        match self.eval(expr, env)? {
            Value::Obj(o) => Ok(o),
            Value::Null => Err(wrong(
                WrongKind::NullDereference,
                oolong_syntax::pretty::print_expr(expr),
            )),
            other => Err(wrong(
                WrongKind::TypeError,
                format!("dereference of non-object value {other}"),
            )),
        }
    }

    fn eval_bool(&mut self, expr: &Expr, env: &mut Vec<(String, Value)>) -> Result<bool, Stop> {
        match self.eval(expr, env)? {
            Value::Bool(b) => Ok(b),
            other => Err(wrong(
                WrongKind::TypeError,
                format!("condition evaluated to non-boolean {other}"),
            )),
        }
    }

    fn eval_int(&mut self, expr: &Expr, env: &mut Vec<(String, Value)>) -> Result<i64, Stop> {
        match self.eval(expr, env)? {
            Value::Int(n) => Ok(n),
            other => Err(wrong(
                WrongKind::TypeError,
                format!("arithmetic on non-integer value {other}"),
            )),
        }
    }

    fn eval(&mut self, expr: &Expr, env: &mut Vec<(String, Value)>) -> Result<Value, Stop> {
        match expr {
            Expr::Const(c, _) => Ok(match c {
                Const::Null => Value::Null,
                Const::Bool(b) => Value::Bool(*b),
                Const::Int(n) => Value::Int(*n),
            }),
            Expr::Id(x) => Ok(env
                .iter()
                .rev()
                .find(|(name, _)| name == &x.text)
                .expect("sema guarantees variables are bound")
                .1),
            Expr::Select { base, attr, .. } => {
                let obj = self.eval_obj(base, env)?;
                let attr_id = self
                    .scope
                    .attr(&attr.text)
                    .expect("sema resolves attributes");
                let loc = Loc { obj, attr: attr_id };
                self.check_read(loc)?;
                Ok(self.store.read(loc))
            }
            Expr::Index { base, index, .. } => {
                let obj = self.eval_obj(base, env)?;
                let idx = self.eval_int(index, env)?;
                self.check_read_slot(obj, idx)?;
                Ok(self.store.read_slot(obj, idx))
            }
            Expr::Unary { op, operand, .. } => match op {
                UnaryOp::Not => Ok(Value::Bool(!self.eval_bool(operand, env)?)),
                UnaryOp::Neg => {
                    let n = self.eval_int(operand, env)?;
                    n.checked_neg()
                        .map(Value::Int)
                        .ok_or_else(|| wrong(WrongKind::TypeError, "integer overflow in negation"))
                }
            },
            Expr::Binary { op, lhs, rhs, .. } => match op {
                BinOp::Eq => Ok(Value::Bool(self.eval(lhs, env)? == self.eval(rhs, env)?)),
                BinOp::Ne => Ok(Value::Bool(self.eval(lhs, env)? != self.eval(rhs, env)?)),
                BinOp::And => Ok(Value::Bool(
                    self.eval_bool(lhs, env)? & self.eval_bool(rhs, env)?,
                )),
                BinOp::Or => Ok(Value::Bool(
                    self.eval_bool(lhs, env)? | self.eval_bool(rhs, env)?,
                )),
                BinOp::Lt => Ok(Value::Bool(
                    self.eval_int(lhs, env)? < self.eval_int(rhs, env)?,
                )),
                BinOp::Le => Ok(Value::Bool(
                    self.eval_int(lhs, env)? <= self.eval_int(rhs, env)?,
                )),
                BinOp::Gt => Ok(Value::Bool(
                    self.eval_int(lhs, env)? > self.eval_int(rhs, env)?,
                )),
                BinOp::Ge => Ok(Value::Bool(
                    self.eval_int(lhs, env)? >= self.eval_int(rhs, env)?,
                )),
                BinOp::Add | BinOp::Sub | BinOp::Mul => {
                    let a = self.eval_int(lhs, env)?;
                    let b = self.eval_int(rhs, env)?;
                    let r = match op {
                        BinOp::Add => a.checked_add(b),
                        BinOp::Sub => a.checked_sub(b),
                        BinOp::Mul => a.checked_mul(b),
                        _ => unreachable!(),
                    };
                    r.map(Value::Int)
                        .ok_or_else(|| wrong(WrongKind::TypeError, "integer overflow"))
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_syntax::parse_program;

    fn scope_of(src: &str) -> Scope {
        Scope::analyze(&parse_program(src).unwrap()).unwrap()
    }

    fn run_first(src: &str, proc: &str) -> RunOutcome {
        let scope = scope_of(src);
        let mut interp = Interp::new(&scope, ExecConfig::default(), FirstOracle);
        interp.run_proc_fresh(proc)
    }

    #[test]
    fn completes_trivially() {
        assert_eq!(
            run_first("proc p(t) impl p(t) { skip }", "p"),
            RunOutcome::Completed
        );
    }

    #[test]
    fn assert_false_goes_wrong() {
        match run_first("proc p(t) impl p(t) { assert false }", "p") {
            RunOutcome::Wrong(w) => assert_eq!(w.kind, WrongKind::AssertFailed),
            other => panic!("expected wrong, got {other:?}"),
        }
    }

    #[test]
    fn assume_false_blocks() {
        assert_eq!(
            run_first("proc p(t) impl p(t) { assume false ; assert false }", "p"),
            RunOutcome::Blocked
        );
    }

    #[test]
    fn field_write_and_read() {
        assert_eq!(
            run_first(
                "field f proc p(t) modifies t.f
                 impl p(t) { t.f := 3 ; assert t.f = 3 }",
                "p"
            ),
            RunOutcome::Completed
        );
    }

    #[test]
    fn unlicensed_write_is_effect_violation() {
        match run_first("field f proc p(t) impl p(t) { t.f := 3 }", "p") {
            RunOutcome::Wrong(w) => assert_eq!(w.kind, WrongKind::EffectViolation),
            other => panic!("expected effect violation, got {other:?}"),
        }
    }

    #[test]
    fn group_license_admits_member_writes() {
        assert_eq!(
            run_first(
                "group g field f in g proc p(t) modifies t.g impl p(t) { t.f := 1 }",
                "p"
            ),
            RunOutcome::Completed
        );
    }

    #[test]
    fn fresh_objects_are_freely_writable() {
        assert_eq!(
            run_first(
                "field f proc p(t) impl p(t) { var x in x := new() ; x.f := 1 end }",
                "p"
            ),
            RunOutcome::Completed
        );
    }

    #[test]
    fn nested_call_monitor_catches_caller_overreach() {
        // callee has license on u.f (passed t), but the outer frame of p
        // has none — the write inside callee must be flagged.
        match run_first(
            "field f
             proc callee(u) modifies u.f
             impl callee(u) { u.f := 1 }
             proc p(t)
             impl p(t) { callee(t) }",
            "p",
        ) {
            RunOutcome::Wrong(w) => assert_eq!(w.kind, WrongKind::EffectViolation),
            other => panic!("expected effect violation, got {other:?}"),
        }
    }

    #[test]
    fn nested_call_within_license_completes() {
        assert_eq!(
            run_first(
                "field f
                 proc callee(u) modifies u.f
                 impl callee(u) { u.f := 1 }
                 proc p(t) modifies t.f
                 impl p(t) { callee(t) }",
                "p"
            ),
            RunOutcome::Completed
        );
    }

    #[test]
    fn null_dereference_detected() {
        match run_first(
            "field f proc p(t) impl p(t) { var x in var y in y := x.f end end }",
            "p",
        ) {
            RunOutcome::Wrong(w) => assert_eq!(w.kind, WrongKind::NullDereference),
            other => panic!("expected null deref, got {other:?}"),
        }
    }

    #[test]
    fn type_errors_detected() {
        match run_first("proc p(t) impl p(t) { assert t + 1 = 2 }", "p") {
            RunOutcome::Wrong(w) => assert_eq!(w.kind, WrongKind::TypeError),
            other => panic!("expected type error, got {other:?}"),
        }
    }

    #[test]
    fn if_branches_on_condition() {
        assert_eq!(
            run_first(
                "proc p(t) impl p(t) {
                   var x in
                     if t = null then x := 1 else x := 2 end ;
                     assert x = 2
                   end
                 }",
                "p"
            ),
            RunOutcome::Completed,
            "t is a fresh object, never null"
        );
    }

    #[test]
    fn arithmetic_works() {
        assert_eq!(
            run_first(
                "field v proc p(t) modifies t.v
                 impl p(t) { t.v := 3 ; t.v := t.v + 1 ; assert t.v = 4 }",
                "p"
            ),
            RunOutcome::Completed
        );
    }

    #[test]
    fn recursion_hits_fuel() {
        assert_eq!(
            run_first("proc p(t) impl p(t) { p(t) }", "p"),
            RunOutcome::OutOfFuel
        );
    }

    #[test]
    fn havoc_respects_callee_spec_but_outer_monitor_sees_it() {
        // push has no implementation: havoc may write t.f; with seed search
        // we find a run where it does, and the outer frame (licensed) is
        // fine.
        let scope = scope_of(
            "field f
             proc push(u) modifies u.f
             proc p(t) modifies t.f
             impl p(t) { push(t) }",
        );
        for seed in 0..20 {
            let mut interp = Interp::new(&scope, ExecConfig::default(), RngOracle::seeded(seed));
            let out = interp.run_proc_fresh("p");
            assert!(out.is_acceptable(), "seed {seed}: {out:?}");
        }
    }

    #[test]
    fn havoc_can_exceed_unlicensed_caller() {
        // p has no license; havoc of push (licensed on u.f via its own
        // spec) must trip p's frame on some seed.
        let scope = scope_of(
            "field f
             proc push(u) modifies u.f
             proc p(t)
             impl p(t) { push(t) }",
        );
        let mut saw_violation = false;
        for seed in 0..40 {
            let mut interp = Interp::new(&scope, ExecConfig::default(), RngOracle::seeded(seed));
            if let RunOutcome::Wrong(w) = interp.run_proc_fresh("p") {
                assert_eq!(w.kind, WrongKind::EffectViolation);
                saw_violation = true;
            }
        }
        assert!(saw_violation, "some havoc run should write t.f");
    }

    #[test]
    fn choice_explores_both_arms() {
        let scope = scope_of("proc p(t) impl p(t) { skip [] assert false }");
        let mut outcomes = std::collections::HashSet::new();
        for seed in 0..20 {
            let mut interp = Interp::new(&scope, ExecConfig::default(), RngOracle::seeded(seed));
            outcomes.insert(match interp.run_proc_fresh("p") {
                RunOutcome::Completed => "ok",
                RunOutcome::Wrong(_) => "wrong",
                _ => "other",
            });
        }
        assert!(
            outcomes.contains("ok") && outcomes.contains("wrong"),
            "{outcomes:?}"
        );
    }

    const ARRAY_TABLE: &str = "group state
group bucketstate
field count in bucketstate
field buckets in state maps elem bucketstate into state
proc binc(b) modifies b.bucketstate
impl binc(b) { assume b != null ; if b.count = null then b.count := 1 else b.count := b.count + 1 end }
proc tinit(t) modifies t.state
impl tinit(t) {
  assume t != null ;
  t.buckets := new() ;
  t.buckets[0] := new() ;
  t.buckets[1] := new()
}
proc touch(t) modifies t.state
impl touch(t) {
  assume t != null && t.buckets != null && t.buckets[0] != null ;
  binc(t.buckets[0])
}
proc pipeline(t) modifies t.state
impl pipeline(t) { tinit(t) ; touch(t) }
";

    #[test]
    fn array_slots_and_elements_are_licensed_through_elem_closure() {
        let scope = scope_of(ARRAY_TABLE);
        let mut interp = Interp::new(&scope, ExecConfig::default(), FirstOracle);
        assert_eq!(interp.run_proc_fresh("pipeline"), RunOutcome::Completed);
        // The element's count was bumped through the delegated call.
        let count = scope.attr("count").unwrap();
        let buckets = scope.attr("buckets").unwrap();
        let store = interp.store();
        let t = crate::store::ObjId(0);
        let arr = store
            .read(Loc {
                obj: t,
                attr: buckets,
            })
            .as_obj()
            .expect("array installed");
        let elem = store.read_slot(arr, 0).as_obj().expect("element installed");
        assert_eq!(
            store.read(Loc {
                obj: elem,
                attr: count
            }),
            Value::Int(1)
        );
    }

    #[test]
    fn unlicensed_slot_write_is_an_effect_violation() {
        let scope = scope_of(
            "group state
             field buckets in state maps elem state into state
             proc sneak(t)
             impl sneak(t) { assume t != null && t.buckets != null ; t.buckets[0] := null }",
        );
        let mut interp = Interp::new(&scope, ExecConfig::default(), FirstOracle);
        // Install an array first, under an unrestricted frame.
        let buckets = scope.attr("buckets").unwrap();
        let t = interp.store_mut().alloc();
        let arr = interp.store_mut().alloc();
        interp.store_mut().write(
            Loc {
                obj: t,
                attr: buckets,
            },
            Value::Obj(arr),
        );
        let (impl_id, _) = interp_scope_first_impl(&scope);
        match interp.run_impl(impl_id, &[Value::Obj(t)]) {
            RunOutcome::Wrong(w) => assert_eq!(w.kind, WrongKind::EffectViolation),
            other => panic!("expected effect violation, got {other:?}"),
        }
    }

    #[test]
    fn unlicensed_element_attr_write_is_an_effect_violation() {
        let scope = scope_of(
            "group state
             group bucketstate
             field count in bucketstate
             field buckets in state maps elem bucketstate into state
             proc elem_write(b) modifies b.bucketstate
             impl elem_write(b) { assume b != null ; b.count := 1 }
             proc caller(t)
             impl caller(t) {
               assume t != null && t.buckets != null && t.buckets[0] != null ;
               elem_write(t.buckets[0])
             }",
        );
        let mut interp = Interp::new(&scope, ExecConfig::default(), FirstOracle);
        let buckets = scope.attr("buckets").unwrap();
        let t = interp.store_mut().alloc();
        let arr = interp.store_mut().alloc();
        let e = interp.store_mut().alloc();
        interp.store_mut().write(
            Loc {
                obj: t,
                attr: buckets,
            },
            Value::Obj(arr),
        );
        interp.store_mut().write_slot(arr, 0, Value::Obj(e));
        let caller = scope
            .impls()
            .find(|(_, i)| scope.proc_info(i.proc).name == "caller")
            .map(|(id, _)| id)
            .unwrap();
        // caller has no license: the element write inside elem_write trips
        // caller's frame.
        match interp.run_impl(caller, &[Value::Obj(t)]) {
            RunOutcome::Wrong(w) => assert_eq!(w.kind, WrongKind::EffectViolation),
            other => panic!("expected effect violation, got {other:?}"),
        }
    }

    fn interp_scope_first_impl(scope: &Scope) -> (ImplId, ()) {
        let (id, _) = scope.impls().next().expect("impl exists");
        (id, ())
    }

    #[test]
    fn read_audit_flags_undeclared_read() {
        // q declares reads t.f but reads t.h as well.
        let scope = scope_of(
            "field f field h
             proc q(t) reads t.f
             impl q(t) { assert t.f = t.f ; assert t.h = t.h }",
        );
        let config = ExecConfig {
            check_reads: true,
            ..ExecConfig::default()
        };
        let mut interp = Interp::new(&scope, config, FirstOracle);
        match interp.run_proc_fresh("q") {
            RunOutcome::Wrong(w) => assert_eq!(w.kind, WrongKind::ReadViolation),
            other => panic!("expected read violation, got {other:?}"),
        }
    }

    #[test]
    fn read_audit_admits_group_covered_and_fresh_reads() {
        let scope = scope_of(
            "group g field f in g field h
             proc q(t) reads t.g
             impl q(t) {
               assert t.f = t.f ;
               var x in x := new() ; assert x.h = x.h end
             }",
        );
        let config = ExecConfig {
            check_reads: true,
            ..ExecConfig::default()
        };
        let mut interp = Interp::new(&scope, config, FirstOracle);
        assert_eq!(interp.run_proc_fresh("q"), RunOutcome::Completed);
    }

    #[test]
    fn read_audit_off_by_default() {
        let scope = scope_of(
            "field f field h
             proc q(t) reads t.f
             impl q(t) { assert t.h = t.h }",
        );
        let mut interp = Interp::new(&scope, ExecConfig::default(), FirstOracle);
        assert_eq!(interp.run_proc_fresh("q"), RunOutcome::Completed);
    }

    #[test]
    fn invariant_broken_at_exit_detected() {
        // p zeroes then clobbers f: the invariant f = 0 fails at exit.
        let scope = scope_of(
            "group g field f in g
             invariant this.f = 0
             proc p(t) modifies t.g
             impl p(t) { t.f := 1 }",
        );
        let config = ExecConfig {
            check_invariants: true,
            ..ExecConfig::default()
        };
        let mut interp = Interp::new(&scope, config, FirstOracle);
        let t = interp.store_mut().alloc();
        let f = scope.attr("f").unwrap();
        interp
            .store_mut()
            .write(Loc { obj: t, attr: f }, Value::Int(0));
        let (impl_id, _) = interp_scope_first_impl(&scope);
        match interp.run_impl(impl_id, &[Value::Obj(t)]) {
            RunOutcome::Wrong(w) => assert_eq!(w.kind, WrongKind::InvariantBroken),
            other => panic!("expected invariant broken, got {other:?}"),
        }
    }

    #[test]
    fn invariant_reestablished_at_exit_completes() {
        let scope = scope_of(
            "group g field f in g
             invariant this.f = 0
             proc p(t) modifies t.g
             impl p(t) { t.f := 1 ; t.f := 0 }",
        );
        let config = ExecConfig {
            check_invariants: true,
            ..ExecConfig::default()
        };
        let mut interp = Interp::new(&scope, config, FirstOracle);
        let t = interp.store_mut().alloc();
        let f = scope.attr("f").unwrap();
        interp
            .store_mut()
            .write(Loc { obj: t, attr: f }, Value::Int(0));
        let (impl_id, _) = interp_scope_first_impl(&scope);
        assert_eq!(
            interp.run_impl(impl_id, &[Value::Obj(t)]),
            RunOutcome::Completed
        );
    }

    #[test]
    fn entry_broken_invariant_is_exempt_not_wrong() {
        // The pre-store breaks the invariant (f defaults to null): the
        // static hypothesis is vacuous for that object, so the run is
        // not flagged at exit.
        let scope = scope_of(
            "group g field f in g
             invariant this.f = 0
             proc p(t) modifies t.g
             impl p(t) { skip }",
        );
        let config = ExecConfig {
            check_invariants: true,
            ..ExecConfig::default()
        };
        let mut interp = Interp::new(&scope, config, FirstOracle);
        let t = interp.store_mut().alloc();
        let (impl_id, _) = interp_scope_first_impl(&scope);
        assert_eq!(
            interp.run_impl(impl_id, &[Value::Obj(t)]),
            RunOutcome::Completed
        );
    }

    #[test]
    fn fresh_object_must_establish_invariant() {
        // Objects allocated during the run have no entry exemption: the
        // body must establish the invariant for them.
        let scope = scope_of(
            "group g field f in g
             invariant this.f = 0
             proc p(t) modifies t.g
             impl p(t) { var x in x := new() end }",
        );
        let config = ExecConfig {
            check_invariants: true,
            ..ExecConfig::default()
        };
        let mut interp = Interp::new(&scope, config, FirstOracle);
        let (impl_id, _) = interp_scope_first_impl(&scope);
        match interp.run_impl(impl_id, &[Value::Null]) {
            RunOutcome::Wrong(w) => assert_eq!(w.kind, WrongKind::InvariantBroken),
            other => panic!("expected invariant broken, got {other:?}"),
        }
    }

    #[test]
    fn invariant_checked_at_call_boundary() {
        // p breaks the invariant, then calls q: flagged at the call, not
        // only at exit.
        let scope = scope_of(
            "group g field f in g
             invariant this.f = 0
             proc q(u)
             impl q(u) { skip }
             proc p(t) modifies t.g
             impl p(t) { t.f := 1 ; q(t) ; t.f := 0 }",
        );
        let config = ExecConfig {
            check_invariants: true,
            ..ExecConfig::default()
        };
        let mut interp = Interp::new(&scope, config, FirstOracle);
        let t = interp.store_mut().alloc();
        let f = scope.attr("f").unwrap();
        interp
            .store_mut()
            .write(Loc { obj: t, attr: f }, Value::Int(0));
        let (impl_id, _) = interp_scope_first_impl2(&scope, "p");
        match interp.run_impl(impl_id, &[Value::Obj(t)]) {
            RunOutcome::Wrong(w) => {
                assert_eq!(w.kind, WrongKind::InvariantBroken);
                assert!(w.detail.contains("call to `q`"), "{}", w.detail);
            }
            other => panic!("expected invariant broken at call, got {other:?}"),
        }
    }

    fn interp_scope_first_impl2(scope: &Scope, name: &str) -> (ImplId, ()) {
        let id = scope
            .impls()
            .find(|(_, i)| scope.proc_info(i.proc).name == name)
            .map(|(id, _)| id)
            .unwrap();
        (id, ())
    }

    #[test]
    fn owner_exclusion_event_recorded() {
        // Passing st.vec to a callee licensed on st.contents — but note
        // pivot uniqueness forbids copying st.vec; the call passes the
        // pivot value directly as an argument, which sema allows.
        let scope = scope_of(
            "group contents
             group elems
             field cnt in elems
             field vec in contents maps elems into contents
             proc w(st, v) modifies st.contents
             proc setup(st) modifies st.contents
             impl setup(st) { st.vec := new() ; w(st, st.vec) }",
        );
        let config = ExecConfig {
            check_owner_exclusion: true,
            ..ExecConfig::default()
        };
        let mut interp = Interp::new(&scope, config, FirstOracle);
        match interp.run_proc_fresh("setup") {
            RunOutcome::Wrong(w) => assert_eq!(w.kind, WrongKind::OwnerExclusion),
            other => panic!("expected owner-exclusion wrong, got {other:?}"),
        }
        assert_eq!(interp.owner_exclusion_events, 1);
    }
}
