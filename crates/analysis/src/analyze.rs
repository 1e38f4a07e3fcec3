//! The analyzer: one spanned walk of the sketch body plus derived passes.
//!
//! The walk computes a sound output enclosure (identical to lowering the
//! body and running `cso_logic::ieval` over the same box — see the
//! cross-check tests) while emitting well-formedness lints along the way.
//! Reachability is tracked three-valuedly: a branch whose guard is
//! decided over the whole box is walked as *dead*, which downgrades every
//! lint inside it and feeds the unused-hole/param checks.
//!
//! ## Lint catalogue
//!
//! | code | lint | severity |
//! |------|------|----------|
//! | E001 | `div-by-zero` — divisor folds to the constant 0 | Error |
//! | E002 | `cannot-rank` — no metric can influence the output | Error |
//! | W101 | `possible-div-by-zero` — divisor enclosure straddles 0 | Warn |
//! | W102 | `constant-guard` — guard decided by the bounds alone | Warn |
//! | W103 | `redundant-guard` — repeats an enclosing guard | Warn |
//! | W104 | `identical-branches` — `then` and `else` are the same | Warn |
//! | W105 | `unused-hole` — hole cannot influence the output | Warn |
//! | W106 | `unused-param` — metric never used (or only dead) | Warn |
//! | W107 | `degenerate-hole` — declared range is a single point | Warn |
//! | W108 | `dead-branch` — branch unreachable under the bounds | Warn |
//! | I201 | `output-range` — derived output enclosure | Info |
//! | I202 | `hole-influence` — width reduction when a hole is pinned | Info |
//! | I203 | `metric-direction` — objective monotone in a metric | Info |

use crate::diag::{Diagnostic, Report, Severity};
use crate::interp::{aeval_bexpr, aeval_expr, cmp_op, const_eval, rat_interval, AbsEnv};
use cso_logic::ieval::{icmp, rat_enclosure, Tri};
use cso_numeric::{Interval, Rat};
use cso_sketch::ast::{BExpr, Expr, Span, SpanTree};
use cso_sketch::Sketch;

/// Bounds the analyzer interprets the sketch over.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Inclusive bounds per metric parameter, in parameter order. Missing
    /// entries fall back to the whole real line (fully conservative).
    pub param_bounds: Vec<(Rat, Rat)>,
    /// Range assumed for holes declared without an explicit `in [lo, hi]`.
    pub default_hole_range: (Rat, Rat),
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            param_bounds: Vec::new(),
            default_hole_range: (Rat::from_int(-1000), Rat::from_int(1000)),
        }
    }
}

/// Direction of the objective in one metric, all other inputs held fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monotonicity {
    /// The metric provably never changes the output.
    Constant,
    /// Non-decreasing: raising the metric never lowers the output.
    NonDecreasing,
    /// Non-increasing: raising the metric never raises the output.
    NonIncreasing,
    /// The syntactic rules could not classify the dependence.
    Unknown,
}

impl Monotonicity {
    fn flip(self) -> Monotonicity {
        match self {
            Monotonicity::NonDecreasing => Monotonicity::NonIncreasing,
            Monotonicity::NonIncreasing => Monotonicity::NonDecreasing,
            other => other,
        }
    }

    /// Join for sums, `min`/`max` and undecided branches: `Constant` is
    /// the identity, equal directions survive, everything else is lost.
    fn combine(self, other: Monotonicity) -> Monotonicity {
        match (self, other) {
            (Monotonicity::Constant, m) | (m, Monotonicity::Constant) => m,
            (a, b) if a == b => a,
            _ => Monotonicity::Unknown,
        }
    }
}

/// Everything the analyzer derives for one sketch.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All diagnostics, sorted errors-first.
    pub report: Report,
    /// Sound enclosure of the objective over the given bounds.
    pub output_range: Interval,
    /// Outward-rounded enclosure of each hole's declared (or default)
    /// range.
    pub hole_boxes: Vec<Interval>,
    /// Outward-rounded enclosure of each metric's bounds.
    pub param_boxes: Vec<Interval>,
    /// Per-hole influence bound: how much the output enclosure width
    /// shrinks when the hole is pinned at its midpoint (0 when the
    /// enclosure is unbounded).
    pub hole_influence: Vec<f64>,
    /// Per-metric direction of the objective.
    pub monotonicity: Vec<Monotonicity>,
}

/// Run every analysis pass over a parsed sketch.
#[must_use]
pub fn analyze(sketch: &Sketch, cfg: &AnalysisConfig) -> Analysis {
    let hole_boxes: Vec<Interval> = sketch
        .holes()
        .iter()
        .map(|h| match &h.bounds {
            Some((lo, hi)) => rat_interval(lo, hi),
            None => rat_interval(&cfg.default_hole_range.0, &cfg.default_hole_range.1),
        })
        .collect();
    let param_boxes: Vec<Interval> = (0..sketch.params().len())
        .map(|i| {
            cfg.param_bounds.get(i).map_or_else(Interval::whole, |(lo, hi)| rat_interval(lo, hi))
        })
        .collect();
    let env = AbsEnv { holes: hole_boxes.clone(), params: param_boxes.clone() };

    let n_holes = sketch.holes().len();
    let n_params = sketch.params().len();
    let mut w = Walker {
        env: &env,
        report: Report::new(sketch.name()),
        hole_seen: vec![false; n_holes],
        hole_live: vec![false; n_holes],
        param_seen: vec![false; n_params],
        param_live: vec![false; n_params],
        guard_ctx: Vec::new(),
    };
    let spans = sketch.spans();
    let output_range = w.expr(sketch.body(), &spans.body, true);
    let Walker { mut report, hole_live, param_seen, param_live, .. } = w;

    // Declaration-site lints.
    for (i, h) in sketch.holes().iter().enumerate() {
        let span = spans.holes[i];
        if let Some((lo, hi)) = &h.bounds {
            if lo == hi {
                report.push(Diagnostic {
                    code: "W107",
                    lint: "degenerate-hole",
                    severity: Severity::Warn,
                    span,
                    message: format!(
                        "hole `{}` has a single-point range: there is nothing to synthesize",
                        h.name
                    ),
                });
            }
        }
        if !hole_live[i] {
            report.push(Diagnostic {
                code: "W105",
                lint: "unused-hole",
                severity: Severity::Warn,
                span,
                message: format!(
                    "hole `{}` only occurs in unreachable code and cannot influence the objective",
                    h.name
                ),
            });
        }
    }
    for (i, p) in sketch.params().iter().enumerate() {
        if !param_live[i] {
            let why =
                if param_seen[i] { "only occurs in unreachable code" } else { "is never used" };
            report.push(Diagnostic {
                code: "W106",
                lint: "unused-param",
                severity: Severity::Warn,
                span: spans.params[i],
                message: format!("metric `{p}` {why}: the objective cannot react to it"),
            });
        }
    }

    // Monotonicity / sign analysis per metric.
    let monotonicity: Vec<Monotonicity> =
        (0..n_params).map(|p| mono_expr(sketch.body(), p, &env)).collect();
    for (i, m) in monotonicity.iter().enumerate() {
        let dir = match m {
            Monotonicity::NonDecreasing => "non-decreasing",
            Monotonicity::NonIncreasing => "non-increasing",
            _ => continue,
        };
        report.push(Diagnostic {
            code: "I203",
            lint: "metric-direction",
            severity: Severity::Info,
            span: spans.params[i],
            message: format!(
                "objective is {dir} in `{}` over the in-bounds region",
                sketch.params()[i]
            ),
        });
    }
    if monotonicity.iter().all(|m| *m == Monotonicity::Constant) {
        report.push(Diagnostic {
            code: "E002",
            lint: "cannot-rank",
            severity: Severity::Error,
            span: spans.body.span,
            message: "no metric can influence the objective: the sketch can never rank two \
                      scenarios apart"
                .into(),
        });
    }

    // Derived facts: output range and per-hole influence bounds.
    report.push(Diagnostic {
        code: "I201",
        lint: "output-range",
        severity: Severity::Info,
        span: spans.body.span,
        message: format!("output enclosure over the given bounds is {output_range}"),
    });
    let mut hole_influence = vec![0.0f64; n_holes];
    if output_range.width().is_finite() {
        for (i, influence) in hole_influence.iter_mut().enumerate() {
            let mut pinned = env.clone();
            pinned.holes[i] = Interval::point(pinned.holes[i].midpoint());
            let narrowed = aeval_expr(sketch.body(), &pinned);
            let gain = output_range.width() - narrowed.width();
            *influence = if gain.is_finite() { gain.max(0.0) } else { 0.0 };
            report.push(Diagnostic {
                code: "I202",
                lint: "hole-influence",
                severity: Severity::Info,
                span: spans.holes[i],
                message: format!(
                    "pinning `{}` at its midpoint narrows the output enclosure width from {} to {}",
                    sketch.holes()[i].name,
                    output_range.width(),
                    narrowed.width()
                ),
            });
        }
    }

    report.sort();
    Analysis { report, output_range, hole_boxes, param_boxes, hole_influence, monotonicity }
}

// ---------------------------------------------------------------------------
// The spanned lint walk
// ---------------------------------------------------------------------------

struct Walker<'a> {
    env: &'a AbsEnv,
    report: Report,
    hole_seen: Vec<bool>,
    hole_live: Vec<bool>,
    param_seen: Vec<bool>,
    param_live: Vec<bool>,
    /// Enclosing `if` conditions with the truth value they are assumed to
    /// have in the branch currently being walked.
    guard_ctx: Vec<(&'a BExpr, bool)>,
}

impl<'a> Walker<'a> {
    fn diag(
        &mut self,
        code: &'static str,
        lint: &'static str,
        sev: Severity,
        span: Span,
        message: String,
    ) {
        self.report.push(Diagnostic { code, lint, severity: sev, span, message });
    }

    /// Walk an expression, returning its enclosure. `live` is false inside
    /// branches proven unreachable; dead code is still walked (to resolve
    /// occurrences) but emits no site lints and marks nothing live.
    fn expr(&mut self, e: &'a Expr, sp: &'a SpanTree, live: bool) -> Interval {
        match e {
            Expr::Num(r) => rat_enclosure(r),
            Expr::Param(i) => {
                self.param_seen[*i] = true;
                if live {
                    self.param_live[*i] = true;
                }
                self.env.params[*i]
            }
            Expr::Hole(i) => {
                self.hole_seen[*i] = true;
                if live {
                    self.hole_live[*i] = true;
                }
                self.env.holes[*i]
            }
            Expr::Neg(a) => -self.expr(a, sp.child(0), live),
            Expr::Add(a, b) => self.expr(a, sp.child(0), live) + self.expr(b, sp.child(1), live),
            Expr::Sub(a, b) => self.expr(a, sp.child(0), live) - self.expr(b, sp.child(1), live),
            Expr::Mul(a, b) => self.expr(a, sp.child(0), live) * self.expr(b, sp.child(1), live),
            Expr::Div(a, b) => {
                let ia = self.expr(a, sp.child(0), live);
                let ib = self.expr(b, sp.child(1), live);
                if live {
                    if matches!(const_eval(b), Some(d) if d.is_zero()) {
                        self.diag(
                            "E001",
                            "div-by-zero",
                            Severity::Error,
                            sp.span,
                            "division by zero: the divisor folds to the constant 0".into(),
                        );
                    } else if ib.contains_zero() {
                        self.diag(
                            "W101",
                            "possible-div-by-zero",
                            Severity::Warn,
                            sp.child(1).span,
                            format!("divisor can be zero: its enclosure {ib} straddles 0"),
                        );
                    }
                }
                ia / ib
            }
            Expr::Min(a, b) => {
                self.expr(a, sp.child(0), live).min_i(&self.expr(b, sp.child(1), live))
            }
            Expr::Max(a, b) => {
                self.expr(a, sp.child(0), live).max_i(&self.expr(b, sp.child(1), live))
            }
            Expr::If(c, a, b) => self.if_expr(c, a, b, sp, live),
        }
    }

    fn if_expr(
        &mut self,
        c: &'a BExpr,
        a: &'a Expr,
        b: &'a Expr,
        sp: &'a SpanTree,
        live: bool,
    ) -> Interval {
        // A guard structurally equal to an enclosing one is decided by
        // context, whatever the intervals say (same inputs ⇒ same truth).
        let mut forced: Option<bool> = None;
        if live {
            if let Some(&(_, t)) = self.guard_ctx.iter().rev().find(|(g, _)| *g == c) {
                self.diag(
                    "W103",
                    "redundant-guard",
                    Severity::Warn,
                    sp.child(0).span,
                    format!("guard repeats an enclosing guard and is always {t} here"),
                );
                forced = Some(t);
            }
        }
        let tri = self.bexpr(c, sp.child(0), live);
        let tri = match forced {
            Some(true) => Tri::True,
            Some(false) => Tri::False,
            None => tri,
        };
        if live {
            if forced.is_none() {
                match tri {
                    Tri::True => self.diag(
                        "W102",
                        "constant-guard",
                        Severity::Warn,
                        sp.child(0).span,
                        "guard is always true under the metric and hole bounds".into(),
                    ),
                    Tri::False => self.diag(
                        "W102",
                        "constant-guard",
                        Severity::Warn,
                        sp.child(0).span,
                        "guard is always false under the metric and hole bounds".into(),
                    ),
                    Tri::Unknown => {}
                }
            }
            match tri {
                Tri::True => self.diag(
                    "W108",
                    "dead-branch",
                    Severity::Warn,
                    sp.child(2).span,
                    "else branch is unreachable: its guard is always true".into(),
                ),
                Tri::False => self.diag(
                    "W108",
                    "dead-branch",
                    Severity::Warn,
                    sp.child(1).span,
                    "then branch is unreachable: its guard is always false".into(),
                ),
                Tri::Unknown => {}
            }
            if a == b {
                self.diag(
                    "W104",
                    "identical-branches",
                    Severity::Warn,
                    sp.span,
                    "then and else branches are identical: the guard decides nothing".into(),
                );
            }
        }
        self.guard_ctx.push((c, true));
        let ia = self.expr(a, sp.child(1), live && tri != Tri::False);
        self.guard_ctx.pop();
        self.guard_ctx.push((c, false));
        let ib = self.expr(b, sp.child(2), live && tri != Tri::True);
        self.guard_ctx.pop();
        match tri {
            Tri::True => ia,
            Tri::False => ib,
            Tri::Unknown => ia.hull(&ib),
        }
    }

    fn bexpr(&mut self, e: &'a BExpr, sp: &'a SpanTree, live: bool) -> Tri {
        match e {
            BExpr::Cmp(k, a, b) => {
                let ia = self.expr(a, sp.child(0), live);
                let ib = self.expr(b, sp.child(1), live);
                icmp(cmp_op(*k), ia, ib)
            }
            BExpr::And(a, b) => {
                let ta = self.bexpr(a, sp.child(0), live);
                let tb = self.bexpr(b, sp.child(1), live);
                ta.and(tb)
            }
            BExpr::Or(a, b) => {
                let ta = self.bexpr(a, sp.child(0), live);
                let tb = self.bexpr(b, sp.child(1), live);
                ta.or(tb)
            }
            BExpr::Not(a) => self.bexpr(a, sp.child(0), live).not(),
        }
    }
}

// ---------------------------------------------------------------------------
// Monotonicity / sign analysis
// ---------------------------------------------------------------------------

/// Direction of `e` in parameter `p`, holding every other input fixed.
/// Sign queries for products/quotients use the abstract intervals of the
/// non-varying side over the whole box.
fn mono_expr(e: &Expr, p: usize, env: &AbsEnv) -> Monotonicity {
    use Monotonicity::{Constant, NonDecreasing, Unknown};
    match e {
        Expr::Num(_) | Expr::Hole(_) => Constant,
        Expr::Param(i) => {
            if *i == p {
                NonDecreasing
            } else {
                Constant
            }
        }
        Expr::Neg(a) => mono_expr(a, p, env).flip(),
        Expr::Add(a, b) => mono_expr(a, p, env).combine(mono_expr(b, p, env)),
        Expr::Sub(a, b) => mono_expr(a, p, env).combine(mono_expr(b, p, env).flip()),
        Expr::Mul(a, b) => {
            let ma = mono_expr(a, p, env);
            let mb = mono_expr(b, p, env);
            match (ma, mb) {
                (Constant, Constant) => Constant,
                (Constant, m) => scale(m, aeval_expr(a, env)),
                (m, Constant) => scale(m, aeval_expr(b, env)),
                _ => Unknown,
            }
        }
        Expr::Div(a, b) => {
            let ma = mono_expr(a, p, env);
            let mb = mono_expr(b, p, env);
            if mb != Constant {
                return Unknown;
            }
            if ma == Constant {
                return Constant;
            }
            let ib = aeval_expr(b, env);
            if ib.lo() > 0.0 {
                ma
            } else if ib.hi() < 0.0 {
                ma.flip()
            } else {
                Unknown
            }
        }
        Expr::Min(a, b) | Expr::Max(a, b) => mono_expr(a, p, env).combine(mono_expr(b, p, env)),
        Expr::If(c, a, b) => match aeval_bexpr(c, env) {
            Tri::True => mono_expr(a, p, env),
            Tri::False => mono_expr(b, p, env),
            Tri::Unknown => {
                if guard_const_in(c, p, env) {
                    mono_expr(a, p, env).combine(mono_expr(b, p, env))
                } else {
                    Unknown
                }
            }
        },
    }
}

/// Sign-scale a direction by the enclosure of the constant-side factor.
fn scale(m: Monotonicity, iv: Interval) -> Monotonicity {
    if iv.lo() == 0.0 && iv.hi() == 0.0 {
        Monotonicity::Constant
    } else if iv.lo() >= 0.0 {
        m
    } else if iv.hi() <= 0.0 {
        m.flip()
    } else {
        Monotonicity::Unknown
    }
}

/// True when the guard provably does not depend on parameter `p`.
fn guard_const_in(e: &BExpr, p: usize, env: &AbsEnv) -> bool {
    match e {
        BExpr::Cmp(_, a, b) => {
            mono_expr(a, p, env) == Monotonicity::Constant
                && mono_expr(b, p, env) == Monotonicity::Constant
        }
        BExpr::And(a, b) | BExpr::Or(a, b) => {
            guard_const_in(a, p, env) && guard_const_in(b, p, env)
        }
        BExpr::Not(a) => guard_const_in(a, p, env),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_sketch::swan::{
        abr_qoe_sketch, multi_region_sketch, swan_sketch, three_metric_sketch, SWAN_SKETCH_SRC,
    };

    fn cfg(bounds: &[(i64, i64)]) -> AnalysisConfig {
        AnalysisConfig {
            param_bounds: bounds
                .iter()
                .map(|&(lo, hi)| (Rat::from_int(lo), Rat::from_int(hi)))
                .collect(),
            ..AnalysisConfig::default()
        }
    }

    fn codes(a: &Analysis) -> Vec<&'static str> {
        a.report.diagnostics().iter().map(|d| d.code).collect()
    }

    #[test]
    fn swan_is_clean_under_its_metric_space() {
        let a = analyze(&swan_sketch(), &cfg(&[(0, 10), (0, 200)]));
        assert!(!a.report.has_errors(), "{:?}", a.report);
        assert_eq!(a.report.count(Severity::Warn), 0, "{:?}", a.report);
        // Benign infos: the output range plus one influence bound per hole.
        assert!(codes(&a).contains(&"I201"));
        assert_eq!(a.report.count(Severity::Info), 1 + 4);
        // Known concrete values sit inside the derived output range.
        assert!(a.output_range.contains_f64(982.0));
        assert!(a.output_range.contains_f64(-998.0));
        // Hole boxes enclose the declared ranges.
        assert!(a.hole_boxes[1].contains(&Interval::new(0.0, 200.0)));
        // SWAN's slopes can overpower the raw throughput term, so no
        // metric direction is provable.
        assert_eq!(a.monotonicity, vec![Monotonicity::Unknown; 2]);
    }

    #[test]
    fn all_builtin_sketches_have_zero_errors() {
        for s in [swan_sketch(), multi_region_sketch(), three_metric_sketch(), abr_qoe_sketch()] {
            let a = analyze(&s, &AnalysisConfig::default());
            assert!(!a.report.has_errors(), "{}: {:?}", s.name(), a.report);
        }
    }

    #[test]
    fn certain_div_by_zero_is_an_error_with_the_div_span() {
        let src = "fn f(x) { x / (2 - 2) }";
        let s = Sketch::parse(src).unwrap();
        let a = analyze(&s, &cfg(&[(0, 10)]));
        let d = a.report.diagnostics().iter().find(|d| d.code == "E001").expect("E001");
        assert_eq!(&src[d.span.start..d.span.end], "x / (2 - 2)");
        assert!(a.report.has_errors());
    }

    #[test]
    fn possible_div_by_zero_is_a_warn_on_the_divisor() {
        let src = "fn f(x) { 1 / x }";
        let s = Sketch::parse(src).unwrap();
        let a = analyze(&s, &cfg(&[(-1, 1)]));
        assert!(!a.report.has_errors());
        let d = a.report.diagnostics().iter().find(|d| d.code == "W101").expect("W101");
        assert_eq!(&src[d.span.start..d.span.end], "x");
        // With bounds excluding zero the warning disappears.
        let clean = analyze(&s, &cfg(&[(1, 5)]));
        assert!(!codes(&clean).contains(&"W101"));
    }

    #[test]
    fn constant_guard_marks_the_dead_branch() {
        let src = "fn f(x) { if x >= 0 then x else x * 2 }";
        let s = Sketch::parse(src).unwrap();
        let a = analyze(&s, &cfg(&[(1, 5)]));
        let g = a.report.diagnostics().iter().find(|d| d.code == "W102").expect("W102");
        assert_eq!(&src[g.span.start..g.span.end], "x >= 0");
        let dead = a.report.diagnostics().iter().find(|d| d.code == "W108").expect("W108");
        assert_eq!(&src[dead.span.start..dead.span.end], "x * 2");
        // The enclosure only covers the live branch.
        assert_eq!((a.output_range.lo(), a.output_range.hi()), (1.0, 5.0));
    }

    #[test]
    fn redundant_guard_detected_with_truth_from_context() {
        let src = "fn f(x) { if x > 1 then if x > 1 then 1 else 2 else 3 }";
        let s = Sketch::parse(src).unwrap();
        let a = analyze(&s, &cfg(&[(0, 10)]));
        let d = a.report.diagnostics().iter().find(|d| d.code == "W103").expect("W103");
        assert!(d.message.contains("always true"), "{}", d.message);
        // The inner else (the literal 2) is dead, so the enclosure is
        // {1} ∪ {3}.
        assert_eq!((a.output_range.lo(), a.output_range.hi()), (1.0, 3.0));
    }

    #[test]
    fn identical_branches_and_unused_inputs() {
        let src = "fn f(x, y) { if x > 1 then x + ??a in [0, 5] else x + ??a in [0, 5] }";
        let s = Sketch::parse(src).unwrap();
        let a = analyze(&s, &cfg(&[(0, 10), (0, 10)]));
        assert!(codes(&a).contains(&"W104"), "{:?}", a.report);
        // `y` is never used.
        let d = a.report.diagnostics().iter().find(|d| d.code == "W106").expect("W106");
        assert!(d.message.contains("`y`") && d.message.contains("never used"), "{}", d.message);
    }

    #[test]
    fn inputs_only_in_dead_code_are_flagged() {
        let src = "fn f(x, y) { if 1 >= 0 then x else y + ??h in [0, 1] }";
        let s = Sketch::parse(src).unwrap();
        let a = analyze(&s, &cfg(&[(0, 10), (0, 10)]));
        let hole = a.report.diagnostics().iter().find(|d| d.code == "W105").expect("W105");
        assert!(hole.message.contains("unreachable"), "{}", hole.message);
        let param = a.report.diagnostics().iter().find(|d| d.code == "W106").expect("W106");
        assert!(param.message.contains("unreachable"), "{}", param.message);
    }

    #[test]
    fn degenerate_hole_flagged() {
        let s = Sketch::parse("fn f(x) { x + ??a in [3, 3] }").unwrap();
        let a = analyze(&s, &cfg(&[(0, 10)]));
        assert!(codes(&a).contains(&"W107"), "{:?}", a.report);
    }

    #[test]
    fn cannot_rank_is_an_error() {
        let s = Sketch::parse("fn f(x) { ??a in [0, 5] }").unwrap();
        let a = analyze(&s, &cfg(&[(0, 10)]));
        assert!(codes(&a).contains(&"E002"), "{:?}", a.report);
        assert!(a.report.has_errors());
        // A live linear metric clears it.
        let ok = Sketch::parse("fn f(x) { ??a in [0, 5] + x }").unwrap();
        let b = analyze(&ok, &cfg(&[(0, 10)]));
        assert!(!codes(&b).contains(&"E002"), "{:?}", b.report);
    }

    #[test]
    fn monotone_directions_reported() {
        let s = Sketch::parse("fn f(x, y) { x * 2 - y + min(x, 100) }").unwrap();
        let a = analyze(&s, &cfg(&[(0, 10), (0, 10)]));
        assert_eq!(a.monotonicity, vec![Monotonicity::NonDecreasing, Monotonicity::NonIncreasing]);
        assert_eq!(a.report.diagnostics().iter().filter(|d| d.code == "I203").count(), 2);
        // Scaling by a hole whose range straddles zero destroys the
        // direction; a nonnegative hole keeps it.
        let mixed = Sketch::parse("fn f(x) { ??w in [-1, 1] * x }").unwrap();
        let am = analyze(&mixed, &cfg(&[(0, 10)]));
        assert_eq!(am.monotonicity, vec![Monotonicity::Unknown]);
        let pos = Sketch::parse("fn f(x) { ??w in [0, 1] * x }").unwrap();
        let ap = analyze(&pos, &cfg(&[(0, 10)]));
        assert_eq!(ap.monotonicity, vec![Monotonicity::NonDecreasing]);
    }

    #[test]
    fn hole_influence_orders_strong_before_weak() {
        // `big` scales the output by up to 100, `tiny` shifts it by ≤ 1.
        let s = Sketch::parse("fn f(x) { ??big in [0, 100] * x + ??tiny in [0, 1] }").unwrap();
        let a = analyze(&s, &cfg(&[(0, 10)]));
        assert!(a.hole_influence[0] > a.hole_influence[1], "influences: {:?}", a.hole_influence);
        assert!(a.hole_influence[1] >= 0.0);
    }

    #[test]
    fn swan_source_constant_matches_fixture_semantics() {
        // The analyzer result for the built-in SWAN sketch and for a
        // reparse of its source constant must agree exactly.
        let a = analyze(&swan_sketch(), &cfg(&[(0, 10), (0, 200)]));
        let b = analyze(&Sketch::parse(SWAN_SKETCH_SRC).unwrap(), &cfg(&[(0, 10), (0, 200)]));
        assert_eq!(a.report, b.report);
        assert_eq!(a.output_range, b.output_range);
    }
}
