//! The `wsc-lint` rule catalog.
//!
//! Every rule works on the flat token stream from [`crate::lexer`] —
//! span-accurate without a full parse, in the same hand-rolled spirit
//! as the vendored derive macros. The catalog (IDs are stable; see
//! `docs/LINTS.md` for the rationale each rule encodes):
//!
//! | ID   | Fires on |
//! |------|----------|
//! | D001 | iteration over a `HashMap`/`HashSet` binding in non-test first-party code |
//! | D002 | a `sum`/`fold`/`product` reduction, or a compound assignment in a loop body, fed by D001-unordered iteration |
//! | D003 | `par_iter` + `reduce`/`fold`-family chains outside the blessed wave engine |
//! | D004 | wall-clock (`Instant::now`) or entropy-seeded randomness outside bench code |
//! | S001 | `unwrap`/`expect`/`panic!` in library code |
//! | S002 | `let _ =` discarding a `Result`-typed call in library code |
//! | A001 | first-party `#[deprecated]` items whose one-release window has closed |
//! | L001 | malformed waiver directive (meta-rule, not waivable) |
//! | L002 | waiver that suppresses nothing (meta-rule, not waivable) |

use crate::lexer::{Tok, TokKind};
use crate::{FileClass, Finding, Version};
use std::collections::BTreeSet;

/// Every rule ID the analyzer knows, in report order.
pub const RULE_IDS: &[&str] = &[
    "D001", "D002", "D003", "D004", "S001", "S002", "A001", "L001", "L002",
];

/// Map/set methods whose iteration order is unspecified.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "intersection",
    "union",
    "difference",
    "symmetric_difference",
];

/// Rayon parallel-iterator constructors.
const PAR_ITER_METHODS: &[&str] = &["par_iter", "par_iter_mut", "into_par_iter", "par_bridge"];

/// Order-sensitive parallel reductions (rayon splits and merges in a
/// scheduling-dependent tree, so these are only deterministic when the
/// merge operator is exactly associative — which float addition is not).
const PAR_REDUCE_METHODS: &[&str] = &[
    "reduce",
    "reduce_with",
    "fold",
    "fold_with",
    "sum",
    "product",
];

/// Sequential reductions that make unordered iteration order-visible.
const SEQ_REDUCE_METHODS: &[&str] = &["sum", "fold", "product"];

/// Method/function names whose return type is `Result` often enough to
/// treat a `let _ =` discard as swallowing an error. Deliberately
/// conservative: the analyzer has no type inference, so only names that
/// are effectively always fallible in first-party code belong here.
const RESULT_METHODS: &[&str] = &[
    "try_into",
    "try_from",
    "parse",
    "write",
    "writeln",
    "write_all",
    "write_fmt",
    "write_str",
    "flush",
    "send",
    "recv",
    "try_send",
    "try_recv",
    "set_logger",
    "create_dir_all",
    "remove_file",
];

/// Which rule runs on which file class. Test regions inside a file are
/// excluded separately for every rule.
pub fn rule_applies(rule: &str, class: FileClass) -> bool {
    match rule {
        // Bench binaries measure wall-clock time by design.
        "D004" => class != FileClass::Bench,
        // Binaries and the bench harness may panic at the top level (or
        // deliberately drop late errors on the exit path); library code
        // must return typed errors and must not swallow them.
        "S001" | "S002" => class == FileClass::Library,
        _ => true,
    }
}

/// Shared per-file context handed to every rule.
pub struct RuleCtx<'a> {
    pub path: &'a str,
    pub class: FileClass,
    pub toks: &'a [Tok],
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// Identifiers bound (let/field/param) to a `HashMap`/`HashSet`.
    pub map_idents: BTreeSet<String>,
    pub current_version: Version,
    /// Path suffixes whose `par_iter` reductions are the blessed
    /// deterministic-merge entry points (the wave engine).
    pub blessed_par_suffixes: &'a [String],
}

impl<'a> RuleCtx<'a> {
    pub fn new(
        path: &'a str,
        class: FileClass,
        toks: &'a [Tok],
        current_version: Version,
        blessed_par_suffixes: &'a [String],
    ) -> Self {
        RuleCtx {
            path,
            class,
            test_regions: test_regions(toks),
            map_idents: collect_map_idents(toks),
            toks,
            current_version,
            blessed_par_suffixes,
        }
    }

    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    fn finding(&self, rule: &str, line: u32, message: String) -> Finding {
        Finding {
            rule: rule.to_string(),
            path: self.path.to_string(),
            line,
            message,
        }
    }
}

/// Run the full catalog (minus the `L` meta-rules, which the caller
/// derives from waiver bookkeeping) and return findings sorted by
/// (line, rule), deduplicated per line.
pub fn run_rules(ctx: &RuleCtx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let iters = find_map_iterations(ctx);
    if rule_applies("D001", ctx.class) {
        findings.extend(rule_d001(ctx, &iters));
    }
    if rule_applies("D002", ctx.class) {
        findings.extend(rule_d002(ctx, &iters));
    }
    if rule_applies("D003", ctx.class) {
        findings.extend(rule_d003(ctx));
    }
    if rule_applies("D004", ctx.class) {
        findings.extend(rule_d004(ctx));
    }
    if rule_applies("S001", ctx.class) {
        findings.extend(rule_s001(ctx));
    }
    if rule_applies("S002", ctx.class) {
        findings.extend(rule_s002(ctx));
    }
    if rule_applies("A001", ctx.class) {
        findings.extend(rule_a001(ctx));
    }
    findings.retain(|f| !ctx.in_test_region(f.line));
    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    findings
}

// ---------------------------------------------------------------------------
// Token-stream analyses shared by several rules.
// ---------------------------------------------------------------------------

/// Is `toks[i]`/`toks[i+1]` the two-character operator `::`?
fn is_path_sep(toks: &[Tok], i: usize) -> bool {
    i + 1 < toks.len()
        && toks[i].is_punct(':')
        && toks[i + 1].is_punct(':')
        && toks[i].line == toks[i + 1].line
        && toks[i].col + 1 == toks[i + 1].col
}

/// Index of the bracket matching the opener at `open` (`(`/`[`/`{`),
/// or `toks.len()` when unbalanced.
fn matching(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return open,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct(o) {
            depth += 1;
        } else if toks[i].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Index of the bracket matching the closer at `close`, walking
/// backwards; `usize::MAX` when unbalanced.
fn matching_back(toks: &[Tok], close: usize) -> usize {
    let (o, c) = match toks[close].text.as_str() {
        ")" => ('(', ')'),
        "]" => ('[', ']'),
        "}" => ('{', '}'),
        _ => return close,
    };
    let mut depth = 0usize;
    let mut i = close as isize;
    while i >= 0 {
        let t = &toks[i as usize];
        if t.is_punct(c) {
            depth += 1;
        } else if t.is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return i as usize;
            }
        }
        i -= 1;
    }
    usize::MAX
}

/// Line ranges covered by `#[cfg(test)]`-gated items (test modules and
/// functions inside first-party sources).
fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !(toks[i].is_punct('#') && toks[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let close = matching(toks, i + 1);
        let attr = &toks[i + 2..close.min(toks.len())];
        // `#[cfg(test)]` / `#[cfg(any(test, ...))]` gate test code;
        // `#[cfg(not(test))]` gates production code and must NOT be
        // exempted.
        let is_cfg_test = attr.iter().any(|t| t.is_ident("cfg"))
            && attr.iter().any(|t| t.is_ident("test"))
            && !attr.iter().any(|t| t.is_ident("not"));
        let start_line = toks[i].line;
        if !is_cfg_test || close >= toks.len() {
            i = close.min(toks.len() - 1) + 1;
            continue;
        }
        // Skip further attributes, then find the gated item's body.
        let mut j = close + 1;
        while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
            j = matching(toks, j + 1) + 1;
        }
        // Walk to the item's opening `{` (or a terminating `;` for
        // `mod name;` declarations, which gate a separate file).
        while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
            j += 1;
        }
        if j < toks.len() && toks[j].is_punct('{') {
            let end = matching(toks, j);
            let end_line = if end < toks.len() {
                toks[end].line
            } else {
                toks[toks.len() - 1].line
            };
            regions.push((start_line, end_line));
            i = end.min(toks.len() - 1) + 1;
        } else {
            i = j + 1;
        }
    }
    regions
}

/// Collect identifiers whose declared type or initializer is a
/// `HashMap`/`HashSet` (let bindings, struct fields, fn parameters,
/// including wrapped types like `RwLock<HashMap<..>>`).
fn collect_map_idents(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // `name = HashMap::new()` (with or without a prior ascription).
        if i >= 2 && toks[i - 1].is_punct('=') && toks[i - 2].kind == TokKind::Ident {
            out.insert(toks[i - 2].text.clone());
            continue;
        }
        // `name: HashMap<..>` / `name: &mut HashMap<..>` /
        // `name: RwLock<HashMap<..>>` — walk back over type-ish tokens
        // to a single `:` preceded by the binding identifier.
        let mut j = i as isize - 1;
        // Skip the `std::collections::` path prefix on the type itself.
        while j >= 1 && is_path_sep(toks, (j - 1) as usize) {
            j -= 2;
            if j >= 0 && toks[j as usize].kind == TokKind::Ident {
                j -= 1;
            }
        }
        let type_ish = |t: &Tok| -> bool {
            t.is_punct('<')
                || t.is_punct('&')
                || t.kind == TokKind::Lifetime
                || (t.kind == TokKind::Ident && t.text != "let")
        };
        let mut steps = 0;
        while j >= 0 && steps < 8 && type_ish(&toks[j as usize]) {
            j -= 1;
            steps += 1;
        }
        if j >= 1
            && toks[j as usize].is_punct(':')
            && !is_path_sep(toks, (j - 1) as usize)
            && toks[(j - 1) as usize].kind == TokKind::Ident
        {
            out.insert(toks[(j - 1) as usize].text.clone());
        }
    }
    out
}

/// One detected unordered-iteration site.
struct IterEvent {
    line: u32,
    /// Token index of the trigger (`.iter`-family method ident, or the
    /// `for` keyword).
    kind: IterKind,
}

enum IterKind {
    /// `map.iter()`-style chain; holds the method ident index.
    Chain(usize),
    /// `for pat in <expr-with-map> { body }`; holds the body brace span.
    ForLoop(usize, usize),
}

/// Receiver identifiers of the postfix chain ending at the `.` before
/// token index `dot`. Method names (identifiers directly followed by a
/// call group) are skipped; only field/variable segments count.
fn chain_receiver_idents(toks: &[Tok], dot: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut k = dot as isize - 1;
    while k >= 0 {
        let t = &toks[k as usize];
        if t.is_punct(')') || t.is_punct(']') {
            let open = matching_back(toks, k as usize);
            if open == usize::MAX {
                break;
            }
            k = open as isize - 1;
            continue;
        }
        if t.is_punct('?') || t.is_punct('.') {
            k -= 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            let followed_by_call = (k as usize + 1) < toks.len()
                && (toks[k as usize + 1].is_punct('(') || toks[k as usize + 1].is_punct('!'));
            if !followed_by_call {
                out.push(t.text.clone());
            }
            k -= 1;
            // Path segments (`self::x`, `crate::m::MAP`) continue left.
            if k >= 1 && is_path_sep(toks, (k - 1) as usize) {
                k -= 2;
                continue;
            }
            if k >= 0 && (toks[k as usize].is_punct('.') || toks[k as usize].is_punct('?')) {
                continue;
            }
            break;
        }
        break;
    }
    out
}

/// Walk the postfix chain forward from just-after token `i` (which
/// must be a method ident); returns method names seen until the chain
/// ends at a statement boundary.
fn chain_following_methods(toks: &[Tok], method_idx: usize) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut j = method_idx + 1;
    // Skip an optional turbofish and the call group of the trigger.
    j = skip_turbofish_and_call(toks, j);
    loop {
        if j >= toks.len() || !toks[j].is_punct('.') {
            return out;
        }
        j += 1;
        if j >= toks.len() || toks[j].kind != TokKind::Ident {
            return out;
        }
        out.push((j, toks[j].text.clone()));
        j = skip_turbofish_and_call(toks, j + 1);
    }
}

/// Skip `::<...>` and a `(...)` call group starting at `j`.
fn skip_turbofish_and_call(toks: &[Tok], mut j: usize) -> usize {
    if j + 2 < toks.len() && is_path_sep(toks, j) && toks[j + 2].is_punct('<') {
        let mut depth = 0isize;
        j += 2;
        while j < toks.len() {
            if toks[j].is_punct('<') {
                depth += 1;
            } else if toks[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    if j < toks.len() && toks[j].is_punct('(') {
        j = matching(toks, j) + 1;
    }
    j
}

/// Find every unordered-map iteration site in the file.
fn find_map_iterations(ctx: &RuleCtx<'_>) -> Vec<IterEvent> {
    let toks = ctx.toks;
    let mut events = Vec::new();
    // Chain form: `<chain containing a map binding>.iter()` etc.
    for i in 1..toks.len() {
        if toks[i].kind != TokKind::Ident
            || !ITER_METHODS.contains(&toks[i].text.as_str())
            || !toks[i - 1].is_punct('.')
        {
            continue;
        }
        let after = i + 1;
        let calls = after < toks.len()
            && (toks[after].is_punct('(') || (is_path_sep(toks, after) && after + 2 < toks.len()));
        if !calls {
            continue;
        }
        let receivers = chain_receiver_idents(toks, i - 1);
        if receivers.iter().any(|r| ctx.map_idents.contains(r)) {
            events.push(IterEvent {
                line: toks[i].line,
                kind: IterKind::Chain(i),
            });
        }
    }
    // Loop form: `for pat in <expr mentioning a map binding> { .. }`.
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("for") {
            i += 1;
            continue;
        }
        // `for<'a>` generic binders are not loops.
        if i + 1 < toks.len() && toks[i + 1].is_punct('<') {
            i += 1;
            continue;
        }
        // Find `in` at bracket depth 0 before the body brace.
        let mut j = i + 1;
        let mut depth = 0isize;
        let mut in_idx = None;
        while j < toks.len() && j < i + 64 {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_ident("in") {
                in_idx = Some(j);
                break;
            } else if depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
                break;
            }
            j += 1;
        }
        let Some(in_idx) = in_idx else {
            i += 1;
            continue;
        };
        // Expression runs to the first depth-0 `{` (struct literals are
        // not allowed bare in a `for` head, so this is the body).
        let mut k = in_idx + 1;
        let mut depth = 0isize;
        let mut body_open = None;
        let mut mentions_map = false;
        let mut has_iter_call = false;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct('{') {
                body_open = Some(k);
                break;
            } else if t.kind == TokKind::Ident {
                // Count the map only when iterated directly (`&map`,
                // `map`), not as a plain method receiver like the
                // ordered range `0..map.len()`.
                let called_on =
                    k + 1 < toks.len() && (toks[k + 1].is_punct('(') || toks[k + 1].is_punct('.'));
                if ctx.map_idents.contains(&t.text) && !called_on {
                    mentions_map = true;
                }
                if ITER_METHODS.contains(&t.text.as_str()) {
                    has_iter_call = true;
                }
            }
            k += 1;
        }
        let Some(body_open) = body_open else {
            i = k + 1;
            continue;
        };
        // The chain pass already reported `for x in map.iter()`.
        if mentions_map && !has_iter_call {
            events.push(IterEvent {
                line: toks[i].line,
                kind: IterKind::ForLoop(body_open, matching(toks, body_open)),
            });
        }
        i = body_open + 1;
    }
    events
}

// ---------------------------------------------------------------------------
// The rules themselves.
// ---------------------------------------------------------------------------

fn rule_d001(ctx: &RuleCtx<'_>, iters: &[IterEvent]) -> Vec<Finding> {
    iters
        .iter()
        .map(|e| {
            ctx.finding(
                "D001",
                e.line,
                "iteration over a HashMap/HashSet: order is unspecified and varies per process; \
                 use a BTreeMap/BTreeSet, sort the keys first, or waive with the reason the \
                 order cannot reach a result"
                    .to_string(),
            )
        })
        .collect()
}

fn rule_d002(ctx: &RuleCtx<'_>, iters: &[IterEvent]) -> Vec<Finding> {
    let toks = ctx.toks;
    let mut out = Vec::new();
    for e in iters {
        match e.kind {
            IterKind::Chain(idx) => {
                for (j, name) in chain_following_methods(toks, idx) {
                    if SEQ_REDUCE_METHODS.contains(&name.as_str()) {
                        out.push(ctx.finding(
                            "D002",
                            toks[j].line,
                            format!(
                                "`{name}` reduction fed by unordered map iteration: float \
                                 accumulation is order-sensitive in the last bits; iterate a \
                                 sorted view, or waive stating why the accumulator is \
                                 order-independent"
                            ),
                        ));
                    }
                }
            }
            IterKind::ForLoop(open, close) => {
                let close = close.min(toks.len());
                for k in open..close.saturating_sub(1) {
                    let (a, b) = (&toks[k], &toks[k + 1]);
                    let compound =
                        (a.is_punct('+') || a.is_punct('-') || a.is_punct('*') || a.is_punct('/'))
                            && b.is_punct('=')
                            && a.line == b.line
                            && a.col + 1 == b.col;
                    if compound {
                        out.push(
                            ctx.finding(
                                "D002",
                                a.line,
                                "compound assignment inside a loop over a HashMap/HashSet: float \
                             accumulation is order-sensitive in the last bits; iterate a sorted \
                             view, or waive stating why the accumulator is order-independent"
                                    .to_string(),
                            ),
                        );
                    }
                }
            }
        }
    }
    out
}

fn rule_d003(ctx: &RuleCtx<'_>) -> Vec<Finding> {
    if ctx
        .blessed_par_suffixes
        .iter()
        .any(|s| ctx.path.ends_with(s.as_str()))
    {
        return Vec::new();
    }
    let toks = ctx.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !PAR_ITER_METHODS.contains(&toks[i].text.as_str()) {
            continue;
        }
        for (j, name) in chain_following_methods(toks, i) {
            if PAR_REDUCE_METHODS.contains(&name.as_str()) {
                out.push(ctx.finding(
                    "D003",
                    toks[j].line,
                    format!(
                        "parallel `{name}` outside the wave engine: rayon's merge tree depends \
                         on scheduling, so the result is only deterministic for exactly \
                         associative operators; collect in input order with \
                         `.map().collect()` and reduce the collected results in order"
                    ),
                ));
            }
        }
    }
    out
}

fn rule_d004(ctx: &RuleCtx<'_>) -> Vec<Finding> {
    let toks = ctx.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let qualified_now = |base: &str| -> bool {
            t.is_ident(base)
                && i + 3 < toks.len()
                && is_path_sep(toks, i + 1)
                && toks[i + 3].is_ident("now")
        };
        let hit = if qualified_now("Instant") || qualified_now("SystemTime") {
            Some("wall-clock time")
        } else if t.is_ident("from_entropy")
            || t.is_ident("thread_rng")
            || t.is_ident("OsRng")
            || (t.is_ident("rand")
                && i + 3 < toks.len()
                && is_path_sep(toks, i + 1)
                && toks[i + 3].is_ident("random"))
        {
            Some("entropy-seeded randomness")
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(ctx.finding(
                "D004",
                t.line,
                format!(
                    "{what} in non-bench code: results must be a pure function of the inputs \
                     and the seed; take the seed/clock as a parameter, or move the measurement \
                     into wsc-bench"
                ),
            ));
        }
    }
    out
}

fn rule_s001(ctx: &RuleCtx<'_>) -> Vec<Finding> {
    let toks = ctx.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let method_call = |name: &str| -> bool {
            t.is_ident(name)
                && i >= 1
                && toks[i - 1].is_punct('.')
                && i + 1 < toks.len()
                && toks[i + 1].is_punct('(')
        };
        if method_call("unwrap") || method_call("expect") {
            out.push(ctx.finding(
                "S001",
                t.line,
                format!(
                    "`{}` in library code: return a typed error, make the state infallible by \
                     construction, or waive with the invariant that rules the panic out",
                    t.text
                ),
            ));
        } else if t.is_ident("panic") && i + 1 < toks.len() && toks[i + 1].is_punct('!') {
            out.push(
                ctx.finding(
                    "S001",
                    t.line,
                    "`panic!` in library code: return a typed error, or waive with the invariant \
                 that rules the panic out"
                        .to_string(),
                ),
            );
        }
    }
    out
}

/// Names of functions declared in this file whose return type mentions
/// `Result` — the type-inference-lite half of S002. `fn name(..) -> ..
/// Result .. {` is enough; aliases like `io::Result<()>` still carry
/// the `Result` identifier.
fn collect_result_fns(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !(toks[i].is_ident("fn") && toks[i + 1].kind == TokKind::Ident) {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        // Walk to the parameter list, skip it, then scan the return
        // type (everything before the body brace or a `;`).
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('(') {
            j += 1;
        }
        if j >= toks.len() {
            break;
        }
        let close = matching(toks, j);
        let mut k = close.saturating_add(1);
        let mut returns_result = false;
        while k < toks.len() && !toks[k].is_punct('{') && !toks[k].is_punct(';') {
            if toks[k].is_ident("Result") {
                returns_result = true;
            }
            k += 1;
        }
        if returns_result {
            out.insert(name);
        }
        i = k;
    }
    out
}

fn rule_s002(ctx: &RuleCtx<'_>) -> Vec<Finding> {
    let toks = ctx.toks;
    let result_fns = collect_result_fns(toks);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 2 < toks.len() {
        // The discard pattern: `let _ = <expr> ;` (not `let _x`, which
        // at least names the drop).
        if !(toks[i].is_ident("let") && toks[i + 1].is_ident("_") && toks[i + 2].is_punct('=')) {
            i += 1;
            continue;
        }
        // The discarded expression: everything to the `;` at bracket
        // depth zero.
        let start = i + 3;
        let mut depth = 0usize;
        let mut end = start;
        while end < toks.len() {
            let t = &toks[end];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else if t.is_punct(';') && depth == 0 {
                break;
            }
            end += 1;
        }
        let expr = &toks[start..end.min(toks.len())];
        // `?` already propagates the error; the discard is of the Ok
        // value, which is fine.
        let propagates = expr.iter().any(|t| t.is_punct('?'));
        // The call the statement discards: the last `name(..)`,
        // `name::<..>(..)` or `name!(..)` at depth zero in the chain.
        let mut last_call: Option<&Tok> = None;
        let mut d = 0usize;
        for (w, t) in expr.iter().enumerate() {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                d += 1;
                continue;
            }
            if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                d = d.saturating_sub(1);
                continue;
            }
            if d != 0 || t.kind != TokKind::Ident {
                continue;
            }
            let next = expr.get(w + 1);
            // Plain call, macro form, or turbofish `name::<..>(..)`.
            let is_call = matches!(next, Some(n) if n.is_punct('('))
                || matches!(next, Some(n) if n.is_punct('!'))
                || (w + 3 < expr.len() && is_path_sep(expr, w + 1) && expr[w + 3].is_punct('<'));
            if is_call {
                last_call = Some(t);
            }
        }
        if let (Some(call), false) = (last_call, propagates) {
            let fallible =
                RESULT_METHODS.contains(&call.text.as_str()) || result_fns.contains(&call.text);
            if fallible {
                out.push(ctx.finding(
                    "S002",
                    toks[i].line,
                    format!(
                        "`let _ = {}(..)` swallows a `Result` in library code: handle or \
                         propagate the error, or waive with the reason the failure is benign",
                        call.text
                    ),
                ));
            }
        }
        i = end + 1;
    }
    out
}

fn rule_a001(ctx: &RuleCtx<'_>) -> Vec<Finding> {
    let toks = ctx.toks;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if !(toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("deprecated"))
        {
            i += 1;
            continue;
        }
        let close = matching(toks, i + 1);
        let attr = &toks[i + 2..close.min(toks.len())];
        let mut since: Option<&str> = None;
        for w in 0..attr.len() {
            if attr[w].is_ident("since")
                && w + 2 < attr.len()
                && attr[w + 1].is_punct('=')
                && attr[w + 2].kind == TokKind::Str
            {
                since = Some(attr[w + 2].text.as_str());
            }
        }
        let line = toks[i].line;
        match since.map(Version::parse) {
            None => out.push(
                ctx.finding(
                    "A001",
                    line,
                    "`#[deprecated]` without `since`: the one-release removal window cannot be \
                 tracked; add `since = \"x.y.z\"`"
                        .to_string(),
                ),
            ),
            Some(None) => out.push(ctx.finding(
                "A001",
                line,
                "`#[deprecated]` with an unparseable `since` version".to_string(),
            )),
            Some(Some(v)) if v < ctx.current_version => out.push(ctx.finding(
                "A001",
                line,
                format!(
                    "deprecated since {v} but the workspace is at {}: the one-release window \
                     has closed — delete the item and migrate remaining callers",
                    ctx.current_version
                ),
            )),
            Some(Some(_)) => {}
        }
        i = close.min(toks.len() - 1) + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx_findings(src: &str, class: FileClass) -> Vec<Finding> {
        let lexed = lex(src);
        let blessed = vec!["crates/core/src/wave.rs".to_string()];
        let ctx = RuleCtx::new("test.rs", class, &lexed.toks, Version(0, 3, 0), &blessed);
        run_rules(&ctx)
    }

    fn rules_of(f: &[Finding]) -> Vec<&str> {
        f.iter().map(|x| x.rule.as_str()).collect()
    }

    #[test]
    fn map_idents_cover_fields_lets_and_wrappers() {
        let lexed = lex(
            "struct S { link_bytes: HashMap<K, f64>, guard: RwLock<HashMap<K, V>> }\n\
             fn f(m: &mut std::collections::HashSet<u32>) { let d = HashMap::new(); }\n",
        );
        let ids = collect_map_idents(&lexed.toks);
        for name in ["link_bytes", "guard", "m", "d"] {
            assert!(ids.contains(name), "missing {name}: {ids:?}");
        }
    }

    #[test]
    fn d001_fires_on_chain_and_loop_not_on_vec() {
        let f = ctx_findings(
            "fn f(map: &HashMap<u32, f64>, v: &Vec<u32>) {\n\
             for x in v.iter() {}\n\
             for (k, val) in map {}\n\
             let n = map.keys().count();\n\
             }\n",
            FileClass::Library,
        );
        let d001: Vec<_> = f.iter().filter(|x| x.rule == "D001").collect();
        assert_eq!(d001.len(), 2, "{f:?}");
        assert_eq!(d001[0].line, 3);
        assert_eq!(d001[1].line, 4);
    }

    #[test]
    fn d001_sees_through_lock_guards() {
        let f = ctx_findings(
            "struct C { layers: RwLock<HashMap<K, V>> }\n\
             impl C { fn all(&self) -> Vec<V> { self.layers.read().ok().iter().cloned().collect() } }\n",
            FileClass::Library,
        );
        assert!(rules_of(&f).contains(&"D001"), "{f:?}");
    }

    #[test]
    fn d001_ignores_method_named_map() {
        // `map` as an *iterator adapter* must not collide with a
        // binding named `map` elsewhere in the file.
        let f = ctx_findings(
            "fn g(map: &HashMap<u32, u32>, v: &[u32]) -> Vec<u32> {\n\
             v.iter().map(|x| x + 1).collect()\n\
             }\n",
            FileClass::Library,
        );
        assert!(!rules_of(&f).contains(&"D001"), "{f:?}");
    }

    #[test]
    fn d002_fires_on_sum_and_compound_assign() {
        let f = ctx_findings(
            "fn f(map: &HashMap<u32, f64>) -> f64 {\n\
             let mut t = map.values().sum::<f64>();\n\
             for (_, v) in map {\n\
             t += v;\n\
             }\n\
             t\n\
             }\n",
            FileClass::Library,
        );
        let d002: Vec<_> = f.iter().filter(|x| x.rule == "D002").collect();
        assert_eq!(d002.len(), 2, "{f:?}");
        assert_eq!(d002[0].line, 2);
        assert_eq!(d002[1].line, 4);
    }

    #[test]
    fn d003_fires_outside_blessed_file_only() {
        let src = "fn f(v: &[f64]) -> f64 { v.par_iter().cloned().reduce(|| 0.0, |a, b| a + b) }\n";
        let f = ctx_findings(src, FileClass::Library);
        assert!(rules_of(&f).contains(&"D003"), "{f:?}");

        let lexed = lex(src);
        let blessed = vec!["crates/core/src/wave.rs".to_string()];
        let ctx = RuleCtx::new(
            "crates/core/src/wave.rs",
            FileClass::Library,
            &lexed.toks,
            Version(0, 3, 0),
            &blessed,
        );
        assert!(run_rules(&ctx).is_empty());
    }

    #[test]
    fn d003_ignores_ordered_map_collect() {
        let f = ctx_findings(
            "fn f(v: &[u32]) -> Vec<u32> { v.par_iter().map(|x| x + 1).collect() }\n",
            FileClass::Library,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d004_fires_in_library_not_bench() {
        let src = "fn t() {\n\
                   let t0 = Instant::now();\n\
                   let mut r = StdRng::from_entropy();\n\
                   }\n";
        assert_eq!(
            rules_of(&ctx_findings(src, FileClass::Library)),
            vec!["D004", "D004"]
        );
        assert!(ctx_findings(src, FileClass::Bench).is_empty());
    }

    #[test]
    fn s001_library_only_and_skips_unwrap_or() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   let a = x.unwrap_or(0);\n\
                   let b = x.unwrap();\n\
                   let c = x.expect(\"set\");\n\
                   panic!(\"boom\");\n\
                   }\n";
        let f = ctx_findings(src, FileClass::Library);
        assert_eq!(rules_of(&f), vec!["S001", "S001", "S001"]);
        assert_eq!(f[0].line, 3);
        assert!(ctx_findings(src, FileClass::Bin).is_empty());
        assert!(ctx_findings(src, FileClass::Bench).is_empty());
    }

    #[test]
    fn s002_fires_on_swallowed_results_only() {
        let src = "fn fallible() -> Result<(), String> { Ok(()) }\n\
                   fn infallible() -> u32 { 3 }\n\
                   fn f(tx: &Sender<u32>) -> Result<(), String> {\n\
                   let _ = fallible();\n\
                   let _ = tx.send(1);\n\
                   let _ = infallible();\n\
                   let _ = fallible()?;\n\
                   let _ = \"7\".parse::<u32>();\n\
                   fallible()\n\
                   }\n";
        let f = ctx_findings(src, FileClass::Library);
        let s002: Vec<_> = f.iter().filter(|x| x.rule == "S002").collect();
        assert_eq!(s002.len(), 3, "{f:?}");
        assert_eq!(s002[0].line, 4);
        assert_eq!(s002[1].line, 5);
        assert_eq!(s002[2].line, 8);
        assert!(ctx_findings(src, FileClass::Bin).is_empty());
        assert!(ctx_findings(src, FileClass::Bench).is_empty());
    }

    #[test]
    fn s002_ignores_non_call_discards() {
        let src = "fn f(map: &HashMap<u32, u32>, x: u32) {\n\
                   let _ = map.len();\n\
                   let _ = x;\n\
                   }\n";
        assert!(!rules_of(&ctx_findings(src, FileClass::Library)).contains(&"S002"));
    }

    #[test]
    fn a001_window_semantics() {
        let open = "#[deprecated(since = \"0.3.0\", note = \"n\")] fn f() {}\n";
        assert!(ctx_findings(open, FileClass::Library).is_empty());
        let closed = "#[deprecated(since = \"0.2.0\", note = \"n\")] fn f() {}\n";
        assert_eq!(
            rules_of(&ctx_findings(closed, FileClass::Library)),
            vec!["A001"]
        );
        let untracked = "#[deprecated] fn f() {}\n";
        assert_eq!(
            rules_of(&ctx_findings(untracked, FileClass::Library)),
            vec!["A001"]
        );
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let f = ctx_findings(
            "fn lib(map: &HashMap<u32, u32>) { let _ = map.len(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             use super::*;\n\
             #[test]\n\
             fn t() { let m: HashMap<u32, u32> = HashMap::new(); for x in &m { x.0.to_string().unwrap(); } }\n\
             }\n",
            FileClass::Library,
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
