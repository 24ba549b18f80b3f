//! `wire-stats`: cross-file completeness of the fault wire codes and the
//! parcel flag bits.
//!
//! Why: these are the places where adding one enum variant requires
//! touching several hand-written paths, and forgetting one compiles
//! clean. Both guard wire compatibility with other ranks, which no
//! declarative table can enforce:
//!
//! - **FaultCause wire codes** (`core/src/error.rs`): `code()` must map
//!   every variant to a unique code, `from_code()` must invert it (one
//!   designated fallback variant may ride the `_` arm — that is the
//!   forward-compat path for codes from newer peers), and
//!   `count_death()` (`core/src/stats.rs`) must have a by-cause counter
//!   arm per variant. Miss one and cross-rank faults silently mutate
//!   into `HandlerError`, or a death goes uncounted.
//! - **parcel flag bits** (`wire/src/lib.rs`, `mod parcel_flags`): each
//!   flag must be a distinct single bit and the `KNOWN` mask must OR in
//!   every flag — the decoder rejects unknown bits, so a flag missing
//!   from `KNOWN` makes every parcel carrying it undecodable.
//!
//! The `LocalityStats` counters and the `Instrument` registry need no
//! arm here: each is generated from one declarative table
//! (`counters!` in `core/src/stats.rs`, `instruments!` in
//! `core/src/metrics.rs`), so no hand-copied list exists to drift.

use crate::lexer::{TokKind, Token};
use crate::segment::{matching_brace, next_sig, prev_sig};
use crate::{FileCtx, Finding};
use std::collections::BTreeMap;

pub fn check(ctxs: &[FileCtx], findings: &mut Vec<Finding>) {
    let error_ctx = ctxs.iter().find(|c| c.rel.ends_with("core/src/error.rs"));
    let stats_ctx = ctxs.iter().find(|c| c.rel.ends_with("core/src/stats.rs"));
    let wire_ctx = ctxs.iter().find(|c| c.rel.ends_with("wire/src/lib.rs"));

    // Analyzing the real core crate without its fault/stats files means
    // the completeness checks would silently vacuously pass — refuse.
    if ctxs.iter().any(|c| c.rel == "crates/core/src/lib.rs") {
        for (present, name) in [
            (error_ctx.is_some(), "error.rs"),
            (stats_ctx.is_some(), "stats.rs"),
        ] {
            if !present {
                findings.push(Finding {
                    file: "crates/core/src/lib.rs".into(),
                    line: 1,
                    rule: "wire-stats",
                    msg: format!("core/src/{name} missing: completeness checks have no subject"),
                });
            }
        }
    }

    let variants =
        error_ctx.and_then(|c| enum_variants(&c.toks, "FaultCause").map(|(v, line)| (c, v, line)));
    if let Some((ectx, variants, eline)) = &variants {
        check_fault_codes(ectx, variants, *eline, findings);
        if let Some(sctx) = stats_ctx {
            check_count_death(sctx, variants, findings);
        }
    }
    if let Some(wctx) = wire_ctx {
        check_parcel_flags(wctx, findings);
    }
}

// ---------------------------------------------------------------- FaultCause

fn check_fault_codes(ctx: &FileCtx, variants: &[String], eline: u32, findings: &mut Vec<Finding>) {
    let toks = &ctx.toks;
    let mut push = |line: u32, msg: String| {
        findings.push(Finding {
            file: ctx.rel.clone(),
            line,
            rule: "wire-stats",
            msg,
        })
    };
    // fn code: `FaultCause::V => <num>` arms.
    let Some(code_body) = fn_body(ctx, "code") else {
        push(eline, "FaultCause has no `fn code` wire encoding".into());
        return;
    };
    let mut codes: BTreeMap<String, (u64, u32)> = BTreeMap::new();
    for i in code_body.0..code_body.1 {
        if let Some(v) = fault_path(toks, i) {
            if arrow_at(toks, i + 4) {
                if let Some(n) = toks.get(i + 6) {
                    if n.kind == TokKind::Num {
                        if let Ok(val) = n.text.parse::<u64>() {
                            codes.insert(v, (val, n.line));
                        }
                    }
                }
            }
        }
    }
    for v in variants {
        if !codes.contains_key(v) {
            push(
                toks[code_body.0].line,
                format!("FaultCause::{v} has no arm in `code()` — wire code missing"),
            );
        }
    }
    let mut by_val: BTreeMap<u64, &String> = BTreeMap::new();
    for (v, (val, line)) in &codes {
        if let Some(prev) = by_val.insert(*val, v) {
            push(
                *line,
                format!("wire code {val} assigned to both FaultCause::{prev} and FaultCause::{v}"),
            );
        }
    }
    // fn from_code: `<num> => FaultCause::V`, `_ => FaultCause::Fallback`.
    let Some(fc_body) = fn_body(ctx, "from_code") else {
        push(
            eline,
            "FaultCause has no `fn from_code` wire decoding".into(),
        );
        return;
    };
    let mut back: BTreeMap<u64, String> = BTreeMap::new();
    let mut fallback: Option<String> = None;
    for i in fc_body.0..fc_body.1 {
        let t = &toks[i];
        if t.kind == TokKind::Num && arrow_at(toks, i + 1) {
            if let (Ok(val), Some(v)) = (t.text.parse::<u64>(), fault_path(toks, i + 3)) {
                back.insert(val, v);
            }
        } else if t.is_ident("_") && arrow_at(toks, i + 1) {
            fallback = fault_path(toks, i + 3);
        }
    }
    if fallback.is_none() {
        push(
            toks[fc_body.0].line,
            "`from_code()` has no `_ =>` fallback: unknown codes from newer peers would panic"
                .into(),
        );
    }
    for (v, (val, line)) in &codes {
        match back.get(val) {
            Some(b) if b == v => {}
            Some(b) => push(
                *line,
                format!("`from_code({val})` returns FaultCause::{b}, but `code()` maps {v} to it"),
            ),
            None if fallback.as_deref() == Some(v.as_str()) => {} // rides `_`
            None => push(
                *line,
                format!(
                    "FaultCause::{v} (code {val}) is not decoded by `from_code` and is not \
                     the fallback variant"
                ),
            ),
        }
    }
}

fn check_count_death(ctx: &FileCtx, variants: &[String], findings: &mut Vec<Finding>) {
    let Some(body) = fn_body(ctx, "count_death") else {
        findings.push(Finding {
            file: ctx.rel.clone(),
            line: 1,
            rule: "wire-stats",
            msg: "stats.rs has no `count_death` — by-cause death counters unreachable".into(),
        });
        return;
    };
    let toks = &ctx.toks;
    let matched: Vec<String> = (body.0..body.1)
        .filter_map(|i| fault_path(toks, i))
        .collect();
    for v in variants {
        if !matched.iter().any(|m| m == v) {
            findings.push(Finding {
                file: ctx.rel.clone(),
                line: toks[body.0].line,
                rule: "wire-stats",
                msg: format!("FaultCause::{v} has no by-cause arm in `count_death`"),
            });
        }
    }
}

// ------------------------------------------------------------- parcel flags

fn check_parcel_flags(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    let toks = &ctx.toks;
    let mut push = |line: u32, msg: String| {
        findings.push(Finding {
            file: ctx.rel.clone(),
            line,
            rule: "wire-stats",
            msg,
        })
    };
    // `mod parcel_flags { .. }`
    let Some(m) = (0..toks.len()).find(|&i| {
        toks[i].is_ident("parcel_flags")
            && i.checked_sub(1)
                .and_then(|p| prev_sig(toks, p))
                .is_some_and(|p| toks[p].is_ident("mod"))
    }) else {
        push(1, "wire/src/lib.rs has no `mod parcel_flags`".into());
        return;
    };
    let Some(open) = next_sig(toks, m + 1).filter(|&o| toks[o].is_punct('{')) else {
        return;
    };
    let close = matching_brace(toks, open);
    // Consts: `const NAME: u8 = <expr>;` — expr is a number, `1 << k`,
    // or an OR chain of earlier consts.
    struct Flag {
        name: String,
        line: u32,
        value: u64,
        or_chain: Vec<String>,
    }
    let mut flags: Vec<Flag> = Vec::new();
    let mut i = open + 1;
    while i < close {
        if toks[i].is_ident("const") {
            let Some(n) = next_sig(toks, i + 1) else {
                break;
            };
            let name = toks[n].text.clone();
            let line = toks[n].line;
            let Some(eq) = (n..close).find(|&j| toks[j].is_punct('=')) else {
                break;
            };
            let Some(semi) = (eq..close).find(|&j| toks[j].is_punct(';')) else {
                break;
            };
            let expr: Vec<&Token> = toks[eq + 1..semi]
                .iter()
                .filter(|t| !t.is_comment())
                .collect();
            let mut value = 0u64;
            let mut or_chain = Vec::new();
            if expr.len() == 1 && expr[0].kind == TokKind::Num {
                value = expr[0].text.parse().unwrap_or(0);
            } else if expr.len() == 4
                && expr[0].kind == TokKind::Num
                && expr[1].is_punct('<')
                && expr[2].is_punct('<')
                && expr[3].kind == TokKind::Num
            {
                let base: u64 = expr[0].text.parse().unwrap_or(0);
                let sh: u32 = expr[3].text.parse().unwrap_or(0);
                value = base << sh;
            } else {
                // OR chain of earlier const names.
                for t in &expr {
                    if t.kind == TokKind::Ident {
                        or_chain.push(t.text.clone());
                        if let Some(f) = flags.iter().find(|f| f.name == t.text) {
                            value |= f.value;
                        }
                    }
                }
            }
            flags.push(Flag {
                name,
                line,
                value,
                or_chain,
            });
            i = semi;
        }
        i += 1;
    }
    let bits: Vec<&Flag> = flags.iter().filter(|f| f.or_chain.is_empty()).collect();
    for (a, fa) in bits.iter().enumerate() {
        if fa.value.count_ones() != 1 {
            push(
                fa.line,
                format!(
                    "parcel flag {} is not a single bit (value {:#x})",
                    fa.name, fa.value
                ),
            );
        }
        for fb in bits.iter().skip(a + 1) {
            if fa.value == fb.value {
                push(
                    fb.line,
                    format!(
                        "parcel flags {} and {} share bit {:#x}",
                        fa.name, fb.name, fa.value
                    ),
                );
            }
        }
    }
    match flags.iter().find(|f| !f.or_chain.is_empty()) {
        None => push(
            toks[m].line,
            "parcel_flags has no KNOWN mask (OR of all flags) — the decoder cannot reject \
             unknown bits"
                .into(),
        ),
        Some(known) => {
            for b in &bits {
                if !known.or_chain.contains(&b.name) {
                    push(
                        known.line,
                        format!(
                            "parcel flag {} is missing from the {} mask — parcels carrying it \
                             would be rejected as undecodable",
                            b.name, known.name
                        ),
                    );
                }
            }
        }
    }
}

// ------------------------------------------------------------------ helpers

/// `FaultCause::V` starting at `i` → `V`.
fn fault_path(toks: &[Token], i: usize) -> Option<String> {
    if toks.get(i)?.is_ident("FaultCause")
        && toks.get(i + 1)?.is_punct(':')
        && toks.get(i + 2)?.is_punct(':')
        && toks.get(i + 3)?.kind == TokKind::Ident
    {
        Some(toks[i + 3].text.clone())
    } else {
        None
    }
}

/// `=>` at token index `i`.
fn arrow_at(toks: &[Token], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct('=')) && toks.get(i + 1).is_some_and(|t| t.is_punct('>'))
}

/// First function with this name in the file.
fn fn_body(ctx: &FileCtx, name: &str) -> Option<(usize, usize)> {
    ctx.fns.iter().find(|f| f.name == name).map(|f| f.body)
}

/// Variants of `enum <name>` (unit variants) and the enum's line.
fn enum_variants(toks: &[Token], name: &str) -> Option<(Vec<String>, u32)> {
    let e = (0..toks.len()).find(|&i| {
        toks[i].is_ident(name)
            && i.checked_sub(1)
                .and_then(|p| prev_sig(toks, p))
                .is_some_and(|p| toks[p].is_ident("enum"))
    })?;
    let open = next_sig(toks, e + 1).filter(|&o| toks[o].is_punct('{'))?;
    let close = matching_brace(toks, open);
    let mut out = Vec::new();
    let mut depth = 0i64;
    for i in open..=close {
        let t = &toks[i];
        if t.is_punct('{') || t.is_punct('(') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') {
            depth -= 1;
        } else if depth == 1 && t.kind == TokKind::Ident {
            let first_upper = t
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase());
            let delim = next_sig(toks, i + 1)
                .is_some_and(|n| toks[n].is_punct(',') || toks[n].is_punct('}'));
            if first_upper && delim {
                out.push(t.text.clone());
            }
        }
    }
    Some((out, toks[e].line))
}

#[cfg(test)]
mod tests {
    use crate::analyze_files;

    /// A minimal, *complete* error.rs / stats.rs / wire lib.rs trio.
    const GOOD_ERROR: &str = "\
pub enum FaultCause { HopCap, Decode, HandlerError }
impl FaultCause {
    pub fn code(self) -> u8 {
        match self {
            FaultCause::HopCap => 0,
            FaultCause::Decode => 1,
            FaultCause::HandlerError => 2,
        }
    }
    pub fn from_code(code: u8) -> FaultCause {
        match code {
            0 => FaultCause::HopCap,
            1 => FaultCause::Decode,
            _ => FaultCause::HandlerError,
        }
    }
}";
    const GOOD_STATS: &str = "\
impl LocalityCounters {
    pub fn count_death(&self, cause: FaultCause) {
        match cause {
            FaultCause::HopCap => bump!(self.dead_parcels),
            FaultCause::Decode => bump!(self.dead_parcels),
            FaultCause::HandlerError => bump!(self.dead_parcels),
        }
    }
}";
    const GOOD_WIRE: &str = "\
pub mod parcel_flags {
    pub const STAGED: u8 = 1 << 0;
    pub const FAULT: u8 = 1 << 1;
    pub const KNOWN: u8 = STAGED | FAULT;
}";

    fn run(error: &str, stats: &str, wire: &str) -> Vec<String> {
        analyze_files(&[
            ("crates/core/src/error.rs".into(), error.into()),
            ("crates/core/src/stats.rs".into(), stats.into()),
            ("crates/wire/src/lib.rs".into(), wire.into()),
        ])
        .into_iter()
        .filter(|f| f.rule == "wire-stats")
        .map(|f| f.to_string())
        .collect()
    }

    #[test]
    fn complete_trio_passes() {
        let found = run(GOOD_ERROR, GOOD_STATS, GOOD_WIRE);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn missing_code_arm_and_duplicate_code_caught() {
        let bad = GOOD_ERROR.replace("FaultCause::Decode => 1,\n", "");
        let found = run(&bad, GOOD_STATS, GOOD_WIRE);
        assert!(
            found
                .iter()
                .any(|m| m.contains("Decode has no arm in `code()`")),
            "{found:?}"
        );
        let bad = GOOD_ERROR.replace("FaultCause::Decode => 1,", "FaultCause::Decode => 0,");
        let found = run(&bad, GOOD_STATS, GOOD_WIRE);
        assert!(
            found.iter().any(|m| m.contains("assigned to both")),
            "{found:?}"
        );
    }

    #[test]
    fn from_code_must_invert_except_fallback() {
        // Dropping Decode's decode arm (not the fallback variant) is caught.
        let bad = GOOD_ERROR.replace("1 => FaultCause::Decode,\n", "");
        let found = run(&bad, GOOD_STATS, GOOD_WIRE);
        assert!(
            found
                .iter()
                .any(|m| m.contains("not decoded by `from_code`")),
            "{found:?}"
        );
        // Dropping the fallback arm entirely is caught.
        let bad = GOOD_ERROR.replace("_ => FaultCause::HandlerError,\n", "");
        let found = run(&bad, GOOD_STATS, GOOD_WIRE);
        assert!(
            found.iter().any(|m| m.contains("no `_ =>` fallback")),
            "{found:?}"
        );
    }

    #[test]
    fn count_death_must_cover_every_cause() {
        let bad = GOOD_STATS.replace("FaultCause::Decode => bump!(self.dead_parcels),\n", "");
        let found = run(GOOD_ERROR, &bad, GOOD_WIRE);
        assert!(
            found
                .iter()
                .any(|m| m.contains("no by-cause arm in `count_death`")),
            "{found:?}"
        );
    }

    #[test]
    fn flag_bits_unique_and_known_exhaustive() {
        let bad = GOOD_WIRE.replace(
            "pub const FAULT: u8 = 1 << 1;",
            "pub const FAULT: u8 = 1 << 0;",
        );
        let found = run(GOOD_ERROR, GOOD_STATS, &bad);
        assert!(found.iter().any(|m| m.contains("share bit")), "{found:?}");
        let bad = GOOD_WIRE.replace("STAGED | FAULT", "STAGED");
        let found = run(GOOD_ERROR, GOOD_STATS, &bad);
        assert!(
            found
                .iter()
                .any(|m| m.contains("FAULT is missing from the KNOWN mask")),
            "{found:?}"
        );
    }
}
