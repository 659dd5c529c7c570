//! The two token rules (DESIGN.md §12): unordered-map iteration inside
//! order-sensitive functions, and heap allocation inside hot-path
//! encode/digest/multicast functions (plus encoding a value only to
//! measure it). Both key on the enclosing function's *name*, which is
//! what clippy cannot express.
//!
//! Both rules match *token sequences* from the comment/string-aware
//! lexer, so `.iter()` in a doc comment, a string literal, or
//! `#[cfg(test)]` code can never trip them.

use crate::lexer::{matching, Tok, TokKind};
use crate::report::{Finding, Rule};

/// Function-name substrings that mark a function as order-sensitive:
/// its output feeds digests, the wire format, or dependency-graph
/// emission, so iteration order inside it must be deterministic.
const CANONICAL_FN_MARKERS: [&str; 6] = ["digest", "encode", "decode", "emit", "wire", "hash"];

/// Function-name substrings that mark a function as hot-path
/// serialization or fan-out code. Per-item heap allocation there is a
/// throughput bug; `format!` is additionally a correctness bug when the
/// rendering feeds a digest or the wire (Rust's `Debug` output is not a
/// stable format — the `commit_digest` incident, DESIGN.md §15).
const HOT_PATH_FN_MARKERS: [&str; 3] = ["encode", "digest", "multicast"];

/// Methods that observe a collection in iteration order.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_keys",
    "into_values",
];

/// Runs both token rules over one file's (cfg-test-stripped) token
/// stream. `path` is workspace-relative with `/` separators: every
/// function in `crates/depgraph/` counts as order-sensitive.
#[must_use]
pub fn check_file(path: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut findings = Vec::new();
    unordered_iter(path, toks, &mut findings);
    hot_path_alloc(path, toks, &mut findings);
    findings
}

fn is_canonical_fn(path: &str, name: &str) -> bool {
    // The whole depgraph crate emits dependency graphs, so every one of
    // its functions is order-sensitive; elsewhere the name decides.
    path.contains("crates/depgraph/") || CANONICAL_FN_MARKERS.iter().any(|m| name.contains(m))
}

fn unordered_iter(path: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    let hash_names = collect_hash_typed_names(toks);
    if hash_names.is_empty() {
        return;
    }
    let mut seen_lines = Vec::new();
    for (fn_name, body) in fn_bodies(toks) {
        if !is_canonical_fn(path, &fn_name) {
            continue;
        }
        let (b0, b1) = body;
        for i in b0..b1 {
            // `recv.iter()` / `self.recv.keys()` / … where `recv` is
            // known to be a HashMap/HashSet.
            if toks[i].is_punct('.')
                && toks
                    .get(i + 1)
                    .is_some_and(|m| ITER_METHODS.iter().any(|x| m.is_ident(x)))
                && toks.get(i + 2).is_some_and(|p| p.is_punct('('))
                && i > b0
                && toks[i - 1].kind == TokKind::Ident
                && hash_names.contains(&toks[i - 1].text)
                && !seen_lines.contains(&toks[i].line)
            {
                seen_lines.push(toks[i].line);
                findings.push(Finding::new(
                    Rule::UnorderedIter,
                    path,
                    toks[i].line,
                    format!(
                        "iteration over unordered `{}` inside order-sensitive fn `{}` \
                         — sort first or use a BTree collection",
                        toks[i - 1].text, fn_name
                    ),
                ));
            }
            // `for pat in <expr mentioning a hash-typed name> {`
            if toks[i].is_ident("for")
                && toks.get(i + 1).is_some_and(|t| !t.is_punct('<'))
                && (i == 0 || !toks[i - 1].is_ident("impl"))
            {
                if let Some(line) = for_loop_over_hash(toks, i, b1, &hash_names) {
                    if !seen_lines.contains(&line) {
                        seen_lines.push(line);
                        findings.push(Finding::new(
                            Rule::UnorderedIter,
                            path,
                            line,
                            format!(
                                "`for` loop over an unordered collection inside \
                                 order-sensitive fn `{fn_name}` — sort first or use a \
                                 BTree collection"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// `true` when `toks[i..]` starts with the method call `.name(`.
fn is_method_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct('.'))
        && toks.get(i + 1).is_some_and(|t| t.is_ident(name))
        && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
}

fn hot_path_alloc(path: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    // Encode-to-measure, in any function: `.wire_bytes().len()` builds
    // and throws away the whole encoding to learn a number the field
    // widths already give (the block cutter paid it per transaction).
    for i in 0..toks.len() {
        if is_method_call(toks, i, "wire_bytes")
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
            && is_method_call(toks, i + 4, "len")
        {
            findings.push(Finding::new(
                Rule::HotPathAlloc,
                path,
                toks[i].line,
                "`.wire_bytes().len()` encodes a value to measure it — compute the \
                 length from the field widths (`Transaction::encoded_len`)",
            ));
        }
    }
    for (fn_name, (b0, b1)) in fn_bodies(toks) {
        if !HOT_PATH_FN_MARKERS.iter().any(|m| fn_name.contains(m)) {
            continue;
        }
        for i in b0..b1 {
            // `format!(…)` — allocates, and its `{:?}` renderings are
            // not a stable wire format. `Arc::clone(&x)` is a cheap
            // refcount bump spelled as a path call, so only *method*
            // calls `.clone()` / `.to_string()` are flagged.
            let is_format =
                toks[i].is_ident("format") && toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
            let what = if is_format {
                Some("format!")
            } else if is_method_call(toks, i, "clone") {
                Some(".clone()")
            } else if is_method_call(toks, i, "to_string") {
                Some(".to_string()")
            } else {
                None
            };
            if let Some(what) = what {
                findings.push(Finding::new(
                    Rule::HotPathAlloc,
                    path,
                    toks[i].line,
                    format!(
                        "`{what}` inside hot-path fn `{fn_name}` — share the payload \
                         (Arc) or use the canonical wire encoding; never a Debug \
                         rendering"
                    ),
                ));
            }
        }
    }
}

/// If the `for` loop starting at `i` iterates an expression that
/// mentions a hash-typed name, returns the loop's line.
fn for_loop_over_hash(toks: &[Tok], i: usize, limit: usize, hash_names: &[String]) -> Option<u32> {
    // Pattern part: scan to `in` at bracket depth 0 (bounded — a `for`
    // with no `in` nearby is not a loop header).
    let mut j = i + 1;
    let mut depth = 0i32;
    let mut found_in = false;
    while j < limit && j < i + 48 {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 && toks[j].kind == TokKind::Ident => {
                found_in = true;
                j += 1;
                break;
            }
            "{" | ";" => return None,
            _ => {}
        }
        j += 1;
    }
    if !found_in {
        return None;
    }
    // Iterated expression: up to `{` at depth 0.
    let mut depth = 0i32;
    while j < limit {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return None,
            ";" => return None,
            _ => {}
        }
        if toks[j].kind == TokKind::Ident && hash_names.contains(&toks[j].text) {
            return Some(toks[i].line);
        }
        j += 1;
    }
    None
}

/// Collects every name the file declares with a `HashMap`/`HashSet`
/// type: struct fields and bindings (`entries: HashMap<…>`), and
/// `let [mut] name = HashMap::new()`-style initializations.
fn collect_hash_typed_names(toks: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet")) {
            continue;
        }
        // Strip a leading path qualification (`std :: collections ::`).
        let mut j = i;
        while j >= 3
            && toks[j - 1].is_punct(':')
            && toks[j - 2].is_punct(':')
            && toks[j - 3].kind == TokKind::Ident
        {
            j -= 3;
        }
        // Strip reference/mutability prefixes (`m: &mut HashMap<…>`).
        while j >= 1
            && (toks[j - 1].is_punct('&')
                || toks[j - 1].kind == TokKind::Lifetime
                || toks[j - 1].is_ident("mut")
                || toks[j - 1].is_ident("dyn"))
        {
            j -= 1;
        }
        // `name : HashMap` (field or binding type ascription) — but not
        // `path :: HashMap`, which the loop above already consumed.
        if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].kind == TokKind::Ident {
            push_unique(&mut names, &toks[j - 2].text);
            continue;
        }
        // `let [mut] name = HashMap::…`.
        if j >= 2 && toks[j - 1].is_punct('=') && toks[j - 2].kind == TokKind::Ident {
            let name = &toks[j - 2].text;
            let before = if j >= 3 { &toks[j - 3] } else { continue };
            if before.is_ident("let") || before.is_ident("mut") {
                push_unique(&mut names, name);
            }
        }
    }
    names
}

fn push_unique(names: &mut Vec<String>, name: &str) {
    if name != "_" && !names.iter().any(|n| n == name) {
        names.push(name.to_string());
    }
}

/// Yields `(name, (body_start, body_end))` for every `fn` with a body,
/// where the range excludes the braces themselves.
fn fn_bodies(toks: &[Tok]) -> Vec<(String, (usize, usize))> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if toks[i].is_ident("fn") && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            // Find the body `{` at paren/bracket depth 0 (a `;` first
            // means a trait method declaration without a body).
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut body = None;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        body = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = body {
                let close = matching(toks, open);
                out.push((name, (open + 1, close)));
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        check_file(path, &tokenize(src))
    }

    #[test]
    fn flags_hashmap_iteration_only_in_canonical_fns() {
        let src = "struct S { entries: HashMap<u64, u64> }\n\
                   impl S {\n\
                   fn digest(&self) -> u64 { self.entries.iter().map(|(_, v)| v).sum() }\n\
                   fn lookup(&self) -> u64 { self.entries.iter().count() as u64 }\n\
                   }";
        let findings = run("crates/ledger/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::UnorderedIter);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn flags_for_loop_over_hash_in_encode() {
        let src = "fn encode(m: &HashMap<u64, u64>, out: &mut Vec<u8>) {\n\
                   for (k, v) in m { out.push(*k as u8); out.push(*v as u8); }\n\
                   }";
        let findings = run("crates/network/src/wire.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn sorted_vec_iteration_in_digest_is_clean() {
        let src = "fn digest(entries: &[(u64, u64)]) -> u64 {\n\
                   let mut sorted: Vec<_> = entries.to_vec();\n\
                   sorted.sort();\n\
                   sorted.iter().map(|(k, _)| k).sum()\n\
                   }";
        assert!(run("crates/ledger/src/x.rs", src).is_empty());
    }

    #[test]
    fn depgraph_fns_are_canonical_regardless_of_name() {
        let src = "fn build(m: HashMap<u64, u64>) { for k in m.keys() { drop(k); } }";
        assert_eq!(run("crates/depgraph/src/graph.rs", src).len(), 1);
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn flags_allocation_in_hot_path_fns_only() {
        let src = "fn encode(v: &V, out: &mut Vec<u8>) { out.extend(format!(\"{v:?}\").bytes()); }\n\
                   fn digest(v: &V) -> String { v.name.to_string() }\n\
                   fn multicast(dests: &[u64], m: &M) { for d in dests { route(*d, m.clone()); } }\n\
                   fn render(v: &V) -> String { format!(\"{v:?}\") }";
        let findings = run("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == Rule::HotPathAlloc));
        assert_eq!(
            findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "render() is not a hot-path fn"
        );
    }

    #[test]
    fn arc_clone_in_multicast_is_clean() {
        let src = "fn multicast(dests: &[u64], payload: Arc<M>) {\n\
                   for d in dests { route(*d, Arc::clone(&payload)); }\n\
                   }";
        assert!(run("crates/network/src/x.rs", src).is_empty());
    }

    #[test]
    fn string_literals_never_trip_rules() {
        let src = "fn digest(m: &HashMap<u64, u64>) { let s = \"m.iter() format!(x) v.clone()\"; drop(s); }";
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }
}
