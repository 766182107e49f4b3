//! A hand-rolled Rust source scanner: splits every line into the text
//! that is *code* and the text that is *comment*, with string/char-literal
//! contents blanked out so rule patterns never match inside literals.
//!
//! This is deliberately not a parser. The invariant rules (see
//! [`crate::rules`]) are token-level properties — "this `run_spmd(…)`
//! argument calls `.unwrap()`", "this marked loop calls `.clone()`" — and
//! a line-oriented code/comment split plus `#[cfg(test)]` span tracking is
//! exactly enough to check them without dragging a Rust grammar into a
//! dependency-free crate. The scanner handles the lexical constructs that
//! would otherwise cause false positives: line and nested block comments,
//! string / raw-string / byte-string literals, char literals vs.
//! lifetimes, and escapes.

/// One source line after scanning.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// The line's code text, with comments removed and the *contents* of
    /// string and char literals blanked (delimiters kept, so code shape
    /// survives: `foo("HashMap")` scans as `foo("")`).
    pub code: String,
    /// The line's comment text (contents of `//`, `///`, `//!`, and the
    /// part of any `/* */` on this line), concatenated.
    pub comment: String,
    /// True if the line is inside a `#[cfg(test)]` module.
    pub in_cfg_test: bool,
}

impl Line {
    /// Whether the line has any code (not only whitespace).
    pub fn has_code(&self) -> bool {
        !self.code.trim().is_empty()
    }
}

/// Scanner state between characters.
enum State {
    Code,
    LineComment,
    /// Nested depth (Rust block comments nest).
    BlockComment(u32),
    /// Inside a `"…"` string; bool = previous char was a backslash.
    Str(bool),
    /// Inside a raw string; the number of `#` in the closing delimiter.
    RawStr(u32),
    /// Inside a `'…'` char literal; bool = previous char was a backslash.
    CharLit(bool),
}

/// Split `text` into per-line code/comment views. `in_cfg_test` is filled
/// by a second pass (`mark_cfg_test_spans`), which this function calls.
pub fn scan(text: &str) -> Vec<Line> {
    let chars: Vec<char> = text.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut cur = Line::default();
    let mut state = State::Code;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if let State::LineComment = state {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    cur.code.push('"');
                    state = State::Str(false);
                    i += 1;
                    continue;
                }
                // Raw (and raw-byte) strings: r"…", r#"…"#, br"…", …
                // Only when `r`/`b` does not continue an identifier.
                if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
                    if let Some((hashes, skip)) = raw_string_open(&chars, i) {
                        for k in 0..skip {
                            cur.code.push(chars[i + k]);
                        }
                        i += skip;
                        state = State::RawStr(hashes);
                        continue;
                    }
                }
                if c == '\'' {
                    // Char literal or lifetime? A literal is '\…' or 'x'
                    // followed by a closing quote; anything else ('a in
                    // generics, 'static) is a lifetime.
                    if next == Some('\\')
                        || (chars.get(i + 2).copied() == Some('\'') && next != Some('\''))
                    {
                        cur.code.push('\'');
                        state = State::CharLit(false);
                        i += 1;
                        continue;
                    }
                    cur.code.push('\'');
                    i += 1;
                    continue;
                }
                cur.code.push(c);
                i += 1;
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str(escaped) => {
                if escaped {
                    state = State::Str(false);
                } else if c == '\\' {
                    state = State::Str(true);
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Code;
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == '"' && raw_string_closes(&chars, i, hashes) {
                    cur.code.push('"');
                    i += 1 + hashes as usize;
                    state = State::Code;
                } else {
                    i += 1;
                }
            }
            State::CharLit(escaped) => {
                if escaped {
                    state = State::CharLit(false);
                } else if c == '\\' {
                    state = State::CharLit(true);
                } else if c == '\'' {
                    cur.code.push('\'');
                    state = State::Code;
                }
                i += 1;
            }
        }
    }
    lines.push(cur);
    mark_cfg_test_spans(&mut lines);
    lines
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// If a raw string opens at `i` (`r`/`br` + hashes + `"`), return the hash
/// count and the delimiter length to consume (including the quote).
fn raw_string_open(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j).copied() != Some('r') {
            return None;
        }
    }
    if chars.get(j).copied() != Some('r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j).copied() == Some('#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j).copied() == Some('"') {
        Some((hashes, j - i + 1))
    } else {
        None
    }
}

/// Whether the quote at `i` closes a raw string with `hashes` hashes.
fn raw_string_closes(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|d| chars.get(i + d).copied() == Some('#'))
}

/// Mark every line of what a `#[cfg(test)]` attribute decorates: an
/// inline `mod … { … }` (or any other braced item), or one `;`-terminated
/// statement such as a test-only hook call inside a live function.
/// Integration-test *files* are exempted by path in
/// [`crate::analyze_source_opts`].
fn mark_cfg_test_spans(lines: &mut [Line]) {
    let mut l = 0usize;
    while l < lines.len() {
        if lines[l].code.contains("#[cfg(test)]") || lines[l].code.contains("#[cfg(all(test") {
            if let Some(last) = cfg_test_target_end(lines, l) {
                for line in lines.iter_mut().take(last + 1).skip(l) {
                    line.in_cfg_test = true;
                }
                l = last + 1;
                continue;
            }
        }
        l += 1;
    }
}

/// Names of out-of-line `#[cfg(test)] mod name;` modules declared in this
/// file. Their bodies live in sibling *files*, outside the span marker's
/// reach — the workspace walk analyzes those files as test code.
pub fn out_of_line_test_mods(lines: &[Line]) -> Vec<String> {
    let mut out = Vec::new();
    for (l, line) in lines.iter().enumerate() {
        if !(line.code.contains("#[cfg(test)]") || line.code.contains("#[cfg(all(test")) {
            continue;
        }
        for (k, follow) in lines.iter().enumerate().skip(l) {
            if follow.code.contains('{') {
                break; // inline module or fn: spanned, not out-of-line
            }
            if let Some(at) = find_token(&follow.code, "mod") {
                let rest = follow.code[at + "mod".len()..].trim_start();
                let name: String =
                    rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
                if !name.is_empty() && rest[name.len()..].trim_start().starts_with(';') {
                    out.push(name);
                }
                break;
            }
            // Some other `;`-terminated item under the attribute.
            if k > l && follow.code.contains(';') {
                break;
            }
        }
    }
    out
}

/// Last line of the item or statement under the `#[cfg(test)]` attribute
/// on `attr_line`: the line of the brace matching its first `{`, or of
/// its `;` when that comes first outside any `(…)`/`[…]` (a statement, or
/// an out-of-line `mod name;`).
fn cfg_test_target_end(lines: &[Line], attr_line: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (l, line) in lines.iter().enumerate().skip(attr_line) {
        // Skip the attribute itself: its brackets are not the target's.
        let from = if l == attr_line { line.code.find(")]").map_or(0, |at| at + 2) } else { 0 };
        for (col, c) in line.code.char_indices().skip_while(|&(col, _)| col < from) {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' => return match_brace(lines, l, col),
                ';' if depth == 0 => return Some(l),
                _ => {}
            }
        }
    }
    None
}

/// Given an opening `{` at (line, col) in code text, return the line of
/// its matching `}`.
pub fn match_brace(lines: &[Line], open_line: usize, open_col: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (l, line) in lines.iter().enumerate().skip(open_line) {
        let start = if l == open_line { open_col } else { 0 };
        for c in line.code[start.min(line.code.len())..].chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(l);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Given an opening `(` at (line, col) in code text, return the line of
/// its matching `)`.
pub fn match_paren(lines: &[Line], open_line: usize, open_col: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (l, line) in lines.iter().enumerate().skip(open_line) {
        let start = if l == open_line { open_col } else { 0 };
        for c in line.code[start.min(line.code.len())..].chars() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(l);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Byte offset of the first whole-token occurrence of `ident` in `code`.
pub fn find_token(code: &str, ident: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(ident) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + ident.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + ident.len();
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_split_from_code() {
        let lines = scan("let x = 1; // HashMap here\nlet y = 2;");
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].comment.contains("HashMap"));
        assert_eq!(lines[1].code.trim(), "let y = 2;");
    }

    #[test]
    fn string_contents_are_blanked() {
        let lines = scan(r#"let s = "HashMap::new()"; let t = 'H';"#);
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].code.contains(r#""""#), "delimiters kept: {}", lines[0].code);
    }

    #[test]
    fn raw_strings_and_escapes() {
        let src = "let a = r#\"// not a comment HashSet\"#;\nlet b = \"esc \\\" HashSet\";\nHashSet::new();";
        let lines = scan(src);
        assert!(!lines[0].code.contains("HashSet"));
        assert!(!lines[1].code.contains("HashSet"));
        assert!(find_token(&lines[2].code, "HashSet").is_some());
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let lines = scan("fn f<'a>(x: &'a str) { let c = '\\''; let d = 'x'; }");
        assert!(lines[0].code.contains("<'a>"));
        assert!(!lines[0].code.contains('x') || lines[0].code.contains("x:"), "{}", lines[0].code);
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let lines = scan("a(); /* outer /* inner */ still comment\nmore comment */ b();");
        assert_eq!(lines[0].code.trim(), "a();");
        assert!(lines[0].comment.contains("inner"));
        assert!(lines[1].comment.contains("more comment"));
        assert_eq!(lines[1].code.trim(), "b();");
    }

    #[test]
    fn cfg_test_spans_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { panic!() }\n}\nfn after() {}";
        let lines = scan(src);
        assert!(!lines[0].in_cfg_test);
        assert!(lines[1].in_cfg_test && lines[2].in_cfg_test && lines[3].in_cfg_test);
        assert!(lines[4].in_cfg_test);
        assert!(!lines[5].in_cfg_test);
    }

    #[test]
    fn cfg_test_statement_does_not_swallow_the_next_braced_item() {
        let src = "fn live(a: [u8; 2]) {\n    #[cfg(test)]\n    hook(a);\n}\nfn next() {\n    work();\n}\n\
                   #[cfg(test)]\nfn helper(a: [u8; 2]) {\n    t();\n}";
        let marked: Vec<bool> = scan(src).iter().map(|l| l.in_cfg_test).collect();
        let expect = [false, true, true, false, false, false, false, true, true, true, true];
        assert_eq!(marked, expect);
    }

    #[test]
    fn token_matching_respects_identifier_boundaries() {
        assert_eq!(find_token("run_spmd(p, f)", "run_spmd"), Some(0));
        assert_eq!(find_token("run_spmd_proc(p, f)", "run_spmd"), None);
        assert_eq!(find_token("x.unwrap()", "unwrap"), Some(2));
        assert_eq!(find_token("x.unwrap_or_else(y)", "unwrap"), None);
    }

    #[test]
    fn brace_and_paren_matching() {
        let lines = scan("foo(a, (b), {\n  c();\n});\nbar();");
        let col = lines[0].code.find('(').unwrap();
        assert_eq!(match_paren(&lines, 0, col), Some(2));
    }
}
