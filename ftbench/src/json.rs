//! Linear-time access to the members of a JSON object, for response
//! bodies of hundreds of kilobytes: values are returned as raw text
//! slices and only the few the benchmark checks are ever decoded.

/// The members of the JSON object `obj`, as `(key, raw value)` pairs.
pub fn members(obj: &str) -> Result<Vec<(&str, &str)>, String> {
    let b = obj.as_bytes();
    let mut i = ws(b, 0);
    if b.get(i) != Some(&b'{') {
        return Err("not a JSON object".to_string());
    }
    i = ws(b, i + 1);
    let mut out = Vec::new();
    if b.get(i) == Some(&b'}') {
        return Ok(out);
    }
    loop {
        if b.get(i) != Some(&b'"') {
            return Err(format!("expected a key at byte {i}"));
        }
        let key_end = skip_string(b, i)?;
        let key = &obj[i + 1..key_end - 1];
        i = ws(b, key_end);
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i}"));
        }
        let start = ws(b, i + 1);
        let end = skip_value(b, start)?;
        out.push((key, &obj[start..end]));
        i = ws(b, end);
        match b.get(i) {
            Some(b',') => i = ws(b, i + 1),
            Some(b'}') => return Ok(out),
            _ => return Err(format!("expected ',' or '}}' at byte {i}")),
        }
    }
}

/// The raw value of member `key`, if `obj` is an object that has it.
pub fn member<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    members(obj).ok()?.into_iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// The value at a path of member keys.
pub fn path<'a>(obj: &'a str, keys: &[&str]) -> Option<&'a str> {
    keys.iter().try_fold(obj, |o, k| member(o, k))
}

pub fn as_bool(raw: Option<&str>) -> Option<bool> {
    match raw? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

pub fn as_f64(raw: Option<&str>) -> Option<f64> {
    raw?.parse().ok()
}

fn ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// End (one past the closing quote) of the string starting at `i`.
fn skip_string(b: &[u8], mut i: usize) -> Result<usize, String> {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return Ok(i + 1),
            _ => i += 1,
        }
    }
    Err("unterminated string".to_string())
}

/// End of the value starting at `i`.
fn skip_value(b: &[u8], i: usize) -> Result<usize, String> {
    match b.get(i) {
        None => Err("missing value".to_string()),
        Some(b'"') => skip_string(b, i),
        Some(b'{' | b'[') => {
            let mut depth = 0usize;
            let mut j = i;
            while j < b.len() {
                match b[j] {
                    b'"' => {
                        j = skip_string(b, j)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Ok(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            Err("unterminated object or array".to_string())
        }
        Some(_) => {
            let mut j = i;
            while j < b.len() && !matches!(b[j], b',' | b'}' | b']') && !b[j].is_ascii_whitespace()
            {
                j += 1;
            }
            Ok(j)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_top_level_members_only() {
        let body = r#"{"ok": true, "report": {"verified": false, "s": "a\"}b"}, "n": 2.5, "verified": true, "a": [1, {"x": "]"}]}"#;
        assert_eq!(as_bool(member(body, "verified")), Some(true));
        assert_eq!(as_f64(member(body, "n")), Some(2.5));
        assert_eq!(as_bool(path(body, &["report", "verified"])), Some(false));
        assert_eq!(member(body, "a"), Some(r#"[1, {"x": "]"}]"#));
        assert!(members("[1]").is_err());
        assert!(members(r#"{"a": "#).is_err());
    }
}
