//! Reading the pipeline's JSON records: top-level fields, and the
//! normalized form two records are compared in.

/// The one field that differs between two memo-free runs of a net.
pub const TIMING: [&str; 1] = ["wall_ms"];

/// Fields that differ between two correct served answers for the same
/// net: measured time, serving provenance, and the DP's work and peak
/// statistics (a memo-seeded run skips merges a cold run performs, so
/// with the memo on these depend on what ran before).
pub const SERVED_VOLATILE: [&str; 8] = [
    "wall_ms",
    "cache",
    "worker",
    "candidate_peak",
    "merge_peak",
    "merge_enumerated",
    "merge_pruned",
    "arena_peak",
];

/// The top-level `(key, raw value)` pairs of a flat-ish JSON object, in
/// order; `None` when `line` is not an object this scanner understands.
pub fn fields(line: &str) -> Option<Vec<(&str, &str)>> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        // Key: a string without escapes.
        if bytes[i] != b'"' {
            return None;
        }
        let key_end = i + 1 + body[i + 1..].find('"')?;
        let key = &body[i + 1..key_end];
        i = key_end + 1;
        if bytes.get(i) != Some(&b':') {
            return None;
        }
        i += 1;
        // Value: up to the next comma at depth 0 outside strings.
        let start = i;
        let (mut depth, mut in_str, mut escaped) = (0i32, false, false);
        while i < bytes.len() {
            let c = bytes[i];
            if in_str {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, b'\\') => escaped = true,
                    (false, b'"') => in_str = false,
                    _ => {}
                }
            } else {
                match c {
                    b'"' => in_str = true,
                    b'[' | b'{' => depth += 1,
                    b']' | b'}' => depth -= 1,
                    b',' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        if in_str || depth != 0 {
            return None;
        }
        out.push((key, &body[start..i]));
        i += 1;
    }
    Some(out)
}

/// The raw value of `key` in `line`.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    fields(line)?
        .into_iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// A string field without its quotes.
pub fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    field(line, key)?.strip_prefix('"')?.strip_suffix('"')
}

/// A numeric field.
pub fn num_field(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

/// `line` without the fields in `drop`, re-joined in order.
pub fn normalized(line: &str, drop: &[&str]) -> Option<String> {
    let kept: Vec<String> = fields(line)?
        .into_iter()
        .filter(|(k, _)| !drop.contains(k))
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    Some(format!("{{{}}}", kept.join(",")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"net":"a,\"b\"","outcome":"degraded","wall_ms":1.5e0,"merge_pruned":7,"buffers":3,"attempts":[{"rung":"p3","error":"x, y"}],"cache":"hit","worker":1}"#;

    #[test]
    fn splits_top_level_fields() {
        let f = fields(LINE).expect("object");
        let keys: Vec<&str> = f.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "net",
                "outcome",
                "wall_ms",
                "merge_pruned",
                "buffers",
                "attempts",
                "cache",
                "worker"
            ]
        );
        assert_eq!(str_field(LINE, "net"), Some(r#"a,\"b\""#));
        assert_eq!(num_field(LINE, "buffers"), Some(3.0));
        assert_eq!(
            field(LINE, "attempts"),
            Some(r#"[{"rung":"p3","error":"x, y"}]"#)
        );
        assert!(fields("{\"a\":\"open}").is_none());
    }

    #[test]
    fn normalization_drops_volatile_fields_only() {
        let n = normalized(LINE, &SERVED_VOLATILE).expect("object");
        assert_eq!(
            n,
            r#"{"net":"a,\"b\"","outcome":"degraded","buffers":3,"attempts":[{"rung":"p3","error":"x, y"}]}"#
        );
    }
}
