//! Output checkers. Every check compares a wire answer with a property
//! of the input or with an independent in-process computation; none
//! compares with a stored copy of an earlier answer.

use std::collections::BTreeSet;

use serde_json::Value;

/// The parts of a wire map the checks read.
#[derive(Debug, Clone)]
pub struct WireMap {
    pub k: usize,
    pub view_rows: usize,
    /// `(region id, count)` of every leaf, in pre-order.
    pub leaves: Vec<(usize, usize)>,
    pub sample_size: usize,
    pub assigned_rows: usize,
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

/// Parses the `"digest"` (or `"map_digest"`) hex field.
pub fn hex_field(v: &Value, key: &str) -> Result<u64, String> {
    let text = v
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing field {key:?}"))?;
    u64::from_str_radix(text, 16).map_err(|_| format!("bad hex in {key:?}: {text:?}"))
}

/// Reads a `{"response":"map","map":{...}}` envelope's map.
pub fn parse_map(envelope: &Value) -> Result<WireMap, String> {
    let map = envelope.get("map").ok_or("response has no map")?;
    let mut leaves = Vec::new();
    let mut stack = vec![map.get("root").ok_or("map has no root")?];
    while let Some(region) = stack.pop() {
        let children = region
            .get("children")
            .and_then(Value::as_array)
            .ok_or("region without children list")?;
        if children.is_empty() {
            leaves.push((
                field_u64(region, "id")? as usize,
                field_u64(region, "count")? as usize,
            ));
        }
        stack.extend(children.iter().rev());
    }
    Ok(WireMap {
        k: field_u64(map, "k")? as usize,
        view_rows: field_u64(map, "view_rows")? as usize,
        leaves,
        sample_size: field_u64(map, "sample_size")? as usize,
        assigned_rows: field_u64(map, "assigned_rows")? as usize,
    })
}

/// A map's structural properties: its leaf counts partition the view,
/// and k lies in the mapper's sweep range.
pub fn check_map(map: &WireMap, k_range: (usize, usize)) -> Result<(), String> {
    let sum: usize = map.leaves.iter().map(|&(_, c)| c).sum();
    if sum != map.view_rows {
        return Err(format!(
            "leaf counts sum to {sum}, view has {} rows",
            map.view_rows
        ));
    }
    if map.k < k_range.0 || map.k > k_range.1 {
        return Err(format!(
            "k = {} outside [{}, {}]",
            map.k, k_range.0, k_range.1
        ));
    }
    Ok(())
}

/// The leaf with the most rows (lowest id on ties).
pub fn largest_leaf(map: &WireMap) -> Option<(usize, usize)> {
    map.leaves
        .iter()
        .copied()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
}

/// Equality of a wire digest with the independently computed one.
pub fn check_digest(what: &str, wire: u64, reference: u64) -> Result<(), String> {
    if wire == reference {
        Ok(())
    } else {
        Err(format!(
            "{what}: wire digest {wire:016x} != in-process {reference:016x}"
        ))
    }
}

/// One line of a progressive stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    pub level: usize,
    pub levels: usize,
    pub last: bool,
    pub sample_size: usize,
    pub map_digest: u64,
    pub digest: u64,
}

pub fn parse_level(line: &Value) -> Result<Level, String> {
    if let Some(error) = line.get("error") {
        return Err(format!("stream error line: {error:?}"));
    }
    Ok(Level {
        level: field_u64(line, "level")? as usize,
        levels: field_u64(line, "levels")? as usize,
        last: line
            .get("final")
            .and_then(Value::as_bool)
            .ok_or("missing \"final\"")?,
        sample_size: field_u64(line, "sample_size")? as usize,
        map_digest: hex_field(line, "map_digest")?,
        digest: hex_field(line, "digest")?,
    })
}

/// A complete ladder: levels 0.. in order, each at its scheduled sample
/// size, exactly the last one final.
pub fn check_ladder(levels: &[Level], schedule: &[usize]) -> Result<(), String> {
    if levels.len() != schedule.len() {
        return Err(format!(
            "stream ended after {} of {} levels",
            levels.len(),
            schedule.len()
        ));
    }
    for (i, (level, &size)) in levels.iter().zip(schedule).enumerate() {
        if level.level != i || level.levels != schedule.len() {
            return Err(format!(
                "line {i} is level {}/{}",
                level.level, level.levels
            ));
        }
        if level.sample_size != size {
            return Err(format!(
                "level {i} sampled {} rows, schedule says {size}",
                level.sample_size
            ));
        }
        if level.last != (i + 1 == schedule.len()) {
            return Err(format!("level {i} has final={}", level.last));
        }
    }
    Ok(())
}

/// Themes are disjoint and together cover exactly `columns`.
pub fn check_partition(themes: &[Vec<String>], columns: &[String]) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    for column in themes.iter().flatten() {
        if !seen.insert(column.as_str()) {
            return Err(format!("column {column:?} is in two themes"));
        }
    }
    let expected: BTreeSet<&str> = columns.iter().map(String::as_str).collect();
    if seen != expected {
        return Err(format!(
            "themes cover {} columns, {} are analyzable",
            seen.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Themes equal the planted column groups (as sets of sets).
pub fn check_groups(themes: &[Vec<String>], planted: &[Vec<String>]) -> Result<(), String> {
    let as_sets = |groups: &[Vec<String>]| -> BTreeSet<BTreeSet<String>> {
        groups.iter().map(|g| g.iter().cloned().collect()).collect()
    };
    if as_sets(themes) == as_sets(planted) {
        Ok(())
    } else {
        Err(format!(
            "{} detected themes differ from the {} planted groups",
            themes.len(),
            planted.len()
        ))
    }
}

/// Adjusted Rand index of two labelings of the same rows.
pub fn ari(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "labelings of different row sets");
    let comb2 = |x: f64| x * (x - 1.0) / 2.0;
    let ka = a.iter().max().map_or(0, |&m| m + 1);
    let kb = b.iter().max().map_or(0, |&m| m + 1);
    let mut table = vec![0f64; ka * kb];
    let (mut rows, mut cols) = (vec![0f64; ka], vec![0f64; kb]);
    for (&x, &y) in a.iter().zip(b) {
        table[x * kb + y] += 1.0;
        rows[x] += 1.0;
        cols[y] += 1.0;
    }
    let index: f64 = table.iter().map(|&n| comb2(n)).sum();
    let sum_rows: f64 = rows.iter().map(|&n| comb2(n)).sum();
    let sum_cols: f64 = cols.iter().map(|&n| comb2(n)).sum();
    let expected = sum_rows * sum_cols / comb2(a.len() as f64);
    let max = (sum_rows + sum_cols) / 2.0;
    if max == expected {
        return 1.0;
    }
    (index - expected) / (max - expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    fn sample_map() -> Value {
        serde_json::from_str(
            r#"{"map": {"k": 2, "view_rows": 10, "sample_size": 10, "assigned_rows": 10,
                "root": {"id": 0, "count": 10, "children": [
                    {"id": 1, "count": 6, "children": []},
                    {"id": 2, "count": 4, "children": []}]}}}"#,
        )
        .unwrap()
    }

    #[test]
    fn map_checks_pass_and_fail_on_off_by_one() {
        let map = parse_map(&sample_map()).unwrap();
        assert_eq!(map.leaves, vec![(1, 6), (2, 4)]);
        assert_eq!(largest_leaf(&map), Some((1, 6)));
        check_map(&map, (2, 6)).unwrap();
        let mut off = map.clone();
        off.leaves[1].1 += 1;
        assert!(check_map(&off, (2, 6)).is_err());
        let mut wide_k = map;
        wide_k.k = 7;
        assert!(check_map(&wide_k, (2, 6)).is_err());
    }

    #[test]
    fn digest_check_fails_on_wrong_digest() {
        let line: Value = serde_json::from_str(r#"{"digest": "00000000000000ff"}"#).unwrap();
        let wire = hex_field(&line, "digest").unwrap();
        check_digest("x", wire, 0xff).unwrap();
        assert!(check_digest("x", wire, 0xfe).is_err());
    }

    fn level(level: usize, last: bool, size: usize) -> Level {
        Level {
            level,
            levels: 3,
            last,
            sample_size: size,
            map_digest: 1,
            digest: 2,
        }
    }

    #[test]
    fn ladder_check_rejects_short_or_disordered_streams() {
        let schedule = [64, 256, 2000];
        let full = vec![
            level(0, false, 64),
            level(1, false, 256),
            level(2, true, 2000),
        ];
        check_ladder(&full, &schedule).unwrap();
        assert!(check_ladder(&full[..2], &schedule).is_err());
        let mut swapped = full.clone();
        swapped.swap(0, 1);
        assert!(check_ladder(&swapped, &schedule).is_err());
        let mut early_final = full;
        early_final[1].last = true;
        assert!(check_ladder(&early_final, &schedule).is_err());
    }

    #[test]
    fn stalled_stream_fails_by_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (release, wait) = std::sync::mpsc::channel::<()>();
        let pool = blaeu_exec::JobPool::new(1);
        let server = pool.submit(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 2 {
                line.clear();
            }
            let mut writer = stream;
            let first = "{\"level\":0,\"levels\":3,\"final\":false,\"sample_size\":64,\
                         \"map_digest\":\"01\",\"digest\":\"02\"}\n";
            write!(
                writer,
                "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{first}\r\n",
                first.len()
            )
            .unwrap();
            writer.flush().unwrap();
            // Hold the stream open, sending nothing, until the client gave up.
            wait.recv().unwrap();
        });
        let mut client = Client::new(addr);
        let mut levels = Vec::new();
        let started = Instant::now();
        let result = client.stream(
            "/sessions/1/commands/batch",
            b"{\"cmd\":\"map_progressive\"}\n",
            started + Duration::from_millis(300),
            &mut |line| {
                levels.push(parse_level(&serde_json::from_slice(line).unwrap())?);
                Ok(())
            },
        );
        release.send(()).unwrap();
        server.join();
        assert!(
            result.is_err(),
            "a stalled stream must fail by its deadline"
        );
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(levels.len(), 1);
        assert!(check_ladder(&levels, &[64, 256, 2000]).is_err());
    }

    #[test]
    fn partition_and_group_checks() {
        let cols: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let themes = vec![
            vec!["a".to_string()],
            vec!["c".to_string(), "b".to_string()],
        ];
        check_partition(&themes, &cols).unwrap();
        assert!(check_partition(&themes[..1], &cols).is_err());
        let twice = vec![vec!["a".to_string(), "b".to_string()], themes[1].clone()];
        assert!(check_partition(&twice, &cols).is_err());
        let planted = vec![
            vec!["b".to_string(), "c".to_string()],
            vec!["a".to_string()],
        ];
        check_groups(&themes, &planted).unwrap();
        assert!(check_groups(&twice, &planted).is_err());
    }

    #[test]
    fn ari_of_relabelled_partition_is_one() {
        let a = [0, 0, 1, 1, 2, 2];
        assert!((ari(&a, &[2, 2, 0, 0, 1, 1]) - 1.0).abs() < 1e-12);
        assert!(ari(&a, &[0, 1, 0, 1, 0, 1]) < 0.1);
    }
}
