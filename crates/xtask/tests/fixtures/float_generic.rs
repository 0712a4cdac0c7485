pub fn run(parts: &[u64]) -> u64 {
    let v: Vec<f64> = Vec::new();
    let t = parts.iter().copied().map(|x| x as u64).collect::<Vec<u64>>();
    v.len() as u64 + t.len() as u64
}
